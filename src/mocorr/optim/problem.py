"""Residual and Jacobian builders for sequence refinement.

Both LM problems are lists of residual terms over per-frame parameter blocks:

- `Reprojection` (E_2D, one per view): confidence-gated pixel errors.
- `Anchor` (E_3D): the leading parameters against per-frame targets.
- `Temporal` (E_T): the change of every parameter between frames.
- `Silhouette` (E_S, one per view with outlines): nearest-neighbour
  distances between outlines.

Each view reads one `motion.Observations` record, whose frame-axis arrays
the terms take as they are.

Residuals carry square-rooted weights, so the solver's cost (sum of squared
residuals) equals the weighted energy exactly. Each term fixes its row count
when it is built and evaluates every frame in one call. The confidence gate
is a fixed (T, n) weight array: a joint below the gate keeps its two rows,
always zero, so one projection call per view covers all frames. Observed
outlines of different lengths are padded to the longest the same way.

The full pose problem optimizes [u, root_rot, root_trans] per frame
(P = D + 6), with joint angles reparameterized as theta = lo + (hi - lo) *
sigmoid(u) so every iterate stays strictly inside its limits. Its terms see
the natural parameters [theta, root_rot, root_trans], the FK joint positions
and their Jacobian; the problem then scales the angle columns by dtheta/du.
The translation problem keeps the angles and root rotations fixed and
optimizes root translations only (P = 3): positions are a rigid offset of
the zero-translation FK and their Jacobian is the identity, so it is the
same reprojection and temporal terms over other parameters.

Frames couple only through the temporal term, so both problems return their
Jacobian as a `BlockJacobian`: dense row blocks, each starting at one
frame's P columns and spanning that frame (reprojection, anchor, silhouette)
or that frame and the next (temporal). J^T J is then block-tridiagonal, and
`BlockJacobian.normal_equations` forms it in symmetric banded storage, with
J^T r, straight from the blocks, for the solver's banded Cholesky. Where
that factorization fails (the damped system is not numerically positive
definite, as the rank-deficient monocular problem can be at low damping),
the solver treats the step as rejected and raises the damping.

The silhouette term is differentiated with the sampling structure frozen:
nearest-neighbour pairings, the allocation of samples to outline pieces, and
the survivor set are held fixed, while the sampled points themselves move
with the pose (including the rotation of the common-tangent directions), so
the result matches finite differences of the true energy wherever those
discrete choices are locally constant.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ..camera import (
    ARC_A,
    ARC_B,
    CIRCLE,
    SEG_HI,
    SEG_LO,
    project_points,
    silhouette_structure,
    stadium_geometry,
)
from ..errors import InvalidInputError
from ..numerics import sigmoid
from ..skeleton import SkeletalPose, fk_frames
from .kinematics import fk_jacobian, projection_jacobian


class BoundedAngles:
    """theta = lo + (hi - lo) * sigmoid(u); zero-range DOFs pin theta = lo."""

    def __init__(self, skeleton):
        self.lo = skeleton.theta_min.copy()
        self.span = skeleton.theta_max - skeleton.theta_min
        self.active = self.span > 0.0

    def theta(self, u):
        return self.lo + self.span * sigmoid(u)

    def dtheta_du(self, u):
        s = sigmoid(u)
        return self.span * s * (1.0 - s)

    def u_from_theta(self, theta, margin=1e-4):
        safe = np.where(self.active, self.span, 1.0)
        frac = np.clip((theta - self.lo) / safe, margin, 1.0 - margin)
        return np.where(self.active, np.log(frac / (1.0 - frac)), 0.0)


@dataclass
class View:
    """One camera's observations (a `motion.Observations` record) with its
    share of the 2D weight."""

    camera: object
    obs: object
    weight: float = 1.0


@functools.lru_cache(maxsize=8)
def _band_layout(n_frames, p):
    """Where the frame blocks of a block-tridiagonal J^T J go in its upper
    band (bandwidth u = 2p - 1, shape (u + 1, n_frames * p)), as flat indices:
    the upper triangle of each diagonal block (source and destination), then
    every entry of each above-diagonal block in order (destination)."""
    n = n_frames * p
    a, b = np.triu_indices(p)
    t = np.arange(n_frames)[:, None]
    diag_src = (t * p * p + a * p + b).ravel()
    diag_dst = ((2 * p - 1 + a - b) * n + t * p + b).ravel()
    a, b = np.divmod(np.arange(p * p), p)
    t = np.arange(n_frames - 1)[:, None]
    off_dst = ((p - 1 + a - b) * n + (t + 1) * p + b).ravel()
    for index in (diag_src, diag_dst, off_dst):
        index.setflags(write=False)
    return diag_src, diag_dst, off_dst


class BlockJacobian:
    """A Jacobian of shape (n_rows, n_frames * p) held as dense row blocks.

    Blocks are added in stacks (k, m, w): block i covers the m rows from
    row0 + i * m and the columns of frame frames[i] (w = p) or of frames[i]
    and frames[i] + 1 (w = 2p). The start frames of one stack are distinct.
    Everything outside the blocks is zero.
    """

    def __init__(self, n_rows, n_frames, p):
        self.shape = (n_rows, n_frames * p)
        self.n_frames = n_frames
        self.p = p
        self._stacks = []

    def add(self, row0, frames, blocks):
        """Add one block (m, w) at a frame, or a stack (k, m, w) at k frames;
        returns the row after the last one added."""
        frames = np.atleast_1d(frames)
        blocks = blocks.reshape((frames.size,) + blocks.shape[-2:])
        self._stacks.append((row0, frames, blocks))
        return row0 + blocks.shape[0] * blocks.shape[1]

    def normal_equations(self, r):
        """J^T J in upper banded storage (2p, n_frames * p), as
        scipy.linalg.solveh_banded takes it, and J^T r."""
        t, p = self.n_frames, self.p
        diag = np.zeros((t, p, p))
        off = np.zeros((max(t - 1, 0), p, p))
        grad = np.zeros((t, p))
        for row0, frames, blocks in self._stacks:
            k, m, w = blocks.shape
            bt = blocks.transpose(0, 2, 1)
            btb = bt @ blocks
            btr = (bt @ r[row0:row0 + k * m].reshape(k, m, 1))[..., 0]
            diag[frames] += btb[:, :p, :p]
            grad[frames] += btr[:, :p]
            if w == 2 * p:
                diag[frames + 1] += btb[:, p:, p:]
                off[frames] += btb[:, :p, p:]
                grad[frames + 1] += btr[:, p:]
        diag_src, diag_dst, off_dst = _band_layout(t, p)
        band = np.zeros((2 * p, t * p))
        band.ravel()[diag_dst] = diag.ravel()[diag_src]
        band.ravel()[off_dst] = off.ravel()
        return band, grad.ravel()

    def scale_columns(self, scale):
        """Multiply the columns of frame f by scale[f] (n_frames, p): the
        chain rule for parameters that are elementwise functions of x."""
        for i, (row0, frames, blocks) in enumerate(self._stacks):
            cols = scale[frames]
            if blocks.shape[2] == 2 * self.p:
                cols = np.concatenate([cols, scale[frames + 1]], axis=1)
            self._stacks[i] = (row0, frames, blocks * cols[:, None, :])
        return self

    def toarray(self):
        out = np.zeros(self.shape)
        for row0, frames, blocks in self._stacks:
            k, m, w = blocks.shape
            for i, f in enumerate(frames):
                out[row0 + i * m:row0 + (i + 1) * m, f * self.p:f * self.p + w] = blocks[i]
        return out

    def __array__(self, dtype=None, copy=None):
        return self.toarray().astype(dtype or float, copy=False)


# --- terms -------------------------------------------------------------------
#
# A term reads a state dict of the parameters x: "pos", joint positions
# (T, n, 3); "params", the natural parameters (T, P); and, for jacobian,
# "jpos", d(pos)/d(params) (T, n, 3, P). residuals returns its `rows` values
# for all frames; jacobian adds its blocks from row0 and returns the row
# after them.


class Reprojection:
    """E_2D of one view: weighted pixel errors (T, n, 2) of every joint.

    A joint below the confidence gate has weight 0; the others in frame t
    share sqrt(lambda_2d * view.weight / (T * count_t)). A joint at or
    behind the camera gets zero rows, residual and Jacobian alike.
    """

    def __init__(self, view, weights):
        gate = view.obs.conf >= weights.conf_threshold
        count = np.maximum(gate.sum(axis=1, keepdims=True), 1)
        share = weights.lambda_2d * view.weight / (gate.shape[0] * count)
        self.weight = np.where(gate, np.sqrt(share), 0.0)
        self.camera = view.camera
        self.targets = view.obs.keypoints
        self.rows = 2 * self.weight.size

    def residuals(self, state):
        uv, _, valid = project_points(self.camera, state["pos"])
        diff = (uv - self.targets) * self.weight[..., None]
        diff[~valid] = 0.0
        return diff.ravel()

    def jacobian(self, state, jac, row0):
        duv, _, _ = projection_jacobian(self.camera, state["pos"])
        blocks = self.weight[..., None, None] * (duv @ state["jpos"])
        n_frames = blocks.shape[0]
        return jac.add(row0, np.arange(n_frames), blocks.reshape(n_frames, -1, jac.p))


class Anchor:
    """E_3D: the leading k parameters of every frame minus targets (T, k)."""

    def __init__(self, targets, p):
        self.targets = targets
        self.rows = targets.size
        n_frames, k = targets.shape
        self.block = np.zeros((n_frames, k, p))
        self.block[:, np.arange(k), np.arange(k)] = 1.0

    def residuals(self, state):
        return (state["params"][:, :self.targets.shape[1]] - self.targets).ravel()

    def jacobian(self, state, jac, row0):
        return jac.add(row0, np.arange(self.block.shape[0]), self.block)


class Temporal:
    """E_T: sqrt(lambda_t) times the change of every parameter from each
    frame to the next, (T - 1, P) rows."""

    def __init__(self, lambda_t, n_frames, p):
        self.scale = np.sqrt(lambda_t)
        self.rows = (n_frames - 1) * p
        diag = np.arange(p)
        self.block = np.zeros((n_frames - 1, p, 2 * p))
        self.block[:, diag, diag] = -self.scale
        self.block[:, diag, p + diag] = self.scale

    def residuals(self, state):
        return (self.scale * np.diff(state["params"], axis=0)).ravel()

    def jacobian(self, state, jac, row0):
        return jac.add(row0, np.arange(self.block.shape[0]), self.block)


class Silhouette:
    """E_S of one view over the frames with an observed outline: each
    observed point to its nearest model point, then each of the n model
    points to its nearest observed point, each side weighted by
    sqrt(lambda_s / 2 / (T * count)).

    Observed outlines shorter than the longest keep the record's padding as
    zero-weight rows that no model point pairs with. Every row of a frame
    whose model outline is lost is inf, and such a frame has no Jacobian.
    """

    def __init__(self, camera, skeleton, body, obs, weights, n):
        self.camera, self.skeleton, self.body, self.n = camera, skeleton, body, n
        self.frames = np.flatnonzero(obs.sil_count)
        lengths = obs.sil_count[self.frames][:, None]
        self.pad = np.arange(lengths.max()) >= lengths
        self.obs = obs.silhouette[self.frames, :self.pad.shape[1]]
        share = weights.lambda_s * 0.5 / (obs.n_frames * lengths)
        self.w_obs = np.where(self.pad, 0.0, np.sqrt(share))
        self.w_model = np.sqrt(weights.lambda_s * 0.5 / (obs.n_frames * n))
        self.rows = 2 * self.pad.shape[0] * (self.pad.shape[1] + n)

    def _structure(self, state):
        """The model outline and both nearest-neighbour pairings, kept in the
        state so the Jacobian at the same x reuses them."""
        if "silhouette" not in state:
            outline = silhouette_structure(self.camera, self.skeleton,
                                           state["pos"][self.frames], self.body, self.n)
            # per coordinate rather than np.sum over a last axis of 2, which
            # adds the same two squares but runs several times slower
            obs, pts = self.obs[:, :, None, :], outline.points[:, None, :, :]
            d2 = (obs[..., 0] - pts[..., 0]) ** 2 + (obs[..., 1] - pts[..., 1]) ** 2
            nn_obs = np.argmin(d2, axis=2)
            nn_model = np.argmin(np.where(self.pad[:, :, None], np.inf, d2), axis=1)
            state["silhouette"] = (outline, nn_obs, nn_model)
        return state["silhouette"]

    def residuals(self, state):
        outline, nn_obs, nn_model = self._structure(state)
        pts = outline.points
        k = np.arange(self.frames.size)[:, None]
        to_model = (pts[k, nn_obs] - self.obs) * self.w_obs[..., None]
        to_obs = (pts - self.obs[k, nn_model]) * self.w_model
        out = np.concatenate([to_model.reshape(k.size, -1), to_obs.reshape(k.size, -1)],
                             axis=1)
        out[outline.lost] = np.inf
        return out.ravel()

    def jacobian(self, state, jac, row0):
        outline, nn_obs, _ = self._structure(state)
        if outline.lost.any():
            raise InvalidInputError("silhouette lost at a point needing a jacobian")
        dmodel = self.point_jacobians(state)
        k = np.arange(self.frames.size)[:, None]
        blocks = np.concatenate([self.w_obs[..., None, None] * dmodel[k, nn_obs],
                                 self.w_model * dmodel], axis=1)
        return jac.add(row0, self.frames, blocks.reshape(k.size, -1, jac.p))

    def point_jacobians(self, state):
        """d(model point)/d[theta, rv, tr] for every sampled outline point of
        every frame with an observed outline: (len(frames), n, 2, P).

        Works per stadium: endpoint pixel positions and radii get their
        derivatives from the kinematic chain, then each sample moves as
        m = a + s*v + r(s)*n(phi) with its piece parameters frozen. Products
        keep the operand shapes of a single stadium and sample, so every
        value matches that computation bit for bit.
        """
        cam = self.camera
        outline = self._structure(state)[0]
        stad = outline.stadiums
        # derivative bundles for the stadiums the samples reference
        used, rec = np.unique(outline.stadium, return_inverse=True)
        rec = rec.ravel()
        frame = self.frames[stad.frame[used]][:, None]
        ends = np.array(self.skeleton.bones, dtype=int)[stad.bone[used]]
        duv, z, _ = projection_jacobian(cam, state["pos"][frame, ends])
        jpos = state["jpos"][frame, ends]
        dend = duv @ jpos
        coef = -cam.fx * self.body.radii[stad.bone[used]][:, None] / (z * z)
        dradius = coef[..., None] * (cam.rotation[2] @ jpos)
        da, db = dend[:, 0], dend[:, 1]
        dra, drb = dradius[:, 0], dradius[:, 1]
        ra, rb = stad.ra[used], stad.rb[used]
        v, d, q, psi, beta, circle = (x[used] for x in stadium_geometry(stad))
        d = np.where(circle, 1.0, d)  # a stadium no arc or segment uses

        kind = outline.kind.ravel()
        frac = outline.frac.ravel()
        dmodel = np.empty((kind.size, 2, jpos.shape[-1]))

        # one end circle swallows the other: the sample turns with the big circle
        c = kind == CIRCLE
        big_a = (ra >= rb)[rec[c]]
        centre = np.where(big_a[:, None, None], da[rec[c]], db[rec[c]])
        dr = np.where(big_a[:, None], dra[rec[c]], drb[rec[c]])
        ang = 2.0 * np.pi * frac[c]
        n = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dmodel[c] = centre + n[:, :, None] * dr[:, None, :]

        # tangent-joined stadiums: arcs and segments
        tan = ~c
        k, frac = rec[tan], frac[tan]
        kind = kind[tan]
        dv = db - da
        dpsi = (v[:, 0, None] * dv[:, 1] - v[:, 1, None] * dv[:, 0]) / (d * d)[:, None]
        root = np.sqrt(np.maximum(1.0 - q * q, 0.0))
        dd = (v[:, None, :] @ dv)[:, 0] / d[:, None]
        dq = (dra - drb) / d[:, None] - (q / d)[:, None] * dd
        steep = root > 1e-9
        dbeta = np.zeros_like(dq)
        dbeta[steep] = -dq[steep] / root[steep, None]
        beta, psi = beta[k], psi[k]
        arc_a, arc_b = kind == ARC_A, kind == ARC_B
        seg_hi, seg_lo = kind == SEG_HI, kind == SEG_LO
        s = np.select([arc_b, seg_hi | seg_lo], [1.0, frac], 0.0)
        drel = np.select([arc_a, arc_b, seg_hi], [1.0 - 2.0 * frac, 2.0 * frac - 1.0, 1.0],
                         -1.0)
        theta_rel = np.select(
            [arc_a, arc_b, seg_hi],
            [beta + frac * (2.0 * np.pi - 2.0 * beta), -beta + frac * 2.0 * beta, beta],
            -beta)
        phi = psi + theta_rel
        n = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        n_perp = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
        r_s = ra[k] + s * (rb[k] - ra[k])
        dr_s = dra[k] + s[:, None] * (drb[k] - dra[k])
        dphi = dpsi[k] + drel[:, None] * dbeta[k]
        dmodel[tan] = (
            da[k]
            + s[:, None, None] * dv[k]
            + n[:, :, None] * dr_s[:, None, :]
            + (r_s[:, None] * n_perp)[:, :, None] * dphi[:, None, :]
        )
        return dmodel.reshape(outline.kind.shape + dmodel.shape[1:])


def _residuals(terms, state):
    return np.concatenate([term.residuals(state) for term in terms])


def _jacobian(terms, state, jac):
    row = 0
    for term in terms:
        row = term.jacobian(state, jac, row)
    return jac


# --- problems ------------------------------------------------------------------


class PoseProblem:
    """Full-pose sequence refinement: E_2D + E_3D + E_T + E_S as residuals.

    Every view adds a reprojection term. `anchor`, angles and root rotations
    (T, D) and (T, 3), adds E_3D towards them; E_T joins whenever T >= 2.
    With a capsule `body` and lambda_s > 0, each view whose record holds
    outline points adds a silhouette term seen through that view's camera.
    """

    def __init__(self, skeleton, views, weights, *, anchor=None, body=None, n_sil=96):
        if not views and anchor is None:
            raise InvalidInputError("pose problem needs at least one term")
        self.skeleton = skeleton
        self.views = views
        self.weights = weights
        self.bounds = BoundedAngles(skeleton)
        self.T = views[0].obs.n_frames if views else len(anchor[0])
        if any(v.obs.n_frames != self.T for v in views):
            raise InvalidInputError("all views must cover the same frames")
        self.D = skeleton.total_dof
        self.Pf = self.D + 6

        self.terms = [Reprojection(v, weights) for v in views]
        if anchor is not None:
            self.terms.append(Anchor(np.concatenate(anchor, axis=1), self.Pf))
        if self.T >= 2:
            self.terms.append(Temporal(weights.lambda_t, self.T, self.Pf))
        if body is not None and weights.lambda_s > 0.0:
            self.terms += [Silhouette(v.camera, skeleton, body, v.obs, weights, n_sil)
                           for v in views if v.obs.sil_count.any()]
        self.n_rows = sum(term.rows for term in self.terms)
        self._cache = (None, None)

    def pack(self, theta, root_rot, root_trans):
        u = self.bounds.u_from_theta(np.asarray(theta, dtype=float))
        return np.concatenate([u, root_rot, root_trans], axis=1).ravel()

    def unpack(self, x):
        """Angles, root rotations and root translations of x, each (T, ·)."""
        xt = x.reshape(self.T, self.Pf)
        d = self.D
        return self.bounds.theta(xt[:, :d]), xt[:, d:d + 3], xt[:, d + 3:]

    def _state(self, x):
        """The terms' state at x, kept until x changes, so the Jacobian that
        follows the residuals at the same x reuses FK and the silhouette."""
        key = x.tobytes()
        if self._cache[0] != key:
            frames = SkeletalPose(*self.unpack(x))
            state = {"frames": frames, "pos": fk_frames(self.skeleton, frames)[0],
                     "params": np.concatenate(
                         [frames.theta, frames.root_rot, frames.root_trans], axis=1)}
            self._cache = (key, state)
        return self._cache[1]

    def residuals(self, x):
        return _residuals(self.terms, self._state(x))

    def jacobian(self, x):
        state = self._state(x)
        if "jpos" not in state:
            state["jpos"] = fk_jacobian(self.skeleton, state["frames"])[2]
        jac = _jacobian(self.terms, state, BlockJacobian(self.n_rows, self.T, self.Pf))
        u = x.reshape(self.T, self.Pf)[:, :self.D]
        return jac.scale_columns(
            np.concatenate([self.bounds.dtheta_du(u), np.ones((self.T, 6))], axis=1))


class TranslationProblem:
    """Stage-one refinement: root translations under E_2D + lambda_t * E_T,
    with every frame's angles and root rotation held at theta, root_rot."""

    def __init__(self, skeleton, camera, obs, weights, theta, root_rot):
        self.T = obs.n_frames
        if len(theta) != self.T or len(root_rot) != self.T:
            raise InvalidInputError("need one fixed pose per frame")
        zeroed = SkeletalPose(np.asarray(theta, dtype=float),
                              np.asarray(root_rot, dtype=float), np.zeros((self.T, 3)))
        self.base = fk_frames(skeleton, zeroed)[0]
        self.views = [View(camera, obs)]
        self.weights = weights
        self.terms = [Reprojection(self.views[0], weights)]
        if self.T >= 2:
            self.terms.append(Temporal(weights.lambda_t, self.T, 3))
        self.n_rows = sum(term.rows for term in self.terms)

    def pack(self, translations):
        return np.asarray(translations, dtype=float).ravel().copy()

    def translations(self, x):
        return x.reshape(self.T, 3)

    def _state(self, x):
        tr = self.translations(x)
        return {"pos": self.base + tr[:, None], "params": tr}

    def residuals(self, x):
        return _residuals(self.terms, self._state(x))

    def jacobian(self, x):
        state = self._state(x)
        state["jpos"] = np.broadcast_to(np.eye(3), state["pos"].shape + (3,))
        return _jacobian(self.terms, state, BlockJacobian(self.n_rows, self.T, 3))
