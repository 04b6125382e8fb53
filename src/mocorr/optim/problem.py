"""Residual and Jacobian builders for sequence refinement.

These classes express the energy terms as stacked nonlinear least squares.
Residuals carry square-rooted weights so the solver's cost (sum of squared
residuals) equals the weighted energy exactly.

The full pose problem optimizes [u, root_rot, root_trans] per frame, with
joint angles reparameterized as theta = lo + (hi - lo) * sigmoid(u) so every
iterate stays strictly inside its limits. The translation problem keeps the
angles fixed and optimizes root translations only.

Frames couple only through the temporal term, so both problems return their
Jacobian as a `BlockJacobian`: dense row blocks, each starting at one
frame's P columns (P = D + 6 for the pose problem, 3 for the translation
problem) and spanning that frame (reprojection, network anchor, silhouette)
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
    """One camera's keypoint observations with its share of the 2D weight."""

    camera: object
    frames: list
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

    def toarray(self):
        out = np.zeros(self.shape)
        for row0, frames, blocks in self._stacks:
            k, m, w = blocks.shape
            for i, f in enumerate(frames):
                out[row0 + i * m:row0 + (i + 1) * m, f * self.p:f * self.p + w] = blocks[i]
        return out

    def __array__(self, dtype=None, copy=None):
        return self.toarray().astype(dtype or float, copy=False)


def _nearest(a, b):
    """Index into b of the nearest row for every row of a."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


class PoseProblem:
    """Full-pose sequence refinement: E_3D + E_2D + E_T + E_S as residuals."""

    def __init__(self, skeleton, views, weights, *, net_quats=None, body=None,
                 sil_camera=None, sil_frames=None, n_sil=96, temporal=True):
        if not views and net_quats is None:
            raise InvalidInputError("pose problem needs at least one term")
        self.skeleton = skeleton
        self.views = views
        self.weights = weights
        self.bounds = BoundedAngles(skeleton)
        self.T = len(views[0].frames) if views else np.asarray(net_quats).shape[0]
        for v in views:
            if len(v.frames) != self.T:
                raise InvalidInputError("all views must cover the same frames")
        self.D = skeleton.total_dof
        self.Pf = self.D + 6
        self.temporal = temporal and self.T >= 2

        self.use_3d = net_quats is not None
        if self.use_3d:
            from .energies import net_pose_targets

            zeros = np.zeros((self.T, 3))
            self.net_theta, self.net_rv = net_pose_targets(skeleton, net_quats, zeros)

        # confidence gating is fixed up front, so block sizes never change
        self.included = []
        for v in views:
            self.included.append(
                [np.flatnonzero(f.conf >= weights.conf_threshold) for f in v.frames]
            )

        self.use_sil = (
            weights.lambda_s > 0.0
            and sil_camera is not None
            and body is not None
            and sil_frames is not None
            and any(np.asarray(f.silhouette).size for f in sil_frames)
        )
        self.sil_camera = sil_camera
        self.body = body
        self.n_sil = n_sil
        if self.use_sil:
            self.sil_obs = [np.asarray(f.silhouette, dtype=float).reshape(-1, 2)
                            for f in sil_frames]
        else:
            self.sil_obs = [np.zeros((0, 2))] * self.T
        # frames with an observed outline; only these get silhouette rows
        self.sil_idx = np.flatnonzero([o.shape[0] > 0 for o in self.sil_obs])

        self._light = (None, None)
        self._heavy = (None, None)
        self.n_rows = self._count_rows()

    def _count_rows(self):
        rows = 0
        for v_incl in self.included:
            rows += sum(2 * idx.size for idx in v_incl)
        if self.use_3d:
            rows += self.T * (self.D + 3)
        if self.temporal:
            rows += (self.T - 1) * self.Pf
        if self.use_sil:
            for t in self.sil_idx:
                rows += 2 * (self.sil_obs[t].shape[0] + self.n_sil)
        return rows

    # --- packing -----------------------------------------------------------

    def pack(self, theta, root_rot, root_trans):
        x = np.empty(self.T * self.Pf)
        for t in range(self.T):
            base = t * self.Pf
            x[base:base + self.D] = self.bounds.u_from_theta(theta[t])
            x[base + self.D:base + self.D + 3] = root_rot[t]
            x[base + self.D + 3:base + self.Pf] = root_trans[t]
        return x

    def split(self, x):
        xt = x.reshape(self.T, self.Pf)
        return xt[:, :self.D], xt[:, self.D:self.D + 3], xt[:, self.D + 3:]

    def poses(self, x):
        u, rv, tr = self.split(x)
        return [
            SkeletalPose(self.bounds.theta(u[t]), rv[t], tr[t]) for t in range(self.T)
        ]

    # --- shared per-x state -------------------------------------------------

    def _light_state(self, x):
        key = x.tobytes()
        if self._light[0] == key:
            return self._light[1]
        u, rv, tr = self.split(x)
        frames = SkeletalPose(self.bounds.theta(u), rv, tr)
        pos = fk_frames(self.skeleton, frames)[0]
        sil = None
        if self.use_sil:
            outline = silhouette_structure(
                self.sil_camera, self.skeleton, pos[self.sil_idx], self.body, self.n_sil)
            nearest = []
            for k, t in enumerate(self.sil_idx):
                pts = outline.points[k]
                nearest.append(None if outline.lost[k] else (
                    _nearest(self.sil_obs[t], pts), _nearest(pts, self.sil_obs[t])))
            sil = {"outline": outline, "nearest": nearest}
        state = {"frames": frames, "pos": pos, "u": u, "sil": sil}
        self._light = (key, state)
        return state

    # --- residuals ----------------------------------------------------------

    def residuals(self, x):
        st = self._light_state(x)
        w = self.weights
        out = np.zeros(self.n_rows)
        cur = 0
        for v, view in enumerate(self.views):
            for t in range(self.T):
                incl = self.included[v][t]
                if incl.size == 0:
                    continue
                scale = np.sqrt(w.lambda_2d * view.weight / (self.T * incl.size))
                uv, _, valid = project_points(view.camera, st["pos"][t][incl])
                diff = (uv - view.frames[t].keypoints[incl]) * scale
                diff[~valid] = 0.0
                out[cur:cur + 2 * incl.size] = diff.ravel()
                cur += 2 * incl.size
        frames = st["frames"]
        if self.use_3d:
            block = np.concatenate(
                [frames.theta - self.net_theta, frames.root_rot - self.net_rv], axis=1)
            out[cur:cur + block.size] = block.ravel()
            cur += block.size
        if self.temporal:
            s = np.sqrt(w.lambda_t)
            params = np.concatenate([frames.theta, frames.root_rot, frames.root_trans], axis=1)
            block = s * np.diff(params, axis=0)
            out[cur:cur + block.size] = block.ravel()
            cur += block.size
        if self.use_sil:
            outline = st["sil"]["outline"]
            for k, t in enumerate(self.sil_idx):
                obs = self.sil_obs[t]
                if outline.lost[k]:
                    block = 2 * (obs.shape[0] + self.n_sil)
                    out[cur:cur + block] = np.inf
                    cur += block
                    continue
                nn_obs, nn_model = st["sil"]["nearest"][k]
                w_o = np.sqrt(w.lambda_s * 0.5 / (self.T * obs.shape[0]))
                w_m = np.sqrt(w.lambda_s * 0.5 / (self.T * self.n_sil))
                pts = outline.points[k]
                out[cur:cur + 2 * obs.shape[0]] = ((pts[nn_obs] - obs) * w_o).ravel()
                cur += 2 * obs.shape[0]
                out[cur:cur + 2 * self.n_sil] = ((pts - obs[nn_model]) * w_m).ravel()
                cur += 2 * self.n_sil
        return out

    # --- jacobian -----------------------------------------------------------

    def _heavy_state(self, x):
        key = x.tobytes()
        if self._heavy[0] == key:
            return self._heavy[1]
        light = self._light_state(x)
        dtheta = self.bounds.dtheta_du(light["u"])
        jpos = fk_jacobian(self.skeleton, light["frames"])[2]
        state = {"light": light, "dtheta": dtheta, "jpos": jpos}
        self._heavy = (key, state)
        return state

    def jacobian(self, x):
        st = self._heavy_state(x)
        light = st["light"]
        w = self.weights
        D, P = self.D, self.Pf
        dtheta = st["dtheta"]
        jac = BlockJacobian(self.n_rows, self.T, P)
        cur = 0
        for v, view in enumerate(self.views):
            for t in range(self.T):
                incl = self.included[v][t]
                if incl.size == 0:
                    continue
                scale = np.sqrt(w.lambda_2d * view.weight / (self.T * incl.size))
                duv_dw, _, _ = projection_jacobian(view.camera, light["pos"][t][incl])
                block = (scale * (duv_dw @ st["jpos"][t][incl])).reshape(-1, P)
                block[:, :D] *= dtheta[t]
                cur = jac.add(cur, t, block)
        # d/du of theta is dtheta; of the root parts, 1
        chain = np.concatenate([dtheta, np.ones((self.T, 6))], axis=1)
        diag = np.arange(P)
        if self.use_3d:
            block = np.zeros((self.T, D + 3, P))
            block[:, diag[:D + 3], diag[:D + 3]] = chain[:, :D + 3]
            cur = jac.add(cur, np.arange(self.T), block)
        if self.temporal:
            s = np.sqrt(w.lambda_t)
            block = np.zeros((self.T - 1, P, 2 * P))
            block[:, diag, diag] = -s * chain[:-1]
            block[:, diag, P + diag] = s * chain[1:]
            cur = jac.add(cur, np.arange(self.T - 1), block)
        if self.use_sil:
            if light["sil"]["outline"].lost.any():
                raise InvalidInputError("silhouette lost at a point needing a jacobian")
            dmodel = self._silhouette_point_jacobians(st)
            for k, t in enumerate(self.sil_idx):
                obs = self.sil_obs[t]
                nn_obs, _ = light["sil"]["nearest"][k]
                w_o = np.sqrt(w.lambda_s * 0.5 / (self.T * obs.shape[0]))
                w_m = np.sqrt(w.lambda_s * 0.5 / (self.T * self.n_sil))
                block = np.concatenate(
                    [w_o * dmodel[k][nn_obs], w_m * dmodel[k]]).reshape(-1, P)
                block[:, :D] *= dtheta[t]
                cur = jac.add(cur, t, block)
        return jac

    def _silhouette_point_jacobians(self, st):
        """d(model point)/d[theta, rv, tr] for every sampled outline point of
        every frame with an observed outline: (len(sil_idx), n_sil, 2, Pf).

        Works per stadium: endpoint pixel positions and radii get their
        derivatives from the kinematic chain, then each sample moves as
        m = a + s*v + r(s)*n(phi) with its piece parameters frozen. Products
        keep the operand shapes of a single stadium and sample, so every
        value matches that computation bit for bit.
        """
        cam = self.sil_camera
        outline = st["light"]["sil"]["outline"]
        stad = outline.stadiums
        # derivative bundles for the stadiums the samples reference
        used, rec = np.unique(outline.stadium, return_inverse=True)
        rec = rec.ravel()
        frame = self.sil_idx[stad.frame[used]][:, None]
        ends = np.array(self.skeleton.bones, dtype=int)[stad.bone[used]]
        duv, z, _ = projection_jacobian(cam, st["light"]["pos"][frame, ends])
        jpos = st["jpos"][frame, ends]
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
        dmodel = np.empty((kind.size, 2, self.Pf))

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
        return dmodel.reshape(outline.kind.shape + (2, self.Pf))


class TranslationProblem:
    """Stage-one refinement: root translations under E_2D + lambda_t * E_T.

    Joint angles stay fixed, so world positions are a rigid offset of the
    zero-translation FK and the Jacobian needs no kinematic chain.
    """

    def __init__(self, skeleton, camera, frames, weights, fixed_poses):
        self.camera = camera
        self.weights = weights
        self.T = len(frames)
        if len(fixed_poses) != self.T:
            raise InvalidInputError("need one fixed pose per frame")
        self.included = [
            np.flatnonzero(f.conf >= weights.conf_threshold) for f in frames
        ]
        self.targets = [f.keypoints for f in frames]
        zeroed = SkeletalPose(np.stack([p.theta for p in fixed_poses]),
                              np.stack([p.root_rot for p in fixed_poses]),
                              np.zeros((self.T, 3)))
        self.base = fk_frames(skeleton, zeroed)[0]
        self.n_rows = sum(2 * i.size for i in self.included) + (
            3 * (self.T - 1) if self.T >= 2 else 0
        )

    def pack(self, translations):
        return np.asarray(translations, dtype=float).ravel().copy()

    def translations(self, x):
        return x.reshape(self.T, 3)

    def residuals(self, x):
        tr = self.translations(x)
        out = np.zeros(self.n_rows)
        cur = 0
        for t in range(self.T):
            incl = self.included[t]
            if incl.size == 0:
                continue
            scale = np.sqrt(self.weights.lambda_2d / (self.T * incl.size))
            uv, _, valid = project_points(self.camera, self.base[t][incl] + tr[t])
            diff = (uv - self.targets[t][incl]) * scale
            diff[~valid] = 0.0
            out[cur:cur + 2 * incl.size] = diff.ravel()
            cur += 2 * incl.size
        if self.T >= 2:
            s = np.sqrt(self.weights.lambda_t)
            d = s * np.diff(tr, axis=0)
            out[cur:cur + 3 * (self.T - 1)] = d.ravel()
        return out

    def jacobian(self, x):
        tr = self.translations(x)
        jac = BlockJacobian(self.n_rows, self.T, 3)
        cur = 0
        for t in range(self.T):
            incl = self.included[t]
            if incl.size == 0:
                continue
            scale = np.sqrt(self.weights.lambda_2d / (self.T * incl.size))
            duv, _, _ = projection_jacobian(self.camera, self.base[t][incl] + tr[t])
            cur = jac.add(cur, t, (scale * duv).reshape(-1, 3))
        if self.T >= 2:
            s = np.sqrt(self.weights.lambda_t)
            eye = np.eye(3)
            block = np.concatenate([-s * eye, s * eye], axis=1)
            jac.add(cur, np.arange(self.T - 1), np.broadcast_to(block, (self.T - 1, 3, 6)))
        return jac
