"""Residual and Jacobian builders for sequence refinement.

These classes express the energy terms as stacked nonlinear least squares.
Residuals carry square-rooted weights so the solver's cost (sum of squared
residuals) equals the weighted energy exactly.

The full pose problem optimizes [u, root_rot, root_trans] per frame, with
joint angles reparameterized as theta = lo + (hi - lo) * sigmoid(u) so every
iterate stays strictly inside its limits. The translation problem keeps the
angles fixed and optimizes root translations only. Frames couple only
through the temporal term, which makes J^T J block-tridiagonal; Jacobians
are therefore returned as sparse matrices.

The silhouette term is differentiated with the sampling structure frozen:
nearest-neighbour pairings, the allocation of samples to outline pieces, and
the survivor set are held fixed, while the sampled points themselves move
with the pose (including the rotation of the common-tangent directions), so
the result matches finite differences of the true energy wherever those
discrete choices are locally constant.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..camera import project_points, silhouette_structure
from ..errors import EmptySilhouetteError, InvalidInputError
from ..skeleton import SkeletalPose, fk_frames
from .kinematics import fk_jacobian, projection_jacobian


def _sigmoid(u):
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class BoundedAngles:
    """theta = lo + (hi - lo) * sigmoid(u); zero-range DOFs pin theta = lo."""

    def __init__(self, skeleton):
        self.lo = skeleton.theta_min.copy()
        self.span = skeleton.theta_max - skeleton.theta_min
        self.active = self.span > 0.0

    def theta(self, u):
        return self.lo + self.span * _sigmoid(u)

    def dtheta_du(self, u):
        s = _sigmoid(u)
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


class _SparseBuilder:
    def __init__(self, n_rows, n_cols):
        self.shape = (n_rows, n_cols)
        self.data = []
        self.rows = []
        self.cols = []

    def add_block(self, row0, col0, block):
        r, c = block.shape
        self.rows.append(np.repeat(np.arange(row0, row0 + r), c))
        self.cols.append(np.tile(np.arange(col0, col0 + c), r))
        self.data.append(block.ravel())

    def build(self):
        if not self.data:
            return sp.csr_matrix(self.shape)
        return sp.csr_matrix(
            (
                np.concatenate(self.data),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=self.shape,
        )


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
            for o in self.sil_obs:
                if o.shape[0]:
                    rows += 2 * (o.shape[0] + self.n_sil)
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
        sil = []
        if self.use_sil:
            for t in range(self.T):
                if self.sil_obs[t].shape[0] == 0:
                    sil.append(None)
                    continue
                pose = SkeletalPose(frames.theta[t], rv[t], tr[t])
                try:
                    pts, records = silhouette_structure(
                        self.sil_camera, self.skeleton, pose, self.body, self.n_sil
                    )
                except EmptySilhouetteError:
                    sil.append("lost")
                    continue
                sil.append(
                    {
                        "points": pts,
                        "records": records,
                        "nn_obs": _nearest(self.sil_obs[t], pts),
                        "nn_model": _nearest(pts, self.sil_obs[t]),
                    }
                )
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
            for t in range(self.T):
                obs = self.sil_obs[t]
                if obs.shape[0] == 0:
                    continue
                block = 2 * (obs.shape[0] + self.n_sil)
                data = st["sil"][t]
                if data == "lost":
                    out[cur:cur + block] = np.inf
                    cur += block
                    continue
                w_o = np.sqrt(w.lambda_s * 0.5 / (self.T * obs.shape[0]))
                w_m = np.sqrt(w.lambda_s * 0.5 / (self.T * self.n_sil))
                pts = data["points"]
                out[cur:cur + 2 * obs.shape[0]] = (
                    (pts[data["nn_obs"]] - obs) * w_o
                ).ravel()
                cur += 2 * obs.shape[0]
                out[cur:cur + 2 * self.n_sil] = (
                    (pts - obs[data["nn_model"]]) * w_m
                ).ravel()
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

    def _chain_u(self, block, dtheta_t):
        """Convert d/d[theta, rv, tr] columns into d/d[u, rv, tr] columns."""
        block = block.copy()
        block[:, :self.D] *= dtheta_t
        return block

    def jacobian(self, x):
        st = self._heavy_state(x)
        light = st["light"]
        w = self.weights
        builder = _SparseBuilder(self.n_rows, self.T * self.Pf)
        cur = 0
        for v, view in enumerate(self.views):
            for t in range(self.T):
                incl = self.included[v][t]
                if incl.size == 0:
                    continue
                scale = np.sqrt(w.lambda_2d * view.weight / (self.T * incl.size))
                duv_dw, _, _ = projection_jacobian(view.camera, light["pos"][t][incl])
                block = (scale * (duv_dw @ st["jpos"][t][incl])).reshape(-1, self.Pf)
                builder.add_block(cur, t * self.Pf, self._chain_u(block, st["dtheta"][t]))
                cur += 2 * incl.size
        if self.use_3d:
            for t in range(self.T):
                block = np.zeros((self.D + 3, self.Pf))
                block[:self.D, :self.D] = np.diag(st["dtheta"][t])
                block[self.D:, self.D:self.D + 3] = np.eye(3)
                builder.add_block(cur, t * self.Pf, block)
                cur += self.D + 3
        if self.temporal:
            s = np.sqrt(w.lambda_t)
            eye = np.eye(self.Pf)
            for t in range(self.T - 1):
                left = -s * eye.copy()
                left[:self.D, :self.D] = -s * np.diag(st["dtheta"][t])
                right = s * eye.copy()
                right[:self.D, :self.D] = s * np.diag(st["dtheta"][t + 1])
                builder.add_block(cur, t * self.Pf, left)
                builder.add_block(cur, (t + 1) * self.Pf, right)
                cur += self.Pf
        if self.use_sil:
            for t in range(self.T):
                obs = self.sil_obs[t]
                if obs.shape[0] == 0:
                    continue
                data = light["sil"][t]
                if data == "lost":
                    raise InvalidInputError("silhouette lost at a point needing a jacobian")
                dmodel = self._silhouette_point_jacobians(t, st, data)
                w_o = np.sqrt(w.lambda_s * 0.5 / (self.T * obs.shape[0]))
                w_m = np.sqrt(w.lambda_s * 0.5 / (self.T * self.n_sil))
                block = (w_o * dmodel[data["nn_obs"]]).reshape(-1, self.Pf)
                builder.add_block(cur, t * self.Pf, self._chain_u(block, st["dtheta"][t]))
                cur += 2 * obs.shape[0]
                block = (w_m * dmodel).reshape(-1, self.Pf)
                builder.add_block(cur, t * self.Pf, self._chain_u(block, st["dtheta"][t]))
                cur += 2 * self.n_sil
        return builder.build()

    def _silhouette_point_jacobians(self, t, st, data):
        """d(model point)/d[theta, rv, tr] for every sampled outline point.

        Works per stadium: endpoint pixel positions and radii get their
        derivatives from the kinematic chain, then each sample moves as
        m = a + s*v + r(s)*n(phi) with its piece parameters frozen.
        """
        cam = self.sil_camera
        jpos = st["jpos"][t]
        pos = st["light"]["pos"][t]
        records = data["records"]
        dmodel = np.zeros((self.n_sil, 2, self.Pf))

        # derivative bundles per stadium actually referenced
        bundles = {}
        for st_dict, _, _ in records:
            key = st_dict["bone"]
            if key in bundles:
                continue
            i, j = self.skeleton.bones[key]
            da, z_a, vis_a = projection_jacobian(cam, pos[i])
            db, z_b, vis_b = projection_jacobian(cam, pos[j])
            da = da @ jpos[i]
            db = db @ jpos[j]
            dz_a = cam.rotation[2] @ jpos[i]
            dz_b = cam.rotation[2] @ jpos[j]
            radius = self.body.radii[key]
            dra = -cam.fx * radius / (z_a * z_a) * dz_a
            drb = -cam.fx * radius / (z_b * z_b) * dz_b
            bundles[key] = (st_dict, da, db, dra, drb)

        for idx, (st_dict, kind, frac) in enumerate(records):
            st_b, da, db, dra, drb = bundles[st_dict["bone"]]
            a, b, ra, rb = st_b["a"], st_b["b"], st_b["ra"], st_b["rb"]
            if kind == "circle":
                if ra >= rb:
                    centre_j, dr = da, dra
                else:
                    centre_j, dr = db, drb
                ang = 2.0 * np.pi * frac
                n = np.array([np.cos(ang), np.sin(ang)])
                dmodel[idx] = centre_j + n[:, None] * dr[None, :]
                continue
            v = b - a
            d = float(np.linalg.norm(v))
            dv = db - da
            dpsi = (v[0] * dv[1] - v[1] * dv[0]) / (d * d)
            q = np.clip((ra - rb) / d, -1.0, 1.0)
            root = np.sqrt(max(1.0 - q * q, 0.0))
            dd = (v @ dv) / d
            dq = (dra - drb) / d - q / d * dd
            dbeta = -dq / root if root > 1e-9 else np.zeros(self.Pf)
            beta = float(np.arccos(q))
            if kind == "arc_a":
                s, drel = 0.0, 1.0 - 2.0 * frac
                theta_rel = beta + frac * (2.0 * np.pi - 2.0 * beta)
            elif kind == "arc_b":
                s, drel = 1.0, 2.0 * frac - 1.0
                theta_rel = -beta + frac * 2.0 * beta
            elif kind == "seg_hi":
                s, drel = frac, 1.0
                theta_rel = beta
            else:
                s, drel = frac, -1.0
                theta_rel = -beta
            psi = float(np.arctan2(v[1], v[0]))
            phi = psi + theta_rel
            n = np.array([np.cos(phi), np.sin(phi)])
            n_perp = np.array([-np.sin(phi), np.cos(phi)])
            r_s = ra + s * (rb - ra)
            dr_s = dra + s * (drb - dra)
            dphi = dpsi + drel * dbeta
            dmodel[idx] = (
                da
                + s * dv
                + n[:, None] * dr_s[None, :]
                + r_s * n_perp[:, None] * dphi[None, :]
            )
        return dmodel


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
        builder = _SparseBuilder(self.n_rows, 3 * self.T)
        cur = 0
        for t in range(self.T):
            incl = self.included[t]
            if incl.size == 0:
                continue
            scale = np.sqrt(self.weights.lambda_2d / (self.T * incl.size))
            duv, _, _ = projection_jacobian(self.camera, self.base[t][incl] + tr[t])
            builder.add_block(cur, 3 * t, (scale * duv).reshape(-1, 3))
            cur += 2 * incl.size
        if self.T >= 2:
            s = np.sqrt(self.weights.lambda_t)
            eye = np.eye(3)
            for t in range(self.T - 1):
                builder.add_block(cur, 3 * t, -s * eye)
                builder.add_block(cur, 3 * (t + 1), s * eye)
                cur += 3
        return builder.build()
