"""Reference implementations used only by tests.

Most of these deliberately avoid the package's own math: rotations go
through scipy.spatial.transform, forward kinematics through explicit 4x4
homogeneous matrices, projections through a 3x4 matrix, distances through
brute-force loops.

The per-frame pose <-> quaternion conversions, per-frame forward
kinematics, root-rotation derivative, Levenberg-Marquardt loop, silhouette
structure, sparse Jacobian builders, per-step GRU, masked sigmoid,
dict-based Adam and hybridnet/1 checkpoint writer further down are
different: they are the earlier, unoptimised versions of package code, kept
as they were so the optimised versions can be required to reproduce them bit
for bit, or to rounding where the summation order changed. The checkpoint
writer makes the hybridnet/1 files that the loader must still read. The
scalar energies E_3D, E_2D, E_T and E_S, also former package code, are the
energy definitions that the residual terms are checked against term by term.
`silhouette_points` (one pose's outline) and `frame_quats` (one frame of a
motion map) are former package helpers that only tests use.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded
from scipy.spatial.transform import Rotation

from mocorr import quat
from mocorr.camera import project_points, silhouette_structure
from mocorr.errors import (
    EmptySilhouetteError,
    InvalidInputError,
    NumericFailureError,
)
from mocorr.jsonio import save_document
from mocorr.net.layers import GRU
from mocorr.optim.kinematics import fk_jacobian, projection_jacobian
from mocorr.optim.lm import LMOptions, LMResult, numeric_jacobian
from mocorr.optim.energies import net_pose_targets
from mocorr.skeleton import (
    AXES,
    QuatPose,
    SkeletalPose,
    _check_dims,
    as_sequence,
    clamp_joint_limits,
    fk_frames,
    forward_kinematics,
    local_rotation,
)

from conftest import frame_rows


def conjugate(q):
    """The conjugate of quaternions (..., 4) in (w, x, y, z) order."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def axis_unit(axis):
    """The unit vector of a named axis 'X', 'Y' or 'Z'."""
    e = np.zeros(3)
    e[AXES.index(axis)] = 1.0
    return e


def params_to_pose(skeleton, p):
    """The pose of one stacked parameter vector [theta, root_rot, root_trans]."""
    d = skeleton.total_dof
    return SkeletalPose(p[:d], p[d:d + 3], p[d + 3:d + 6])


def scipy_quat(q_wxyz):
    """Package order (w,x,y,z) -> scipy Rotation."""
    q = np.asarray(q_wxyz, dtype=float)
    return Rotation.from_quat(np.concatenate([q[1:], q[:1]]))


def quat_from_scipy(rot):
    x, y, z, w = rot.as_quat()
    q = np.array([w, x, y, z])
    return q if q[0] >= 0 else -q


def local_rotation_matrix(joint, theta):
    """Rx * Ry * Rz restricted to the joint's declared axes."""
    mat = np.eye(3)
    for axis, angle in zip(joint.dof, theta):
        mat = mat @ Rotation.from_euler(axis.lower(), angle).as_matrix()
    return mat


def fk_homogeneous(skeleton, pose):
    """Forward kinematics with explicit 4x4 matrix chains."""
    n = skeleton.n_joints
    world = [None] * n
    positions = np.zeros((n, 3))
    for i, joint in enumerate(skeleton.joints):
        local = np.eye(4)
        if joint.parent is None:
            local[:3, :3] = Rotation.from_rotvec(pose.root_rot).as_matrix()
            local[:3, 3] = pose.root_trans
            world[i] = local
        else:
            local[:3, :3] = local_rotation_matrix(
                joint, pose.theta[skeleton.theta_slice(i)])
            local[:3, 3] = joint.offset
            world[i] = world[joint.parent] @ local
        positions[i] = world[i][:3, 3]
    return positions, [w[:3, :3] for w in world]


def project_matrix(camera, points):
    """Pinhole projection via the stacked 3x4 matrix P = K [R | t]."""
    k = np.array([[camera.fx, 0.0, camera.cx],
                  [0.0, camera.fy, camera.cy],
                  [0.0, 0.0, 1.0]])
    p = k @ np.hstack([camera.rotation, camera.translation[:, None]])
    homo = np.hstack([points, np.ones((len(points), 1))])
    proj = homo @ p.T
    return proj[:, :2] / proj[:, 2:3], proj[:, 2]


def chamfer_sq(a, b):
    """Mean squared nearest-neighbor distance from each of a to b."""
    total = 0.0
    for p in a:
        best = min(float(np.sum((p - q) ** 2)) for q in b)
        total += best
    return total / len(a)


def axis_matrix(axis, angle):
    return Rotation.from_euler(AXES[axis].lower() if isinstance(axis, int)
                               else axis.lower(), angle).as_matrix()


def central_diff(f, x, step):
    """Dense central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(f(x))
    jac = np.zeros((r0.size, x.size))
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        jac[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


def grad_check(analytic, numeric, rtol=1e-4, floor=1e-7):
    """Relative-error comparison with an absolute floor for tiny entries."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor / rtol)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max())


# --- per-frame pose <-> quaternion conversions --------------------------------


def from_matrix_per_matrix(m):
    """Unit quaternion of a rotation matrix (Shepperd's max-pivot method)."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array(
            [0.5 * r, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        s = 0.5 / r
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (m[j, i] + m[i, j]) * s
        q[1 + k] = (m[k, i] + m[i, k]) * s
    return quat.canonicalize(quat.normalize(q))


def euler_xyz_from_matrix_per_matrix(m):
    """Angles (a, b, c) with m = Rx(a) @ Ry(b) @ Rz(c).

    Gimbal-locked matrices (|m02| = 1) return c = 0 and fold the free angle
    into a, which keeps the factorization deterministic.
    """
    m = np.asarray(m, dtype=float)
    sb = float(np.clip(m[0, 2], -1.0, 1.0))
    if abs(sb) < 1.0 - 1e-12:
        b = np.arcsin(sb)
        a = np.arctan2(-m[1, 2], m[2, 2])
        c = np.arctan2(-m[0, 1], m[0, 0])
    elif sb > 0.0:
        b = np.pi / 2
        a = np.arctan2(m[1, 0], m[1, 1])
        c = 0.0
    else:
        b = -np.pi / 2
        a = -np.arctan2(m[1, 0], m[1, 1])
        c = 0.0
    return float(a), float(b), float(c)


def pose_to_quat_per_frame(skeleton, pose):
    _check_dims(skeleton, pose)
    if pose.root_rot.ndim != 1:
        raise InvalidInputError("pose_to_quat takes a single pose")
    q = np.empty((skeleton.n_joints, 4))
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            q[i] = quat.from_rotvec(pose.root_rot)
        else:
            q[i] = from_matrix_per_matrix(local_rotation(skeleton, i, pose))
    return QuatPose(q)


def quat_to_pose_per_frame(skeleton, qpose, root_trans):
    """The mapping from quaternions back to angles: S = M(Q, t).

    Each joint quaternion is factored as Rx(a) Ry(b) Rz(c); angles on the
    joint's declared axes are kept and clamped to limits, the rest of the
    rotation is dropped. Exact inverse of pose_to_quat on in-limit poses.
    """
    q = qpose.quats
    if q.shape[0] != skeleton.n_joints:
        raise InvalidInputError(
            f"quat pose has {q.shape[0]} joints, skeleton has {skeleton.n_joints}"
        )
    theta = np.zeros(skeleton.total_dof)
    root_rot = quat.to_rotvec(q[0])
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None or not joint.dof:
            continue
        a, b, c = euler_xyz_from_matrix_per_matrix(quat.to_matrix(q[i]))
        by_axis = {"X": a, "Y": b, "Z": c}
        theta[skeleton.theta_slice(i)] = [by_axis[ax] for ax in joint.dof]
    pose = SkeletalPose(theta, root_rot, np.asarray(root_trans, dtype=float))
    return clamp_joint_limits(pose, skeleton)


# --- scalar energies ---------------------------------------------------------


def pose_params(pose):
    return np.concatenate([pose.theta, pose.root_rot, pose.root_trans])


def _joint_weight_vector(skeleton, joint_weights):
    """Expand per-joint weights onto the stacked pose-parameter layout."""
    if joint_weights is None:
        joint_weights = np.ones(skeleton.n_joints)
    joint_weights = np.asarray(joint_weights, dtype=float)
    if joint_weights.shape != (skeleton.n_joints,):
        raise InvalidInputError("joint_weights must have one entry per joint")
    w = np.empty(skeleton.total_dof + 6)
    for j in range(skeleton.n_joints):
        w[skeleton.theta_slice(j)] = joint_weights[j]
    w[skeleton.total_dof:] = joint_weights[0]  # root rotation and translation
    return w


def energy_3d(seq, net_quats, trans, skeleton, joint_weights=None):
    """Sum over frames of the squared pose-parameter gap to M(Q_hat_t, t_t)."""
    trans = np.asarray(trans, dtype=float)
    if len(seq) != np.asarray(net_quats).shape[0] or len(seq) != trans.shape[0]:
        raise InvalidInputError("seq, net_quats and trans must have equal length")
    theta_hat, rv_hat = net_pose_targets(skeleton, net_quats)
    w = _joint_weight_vector(skeleton, joint_weights)
    total = 0.0
    for t, pose in enumerate(seq):
        target = np.concatenate([theta_hat[t], rv_hat[t], trans[t]])
        diff = pose_params(pose) - target
        total += float(w @ (diff * diff))
    return total


def energy_2d_per_frame(seq, obs, camera, skeleton, threshold=0.8):
    """Mean over frames of the mean squared reprojection error of confident joints.

    Joints with confidence below threshold are ignored; frames where no
    joint passes (or none is visible) contribute zero. seq is a list of
    single poses, obs an Observations record.
    """
    if len(seq) != obs.n_frames:
        raise InvalidInputError("seq and obs must have equal length")
    total = 0.0
    for pose, frame in zip(seq, frame_rows(obs)):
        included = np.flatnonzero(frame.conf >= threshold)
        if included.size == 0:
            continue
        uv, _, valid = project_points(camera, forward_kinematics(skeleton, pose))
        use = included[valid[included]]
        if use.size == 0:
            continue
        diff = uv[use] - frame.keypoints[use]
        total += float(np.sum(diff * diff)) / included.size
    return total / len(seq)


def energy_temporal(net_quats, trans, skeleton):
    """Sum of squared pose-parameter differences between adjacent frames of M."""
    net_quats = np.asarray(net_quats, dtype=float)
    trans = np.asarray(trans, dtype=float)
    if net_quats.shape[0] < 2:
        raise InvalidInputError("temporal energy needs at least two frames")
    theta, root_rot = net_pose_targets(skeleton, net_quats)
    p = np.concatenate([theta, root_rot, trans], axis=1)
    diff = np.diff(p, axis=0)
    return float(np.sum(diff * diff))


def silhouette_points(camera, skeleton, pose, body, n):
    """n points (pixels) on the outline of the projected capsule body."""
    pos = fk_frames(skeleton, as_sequence(pose))[0]
    out = silhouette_structure(camera, skeleton, pos, body, n)
    if out.lost[0]:
        raise EmptySilhouetteError("the projected body has no visible outline")
    return out.points[0]


def frame_quats(motion, t):
    """Quaternions of frame t of a motion map as an (n_joints, 4) view."""
    return motion.quats[t].reshape(motion.n_joints, 4)


def _mean_min_sq(a, b):
    """Mean over rows of a of the squared distance to the nearest row of b."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.mean(np.min(d2, axis=1)))


def energy_silhouette(seq, silhouettes, camera, skeleton, body, n_points=96):
    """Mean over frames of the symmetric Chamfer distance (px^2) between
    observed outline points and the projected capsule-body outline."""
    if len(seq) != len(silhouettes):
        raise InvalidInputError("seq and silhouettes must have equal length")
    total = 0.0
    for pose, observed in zip(seq, silhouettes):
        observed = np.asarray(observed, dtype=float).reshape(-1, 2)
        if observed.shape[0] == 0:
            continue
        model = silhouette_points(camera, skeleton, pose, body, n_points)
        total += 0.5 * (_mean_min_sq(observed, model) + _mean_min_sq(model, observed))
    return total / len(seq)


# --- per-frame forward kinematics -------------------------------------------


def _axis_rotation_per_frame(axis, a):
    c, s = np.cos(a), np.sin(a)
    if axis == "X":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    if axis == "Y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def _local_rotation_per_frame(skeleton, i, pose):
    joint = skeleton.joints[i]
    if joint.parent is None:
        return quat.to_matrix(quat.from_rotvec(pose.root_rot))
    r = np.eye(3)
    angles = pose.theta[skeleton.theta_slice(i)]
    for ax, a in zip(joint.dof, angles):
        r = r @ _axis_rotation_per_frame(ax, a)
    return r


def fk_frames_per_frame(skeleton, pose):
    """World positions (n,3) and world rotations (n,3,3) of every joint."""
    n = skeleton.n_joints
    pos = np.empty((n, 3))
    rot = np.empty((n, 3, 3))
    for i, joint in enumerate(skeleton.joints):
        local = _local_rotation_per_frame(skeleton, i, pose)
        if joint.parent is None:
            pos[i] = pose.root_trans
            rot[i] = local
        else:
            pos[i] = pos[joint.parent] + rot[joint.parent] @ joint.offset
            rot[i] = rot[joint.parent] @ local
    return pos, rot


def fk_jacobian_per_frame(skeleton, pose):
    """(pos (n,3), rot (n,3,3), jac (n,3,total_dof+6)) for one pose."""
    pos, rot = fk_frames_per_frame(skeleton, pose)
    n = skeleton.n_joints
    d = skeleton.total_dof
    jac = np.zeros((n, 3, d + 6))

    jac[:, :, d + 3:] = np.eye(3)

    # root rotation: pos_i = t + R(v) s_i with s_i fixed in the body frame
    body = (pos - pose.root_trans) @ rot[0]
    d_rot = rotvec_matrix_jacobian_per_frame(pose.root_rot)
    for k in range(3):
        jac[:, :, d + k] = body @ d_rot[k].T

    for j, joint in enumerate(skeleton.joints):
        if not joint.dof:
            continue
        parent_rot = rot[joint.parent] if joint.parent is not None else np.eye(3)
        before = np.eye(3)
        angles = pose.theta[skeleton.theta_slice(j)]
        col = int(skeleton.dof_start[j])
        moved = skeleton.descendants[j]
        lever = pos[moved] - pos[j]
        for m, ax in enumerate(joint.dof):
            omega = parent_rot @ before @ axis_unit(ax)
            jac[moved, :, col + m] = np.cross(omega, lever)
            before = before @ _axis_rotation_per_frame(ax, angles[m])
    return pos, rot, jac


# --- per-frame root-rotation derivative ----------------------------------------


def rotvec_matrix_jacobian_per_frame(v):
    """d(R)/d(v_k) for R = exp([v]_x): array (3, 3, 3) indexed [k, i, j].

    Closed form of Gallego & Yezzi with a first-order fallback near v = 0,
    where dR/dv_k -> [e_k]_x.
    """
    v = np.asarray(v, dtype=float)
    theta2 = float(v @ v)
    out = np.empty((3, 3, 3))
    if theta2 < 1e-14:
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            out[k] = quat.skew(e)
        return out
    r = quat.to_matrix(quat.from_rotvec(v))
    vx = quat.skew(v)
    eye = np.eye(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        w = v[k] * vx + quat.skew(np.cross(v, (eye - r) @ e))
        out[k] = (w / theta2) @ r
    return out


# --- Levenberg-Marquardt rebuilding J^T J on every damping retry -------------

_DAMPING_CEILING = 1e16


def _solve_normal_equations_rebuilt(jac, r, grad, damping):
    n = grad.size
    if hasattr(jac, "normal_equations"):
        lhs, _ = jac.normal_equations(r)
        lhs[-1] += damping
        try:
            step = solveh_banded(lhs, -grad, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        return step if np.all(np.isfinite(step)) else None
    if sp.issparse(jac):
        lhs = (jac.T @ jac + damping * sp.identity(n, format="csr")).tocsc()
        try:
            step = spla.spsolve(lhs, -grad)
        except RuntimeError:
            return None
        return step if np.all(np.isfinite(step)) else None
    lhs = jac.T @ jac + damping * np.eye(n)
    try:
        step = np.linalg.solve(lhs, -grad)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def levenberg_marquardt_rebuilt(residuals, x0, jacobian=None, options=None):
    """Minimize sum(residuals(x)**2) from x0; returns an LMResult.

    The Jacobian may be dense, scipy.sparse (solved with SuperLU's spsolve)
    or a block Jacobian (its normal equations formed again on every retry)."""
    opts = options if options is not None else LMOptions()
    x = np.array(x0, dtype=float).ravel()
    if jacobian is None:
        jacobian = lambda xv: numeric_jacobian(residuals, xv)

    r = np.asarray(residuals(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise NumericFailureError("residuals are not finite at the starting point")
    cost = float(r @ r)
    history = [cost]
    damping = opts.damping_init
    status = "max_iterations"
    iterations = 0

    for _ in range(opts.max_iterations):
        jac = jacobian(x)
        if hasattr(jac, "normal_equations"):
            grad = jac.normal_equations(r)[1]
        else:
            grad = jac.T @ r
        grad = np.asarray(grad).ravel()
        if not np.all(np.isfinite(grad)):
            raise NumericFailureError("gradient is not finite")
        if np.max(np.abs(grad), initial=0.0) <= opts.gradient_tol:
            status = "gradient"
            break

        accepted = False
        while damping < _DAMPING_CEILING:
            step = _solve_normal_equations_rebuilt(jac, r, grad, damping)
            if step is None:
                damping *= opts.damping_up
                continue
            x_new = x + step
            r_new = np.asarray(residuals(x_new), dtype=float)
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if cost_new < cost:
                accepted = True
                damping *= opts.damping_down
                break
            damping *= opts.damping_up
        if not accepted:
            status = "stalled"
            break

        iterations += 1
        decrease = cost - cost_new
        step_norm = float(np.linalg.norm(step))
        x, r, cost = x_new, r_new, cost_new
        history.append(cost)
        if step_norm <= opts.step_tol * (np.linalg.norm(x) + opts.step_tol):
            status = "step"
            break
        if decrease <= opts.cost_tol * max(1.0, cost):
            status = "cost"
            break

    return LMResult(x=x, cost=cost, iterations=iterations, status=status, cost_history=history)


# --- per-frame silhouette structure and its point Jacobians --------------------


def bone_stadiums_per_frame(camera, skeleton, pose, body):
    """Per visible bone: projected endpoints and per-endpoint pixel radii.

    Returns a list of dicts {bone, a, b, ra, rb}; bones with either endpoint
    at or behind the camera plane are dropped.
    """
    if len(body.radii) != len(skeleton.bones):
        raise InvalidInputError(
            f"body has {len(body.radii)} radii, skeleton has {len(skeleton.bones)} bones"
        )
    pos, _ = fk_frames(skeleton, pose)
    uv, z, valid = project_points(camera, pos)
    out = []
    for k, (i, j) in enumerate(skeleton.bones):
        if not (valid[i] and valid[j]):
            continue
        out.append(
            {
                "bone": k,
                "a": uv[i],
                "b": uv[j],
                "ra": camera.fx * body.radii[k] / z[i],
                "rb": camera.fx * body.radii[k] / z[j],
            }
        )
    return out


def _stadium_pieces(st):
    """Boundary pieces of one generalized stadium as (kind, length) pairs.

    Kinds: "arc_a", "arc_b", "seg_hi", "seg_lo" for the tangent-joined shape,
    or a single "circle" when one projected endpoint circle swallows the other.
    """
    d = float(np.linalg.norm(st["b"] - st["a"]))
    dr = st["rb"] - st["ra"]
    if d <= abs(dr) + 1e-12:
        r = max(st["ra"], st["rb"])
        return [("circle", 2.0 * np.pi * r)], None
    beta = float(np.arccos(np.clip((st["ra"] - st["rb"]) / d, -1.0, 1.0)))
    seg = float(np.sqrt(max(d * d - dr * dr, 0.0)))
    pieces = [
        ("arc_a", st["ra"] * (2.0 * np.pi - 2.0 * beta)),
        ("seg_hi", seg),
        ("arc_b", st["rb"] * 2.0 * beta),
        ("seg_lo", seg),
    ]
    return pieces, beta


def _piece_points(st, kind, fracs):
    """Points at fractional positions along one boundary piece."""
    a, b, ra, rb = st["a"], st["b"], st["ra"], st["rb"]
    v = b - a
    d = float(np.linalg.norm(v))
    if kind == "circle":
        s = 0.0 if ra >= rb else 1.0
        r = max(ra, rb)
        ang = 2.0 * np.pi * fracs
        centre = a + s * v
        return centre + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    psi = float(np.arctan2(v[1], v[0]))
    beta = float(np.arccos(np.clip((ra - rb) / d, -1.0, 1.0)))
    if kind == "arc_a":
        theta = psi + beta + fracs * (2.0 * np.pi - 2.0 * beta)
        return a + ra * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if kind == "arc_b":
        theta = psi - beta + fracs * (2.0 * beta)
        return (a + v) + rb * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sign = 1.0 if kind == "seg_hi" else -1.0
    n = np.array([np.cos(psi + sign * beta), np.sin(psi + sign * beta)])
    # tangent segment = sweep centre + swept radius along the common normal
    s = fracs[:, None]
    return a + s * v + (ra + s * (rb - ra)) * n


def stadium_signed_distance(points, st):
    """Signed distance (px) from points to one stadium; negative inside.

    The stadium is the union of discs centred on the segment a->b with
    linearly interpolated radius, so the distance is min over the sweep
    parameter of |p - c(s)| - r(s), minimized in closed form.
    """
    points = np.atleast_2d(points)
    a, b, ra, rb = st["a"], st["b"], st["ra"], st["rb"]
    v = b - a
    vv = float(v @ v)
    dr = rb - ra
    w = points - a
    if vv <= dr * dr + 1e-15:
        s_big = 0.0 if ra >= rb else 1.0
        centre = a + s_big * v
        return np.linalg.norm(points - centre, axis=1) - max(ra, rb)
    wv = w @ v
    ww = np.sum(w * w, axis=1)
    # candidate sweep parameters: ends plus stationary points of the distance
    cands = [np.zeros_like(wv), np.ones_like(wv)]
    aa = vv * (vv - dr * dr)
    bb = -2.0 * wv * (vv - dr * dr)
    cc = wv * wv - dr * dr * ww
    disc = bb * bb - 4.0 * aa * cc
    ok = disc > 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    for sgn in (-1.0, 1.0):
        s = np.where(ok, (-bb + sgn * root) / (2.0 * aa), 0.0)
        cands.append(np.clip(s, 0.0, 1.0))
    best = None
    for s in cands:
        g = np.sqrt(np.maximum(ww - 2.0 * s * wv + s * s * vv, 0.0)) - (ra + s * dr)
        best = g if best is None else np.minimum(best, g)
    return best


def sample_outline_per_frame(camera, skeleton, pose, body, n, oversample=4):
    """Outline candidates plus the bookkeeping needed to re-derive each one.

    Returns (points (m,2), records, kept_idx): records[i] is (stadium, kind,
    frac) for candidate i, and kept_idx lists the candidates that survived
    the inside-another-stadium cull. The records let an optimizer freeze the
    sampling structure and move points analytically with the pose.
    """
    stadiums = bone_stadiums_per_frame(camera, skeleton, pose, body)
    if not stadiums:
        raise EmptySilhouetteError("no bone is visible from the camera")
    budget = max(8 * oversample, n * oversample)
    pieces = []
    for st in stadiums:
        for kind, length in _stadium_pieces(st)[0]:
            pieces.append((st, kind, length))
    total = sum(p[2] for p in pieces)
    if total <= 0.0:
        raise EmptySilhouetteError("projected body has zero outline length")
    points = []
    records = []
    for st, kind, length in pieces:
        count = max(1, int(round(budget * length / total)))
        fracs = (np.arange(count) + 0.5) / count
        pts = _piece_points(st, kind, fracs)
        points.append(pts)
        records.extend((st, kind, float(f)) for f in fracs)
    points = np.concatenate(points, axis=0)

    keep = np.ones(len(points), dtype=bool)
    for st in stadiums:
        sd = stadium_signed_distance(points, st)
        others = np.array([rec[0] is not st for rec in records])
        keep &= ~((sd < -1e-6) & others)
    kept_idx = np.flatnonzero(keep)
    if kept_idx.size == 0:
        raise EmptySilhouetteError("every outline sample fell inside the body")
    return points, records, kept_idx


def silhouette_structure_per_frame(camera, skeleton, pose, body, n):
    """n outline points plus their (stadium, kind, frac) sampling records."""
    if n < 8:
        raise InvalidInputError("need at least 8 silhouette points")
    points, records, kept_idx = sample_outline_per_frame(camera, skeleton, pose, body, n)
    pick = kept_idx[np.round(np.linspace(0, kept_idx.size - 1, n)).astype(int)]
    return points[pick], [records[i] for i in pick]


def silhouette_point_jacobians_per_frame(term, state, t, records):
    """d(model point)/d[theta, rv, tr] for every sampled outline point of
    frame t, from that frame's sampling records.

    Works per stadium: endpoint pixel positions and radii get their
    derivatives from the kinematic chain, then each sample moves as
    m = a + s*v + r(s)*n(phi) with its piece parameters frozen.
    """
    cam = term.camera
    jpos = state["jpos"][t]
    pos = state["pos"][t]
    p = jpos.shape[-1]
    dmodel = np.zeros((term.n, 2, p))

    # derivative bundles per stadium actually referenced
    bundles = {}
    for st_dict, _, _ in records:
        key = st_dict["bone"]
        if key in bundles:
            continue
        i, j = term.skeleton.bones[key]
        da, z_a, vis_a = projection_jacobian(cam, pos[i])
        db, z_b, vis_b = projection_jacobian(cam, pos[j])
        da = da @ jpos[i]
        db = db @ jpos[j]
        dz_a = cam.rotation[2] @ jpos[i]
        dz_b = cam.rotation[2] @ jpos[j]
        radius = term.body.radii[key]
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
        dbeta = -dq / root if root > 1e-9 else np.zeros(p)
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


# --- sparse Jacobian builders: COO blocks into a scipy.sparse CSR matrix ------


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


# --- ragged per-frame builders: the two LM problems before the term layer -----
#
# Each view and frame got rows only for the joints that clear the confidence
# gate, and each frame with an observed outline rows for that outline's own
# length. The functions below rebuild that layout from the problem's inputs;
# `ragged_rows` says where its rows sit among the term layer's.


def ragged_gate(problem):
    """Per view, per frame: the joints that clear the confidence gate."""
    threshold = problem.weights.conf_threshold
    return [[np.flatnonzero(conf >= threshold) for conf in view.obs.conf]
            for view in problem.views]


def _term(problem, kind):
    return next((t for t in problem.terms if type(t).__name__ == kind), None)


def ragged_rows(problem):
    """Boolean mask over the problem's rows: True on the rows the ragged
    layout has, in the same order; False on the rows of gated-out joints and
    of outline padding."""
    keep = []
    views = iter(problem.views)
    for term in problem.terms:
        kind = type(term).__name__
        if kind == "Reprojection":
            gate = next(views).obs.conf >= problem.weights.conf_threshold
            keep.append(np.repeat(gate.ravel(), 2))
        elif kind == "Silhouette":
            real = np.repeat(~term.pad, 2, axis=1)
            keep.append(np.concatenate(
                [real, np.ones((real.shape[0], 2 * term.n), dtype=bool)], axis=1).ravel())
        else:
            keep.append(np.ones(term.rows, dtype=bool))
    return np.concatenate(keep)


def _nearest(a, b):
    """Index into b of the nearest row for every row of a."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _pose_state(problem, x):
    """Natural parameters, FK positions and Jacobian, dtheta/du and, with a
    silhouette term, the outline and per-frame nearest neighbours at x."""
    xt = x.reshape(problem.T, problem.Pf)
    u = xt[:, :problem.D]
    theta = problem.bounds.theta(u)
    frames = SkeletalPose(theta, xt[:, problem.D:problem.D + 3], xt[:, problem.D + 3:])
    _, _, jpos = fk_jacobian(problem.skeleton, frames)
    st = {"frames": frames, "pos": fk_frames(problem.skeleton, frames)[0], "jpos": jpos,
          "dtheta": problem.bounds.dtheta_du(u)}
    sil = _term(problem, "Silhouette")
    if sil is not None:
        outline = silhouette_structure(sil.camera, sil.skeleton, st["pos"][sil.frames],
                                       sil.body, sil.n)
        observed = [sil.obs[k][~sil.pad[k]] for k in range(sil.frames.size)]
        nearest = [None if outline.lost[k] else (_nearest(obs, outline.points[k]),
                                                 _nearest(outline.points[k], obs))
                   for k, obs in enumerate(observed)]
        st.update(sil=sil, outline=outline, observed=observed, nearest=nearest)
    return st


def _reprojection_ragged(problem, pos, gate):
    out = []
    for v, view in enumerate(problem.views):
        for t in range(problem.T):
            incl = gate[v][t]
            if incl.size == 0:
                continue
            scale = np.sqrt(problem.weights.lambda_2d * view.weight / (problem.T * incl.size))
            uv, _, valid = project_points(view.camera, pos[t][incl])
            diff = (uv - view.obs.keypoints[t][incl]) * scale
            diff[~valid] = 0.0
            out.append(diff.ravel())
    return out


def pose_residuals_ragged(problem, x):
    """PoseProblem.residuals(x) with the ragged per-frame row layout."""
    st = _pose_state(problem, x)
    w = problem.weights
    out = _reprojection_ragged(problem, st["pos"], ragged_gate(problem))
    frames = st["frames"]
    anchor = _term(problem, "Anchor")
    if anchor is not None:
        d = problem.D
        out.append(np.concatenate([frames.theta - anchor.targets[:, :d],
                                   frames.root_rot - anchor.targets[:, d:]], axis=1).ravel())
    if _term(problem, "Temporal") is not None:
        params = np.concatenate([frames.theta, frames.root_rot, frames.root_trans], axis=1)
        out.append((np.sqrt(w.lambda_t) * np.diff(params, axis=0)).ravel())
    if "sil" in st:
        n = st["sil"].n
        for k, obs in enumerate(st["observed"]):
            if st["outline"].lost[k]:
                out.append(np.full(2 * (obs.shape[0] + n), np.inf))
                continue
            nn_obs, nn_model = st["nearest"][k]
            w_o = np.sqrt(w.lambda_s * 0.5 / (problem.T * obs.shape[0]))
            w_m = np.sqrt(w.lambda_s * 0.5 / (problem.T * n))
            pts = st["outline"].points[k]
            out.append(((pts[nn_obs] - obs) * w_o).ravel())
            out.append(((pts - obs[nn_model]) * w_m).ravel())
    return np.concatenate(out)


def translation_residuals_ragged(problem, x):
    """TranslationProblem.residuals(x) with the ragged per-frame row layout."""
    tr = problem.translations(x)
    out = _reprojection_ragged(problem, problem.base + tr[:, None], ragged_gate(problem))
    if problem.T >= 2:
        out.append((np.sqrt(problem.weights.lambda_t) * np.diff(tr, axis=0)).ravel())
    return np.concatenate(out)


def _chain_u(problem, block, dtheta_t):
    """Convert d/d[theta, rv, tr] columns into d/d[u, rv, tr] columns."""
    block = block.copy()
    block[:, :problem.D] *= dtheta_t
    return block


def pose_jacobian_sparse(problem, x):
    """PoseProblem.jacobian(x) as a scipy.sparse CSR matrix with the ragged
    per-frame row layout."""
    self = problem
    st = _pose_state(problem, x)
    gate = ragged_gate(problem)
    w = self.weights
    builder = _SparseBuilder(int(ragged_rows(problem).sum()), self.T * self.Pf)
    cur = 0
    for v, view in enumerate(self.views):
        for t in range(self.T):
            incl = gate[v][t]
            if incl.size == 0:
                continue
            scale = np.sqrt(w.lambda_2d * view.weight / (self.T * incl.size))
            duv_dw, _, _ = projection_jacobian(view.camera, st["pos"][t][incl])
            block = (scale * (duv_dw @ st["jpos"][t][incl])).reshape(-1, self.Pf)
            builder.add_block(cur, t * self.Pf, _chain_u(self, block, st["dtheta"][t]))
            cur += 2 * incl.size
    if _term(problem, "Anchor") is not None:
        for t in range(self.T):
            block = np.zeros((self.D + 3, self.Pf))
            block[:self.D, :self.D] = np.diag(st["dtheta"][t])
            block[self.D:, self.D:self.D + 3] = np.eye(3)
            builder.add_block(cur, t * self.Pf, block)
            cur += self.D + 3
    if _term(problem, "Temporal") is not None:
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
    if "sil" in st:
        sil = st["sil"]
        if st["outline"].lost.any():
            raise InvalidInputError("silhouette lost at a point needing a jacobian")
        dmodel = sil.point_jacobians(st)
        for k, t in enumerate(sil.frames):
            obs = st["observed"][k]
            nn_obs, _ = st["nearest"][k]
            w_o = np.sqrt(w.lambda_s * 0.5 / (self.T * obs.shape[0]))
            w_m = np.sqrt(w.lambda_s * 0.5 / (self.T * sil.n))
            block = (w_o * dmodel[k][nn_obs]).reshape(-1, self.Pf)
            builder.add_block(cur, t * self.Pf, _chain_u(self, block, st["dtheta"][t]))
            cur += 2 * obs.shape[0]
            block = (w_m * dmodel[k]).reshape(-1, self.Pf)
            builder.add_block(cur, t * self.Pf, _chain_u(self, block, st["dtheta"][t]))
            cur += 2 * sil.n
    return builder.build()


def translation_jacobian_sparse(problem, x):
    """TranslationProblem.jacobian(x) as a scipy.sparse CSR matrix with the
    ragged per-frame row layout."""
    self = problem
    tr = self.translations(x)
    gate = ragged_gate(problem)[0]
    builder = _SparseBuilder(int(ragged_rows(problem).sum()), 3 * self.T)
    cur = 0
    for t in range(self.T):
        incl = gate[t]
        if incl.size == 0:
            continue
        scale = np.sqrt(self.weights.lambda_2d / (self.T * incl.size))
        duv, _, _ = projection_jacobian(self.views[0].camera, self.base[t][incl] + tr[t])
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


def sigmoid_masked(x):
    """The logistic function as a boolean-mask split on the sign of x."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class GRUStepwise(GRU):
    """GRU whose forward and backward do all their work one time step at a
    time: the input projection inside the loop, the weight gradients summed
    step by step."""

    def forward(self, x, train=False):
        b, t, _ = x.shape
        h = np.zeros((b, self.hidden))
        steps = []
        out = np.empty((b, t, self.hidden))
        wi, bi = self.params["w_input"], self.params["b_input"]
        wh, bh = self.params["w_hidden"], self.params["b_hidden"]
        hs = self.hidden
        for k in range(t):
            xk = x[:, k, :]
            gi = xk @ wi.T + bi
            gh = h @ wh.T + bh
            r = sigmoid_masked(gi[:, :hs] + gh[:, :hs])
            z = sigmoid_masked(gi[:, hs:2 * hs] + gh[:, hs:2 * hs])
            n = np.tanh(gi[:, 2 * hs:] + r * gh[:, 2 * hs:])
            h_new = (1.0 - z) * n + z * h
            steps.append((xk, h, r, z, n, gh[:, 2 * hs:]))
            h = h_new
            out[:, k, :] = h
        self._cache = steps
        return out

    def backward(self, dout):
        steps = self._cache
        b = dout.shape[0]
        hs = self.hidden
        wi, wh = self.params["w_input"], self.params["w_hidden"]
        dh = np.zeros((b, hs))
        dx = np.empty((b, len(steps), self.in_dim))
        for k in range(len(steps) - 1, -1, -1):
            xk, h_prev, r, z, n, ghn = steps[k]
            dtotal = dout[:, k, :] + dh
            dz = dtotal * (h_prev - n)
            dn = dtotal * (1.0 - z)
            dh = dtotal * z
            dgn = dn * (1.0 - n * n)
            dr = dgn * ghn
            da_r = dr * r * (1.0 - r)
            da_z = dz * z * (1.0 - z)
            dgi = np.concatenate([da_r, da_z, dgn], axis=1)
            dgh = np.concatenate([da_r, da_z, dgn * r], axis=1)
            self.grads["w_input"] += dgi.T @ xk
            self.grads["b_input"] += dgi.sum(axis=0)
            self.grads["w_hidden"] += dgh.T @ h_prev
            self.grads["b_hidden"] += dgh.sum(axis=0)
            dx[:, k, :] = dgi @ wi
            dh += dgh @ wh
        return dx


class AdamDicts:
    """Adam with per-layer moment dicts and a fresh temporary per operation."""

    def __init__(self, layers, lr, beta1, beta2, eps):
        self.layers = layers
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moment1 = [{k: np.zeros_like(v) for k, v in layer.params.items()}
                        for _, layer in layers]
        self.moment2 = [{k: np.zeros_like(v) for k, v in layer.params.items()}
                        for _, layer in layers]

    def step(self, lr_scale=1.0):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        lr = self.lr * lr_scale
        for (_, layer), m1, m2 in zip(self.layers, self.moment1, self.moment2):
            for k, p in layer.params.items():
                g = layer.grads[k]
                m1[k] *= b1
                m1[k] += (1.0 - b1) * g
                m2[k] *= b2
                m2[k] += (1.0 - b2) * g * g
                p -= lr * (m1[k] / correction1) / (np.sqrt(m2[k] / correction2) + self.eps)


def _layer_state(layer):
    state = {name: layer.params[name].ravel().tolist() for name in sorted(layer.params)}
    for name in sorted(layer.buffers):
        state[name] = layer.buffers[name].ravel().tolist()
    return state


def save_checkpoint_v1(path, gen, disc):
    """The hybridnet/1 writer: every layer array as a list of JSON floats."""
    doc = {
        "format": "hybridnet/1",
        "n_joints": gen.n_joints,
        "conv_width": gen.conv_width,
        "local_width": gen.local_width,
        "hidden": gen.hidden,
        "kernel": gen.kernel,
        "dropout": gen.dropout_rate,
        "disc_hidden": disc.hidden,
        "generator": {name: _layer_state(layer) for name, layer in gen.layers()},
        "discriminator": {name: _layer_state(layer) for name, layer in disc.layers()},
    }
    save_document(path, doc)
