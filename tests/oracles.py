"""Reference implementations used only by tests.

Most of these deliberately avoid the package's own math: rotations go
through scipy.spatial.transform, forward kinematics through explicit 4x4
homogeneous matrices, projections through a 3x4 matrix, distances through
brute-force loops.

The per-frame forward kinematics and the Levenberg-Marquardt loop at the end
are different: they are the earlier, unoptimised versions of package code,
kept as they were so the optimised versions can be required to reproduce
them bit for bit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial.transform import Rotation

from mocorr import quat
from mocorr.errors import NumericFailureError
from mocorr.optim.lm import LMOptions, LMResult, numeric_jacobian
from mocorr.skeleton import AXES


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
    d_rot = quat.rotvec_matrix_jacobian(pose.root_rot)
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
            omega = parent_rot @ before @ quat.axis_unit(ax)
            jac[moved, :, col + m] = np.cross(omega, lever)
            before = before @ _axis_rotation_per_frame(ax, angles[m])
    return pos, rot, jac


# --- Levenberg-Marquardt rebuilding J^T J on every damping retry -------------

_DAMPING_CEILING = 1e16


def _solve_normal_equations_rebuilt(jac, grad, damping):
    n = grad.size
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
    """Minimize sum(residuals(x)**2) from x0; returns an LMResult."""
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
        grad = jac.T @ r
        grad = np.asarray(grad).ravel()
        if not np.all(np.isfinite(grad)):
            raise NumericFailureError("gradient is not finite")
        if np.max(np.abs(grad), initial=0.0) <= opts.gradient_tol:
            status = "gradient"
            break

        accepted = False
        while damping < _DAMPING_CEILING:
            step = _solve_normal_equations_rebuilt(jac, grad, damping)
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
