"""Derivatives of forward kinematics and projection.

Pose parameters are stacked as [theta (total_dof), root_rot (3),
root_trans (3)], the layout every residual builder in this package uses.
"""

import numpy as np

from .. import quat
from ..camera import Z_EPS
from ..skeleton import AXES, as_sequence, fk_frames


def fk_jacobian(skeleton, pose):
    """Joint positions, world rotations, and d(positions)/d(pose params).

    Returns (pos (n,3), rot (n,3,3), jac (n,3,total_dof+6)) for one pose, and
    the same with a leading frame axis for a sequence: (T,n,3), (T,n,3,3),
    (T,n,3,total_dof+6). An angle moves a joint by omega x (joint - pivot)
    where omega is the rotation axis in world coordinates; the root
    axis-angle derivative uses the closed-form rotation-matrix differential.
    """
    seq = as_sequence(pose)
    pos, rot = fk_frames(skeleton, seq)
    n_frames, n = pos.shape[:2]
    d = skeleton.total_dof
    jac = np.zeros((n_frames, n, 3, d + 6))

    jac[..., d + 3:] = np.eye(3)

    # root rotation: pos_i = t + R(v) s_i with s_i fixed in the body frame
    body = (pos - seq.root_trans[:, None]) @ rot[:, 0]
    d_rot = quat.rotvec_matrix_jacobian(seq.root_rot)
    for k in range(3):
        jac[..., d + k] = body @ d_rot[:, k].transpose(0, 2, 1)

    # world axis of every angle: column `axis` of parent @ (local rotation so far)
    omega = np.empty((n_frames, d, 3))
    for j, joint in enumerate(skeleton.joints):
        if not joint.dof:
            continue
        before = np.eye(3)
        col = int(skeleton.dof_start[j])
        for m, ax in enumerate(joint.dof):
            omega[:, col + m] = (rot[:, joint.parent] @ before)[:, :, AXES.index(ax)]
            before = before @ quat.axis_rotation(ax, seq.theta[:, col + m])
    lever = pos[:, None, :, :] - pos[:, skeleton.dof_joint, None, :]
    moved = np.cross(omega[:, :, None, :], lever)
    moved[:, ~skeleton.dof_descendants] = 0.0
    jac[..., :d] = moved.transpose(0, 2, 3, 1)
    if seq is pose:
        return pos, rot, jac
    return pos[0], rot[0], jac[0]


def projection_jacobian(camera, world_points):
    """d(uv)/d(world) (..., 2, 3), camera-space z (...) and visibility (...)
    for world points (..., 3); a point at or behind the camera gets zeros."""
    # one matrix-vector product per point, so a stack of points gets bit for
    # bit the values each point would get on its own
    p = (camera.rotation @ np.asarray(world_points, dtype=float)[..., None])[..., 0]
    p = p + camera.translation
    z = p[..., 2]
    visible = z > Z_EPS
    z_safe = np.where(visible, z, 1.0)
    duv_dcam = np.zeros(p.shape[:-1] + (2, 3))
    duv_dcam[..., 0, 0] = camera.fx / z_safe
    duv_dcam[..., 0, 2] = -camera.fx * p[..., 0] / (z_safe * z_safe)
    duv_dcam[..., 1, 1] = camera.fy / z_safe
    duv_dcam[..., 1, 2] = -camera.fy * p[..., 1] / (z_safe * z_safe)
    duv = duv_dcam @ camera.rotation
    duv[~visible] = 0.0
    return duv, z, visible
