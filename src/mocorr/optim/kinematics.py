"""Derivatives of forward kinematics and projection.

Pose parameters are stacked as [theta (total_dof), root_rot (3),
root_trans (3)], the layout every residual builder in this package uses.
"""

import numpy as np

from .. import quat
from ..camera import Z_EPS
from ..skeleton import as_sequence


def fk_jacobian(skeleton, pose, fk):
    """d(joint positions)/d(pose params) from the pose's forward kinematics.

    `fk` is what `fk_frames(skeleton, pose)` returned for this pose: the
    derivative reuses its world positions and rotations and the angles'
    running products, so it builds no rotation again. Returns
    (n, 3, total_dof+6) for one pose, and (T, n, 3, total_dof+6) for a
    sequence. An angle moves a joint by omega x (joint - pivot) where omega
    is the rotation axis in world coordinates; the root axis-angle
    derivative uses the closed-form rotation-matrix differential. Every
    angle's world axis comes from the running products in one matmul over
    all angles and frames, and only the pairs of an angle and a joint it
    moves get a cross product; the other angle entries stay zero.
    """
    seq = as_sequence(pose)
    pos, rot = fk if seq is pose else (fk[0][None], fk[1][None])
    products = fk.products
    n_frames, n = pos.shape[:2]
    d = skeleton.total_dof
    jac = np.zeros((n_frames, n, 3, d + 6))

    jac[..., d + 3:] = np.eye(3)

    # root rotation: pos_i = t + R(v) s_i with s_i fixed in the body frame
    root = rot[:, 0]
    body = (pos - seq.root_trans[:, None]) @ root
    d_rot = quat.rotvec_matrix_jacobian(seq.root_rot, root)
    jac[..., d:d + 3] = (body[:, None] @ d_rot.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)

    # world axis of every angle: column `axis` of parent @ (running product
    # before the angle), one matmul over all angle slots; joint axis first,
    # as the running products have their slot axis first
    pos_j, rot_j = pos.swapaxes(0, 1), rot.swapaxes(0, 1)
    turned = rot_j[skeleton.slot_parent] @ products[skeleton.before_slot]
    col, moved = skeleton.dof_pairs
    omega = turned[skeleton.rank_pos[col], :, :, skeleton.dof_axis[col]]
    lever = pos_j[moved] - pos_j[skeleton.dof_joint[col]]
    jac[:, moved, :, col] = quat.cross(omega, lever)
    return jac if seq is pose else jac[0]


def projection_jacobian(camera, world_points):
    """d(uv)/d(world) (..., 2, 3), camera-space z (...) and visibility (...)
    for world points (..., 3); a point at or behind the camera gets zeros.
    A `camera.CameraStack` differentiates (T, n, 3) points through all its
    views at once: (V, T, n, 2, 3), (V, T, n) and (V, T, n)."""
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
