"""World-frame accuracy metrics between motion maps.

All positions come from forward kinematics of the stored poses; no alignment
(root centering, Procrustes) is applied before comparison.
"""

import numpy as np

from .errors import InvalidInputError
from .motion import extract_poses
from .skeleton import fk_frames, forward_kinematics, identity_pose


def joint_positions(motion, skeleton):
    """FK positions for every frame, shaped (T, n_joints, 3), in meters."""
    return fk_frames(skeleton, extract_poses(motion, skeleton))[0]


def _positions(motion, skeleton):
    """A motion's FK positions; an array is taken as positions already
    computed by `joint_positions`."""
    if isinstance(motion, np.ndarray):
        return motion
    return joint_positions(motion, skeleton)


def _paired_errors(pred, gt, skeleton):
    pp = _positions(pred, skeleton)
    pg = _positions(gt, skeleton)
    if pp.shape != pg.shape:
        raise InvalidInputError("motions must share frame and joint counts")
    return np.linalg.norm(pp - pg, axis=2), pg


def mpjpe(pred, gt, skeleton):
    """Mean per-joint position error in millimeters.

    `pred` and `gt`, here and in `frame_mpjpe` and `pck`, are motion maps or
    their `joint_positions`; passing positions saves repeating the FK when
    one motion is scored several times.
    """
    errors, _ = _paired_errors(pred, gt, skeleton)
    return float(errors.mean() * 1000.0)


def frame_mpjpe(pred, gt, skeleton):
    """Per-frame mean joint error in millimeters, shaped (T,)."""
    errors, _ = _paired_errors(pred, gt, skeleton)
    return errors.mean(axis=1) * 1000.0


def _neck_joint(skeleton):
    """Torso joint farthest from the root in the rest pose."""
    rest = forward_kinematics(skeleton, identity_pose(skeleton))
    torso = [j for j in skeleton.region_joints("torso") if j != 0]
    if not torso:
        raise InvalidInputError("skeleton has no torso joint besides the root")
    dists = [np.linalg.norm(rest[j] - rest[0]) for j in torso]
    return torso[int(np.argmax(dists))]


def pck(pred, gt, skeleton, alpha):
    """Percent of joint-frames with error below alpha times the torso length.

    The reference length is the ground-truth pelvis-to-neck distance of each
    frame, where the neck is the torso joint farthest from the root at rest.
    """
    if alpha <= 0.0:
        raise InvalidInputError("alpha must be positive")
    errors, pg = _paired_errors(pred, gt, skeleton)
    neck = _neck_joint(skeleton)
    torso_len = np.linalg.norm(pg[:, neck, :] - pg[:, 0, :], axis=1)
    hits = errors < alpha * torso_len[:, None]
    return float(hits.mean() * 100.0)
