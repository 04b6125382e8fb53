"""Energy weights and targets for motion refinement.

E_total = E_3D + lambda_2d * E_2D + lambda_t * E_T + lambda_s * E_S, each
term a residual term of `problem.py`. E_3D and E_T measure distances in
stacked pose-parameter space (angles in radians, root rotation as
axis-angle, translation in meters, mixed as-is); E_3D pulls towards the
network's poses M(Q_hat_t, t_t), which `net_pose_targets` decodes.
`energy_2d` evaluates the E_2D term alone as a scalar: the confidence-gated
mean reprojection error.
"""

from dataclasses import dataclass

import numpy as np

from .. import quat
from ..errors import InvalidInputError
from ..skeleton import QuatPose, as_sequence, fk_frames, quat_to_pose
from .problem import Reprojection, View


@dataclass
class EnergyWeights:
    lambda_2d: float = 1.0
    lambda_t: float = 20.0
    lambda_s: float = 0.3
    conf_threshold: float = 0.8

    def __post_init__(self):
        for name in ("lambda_2d", "lambda_t", "lambda_s"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be >= 0")
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise InvalidInputError("conf_threshold must lie in [0, 1]")


def net_pose_targets(skeleton, net_quats):
    """Angles and root rotations of M(Q_hat_t, t_t) for every frame.

    Returns (theta (T, total_dof), root_rot (T, 3)); angles come out clamped
    to joint limits, exactly what the mapping to pose space produces. The
    network's quaternions are normalized first; an all-zero one raises
    InvalidInputError.
    """
    net_quats = np.asarray(net_quats, dtype=float)
    q = quat.normalize(net_quats.reshape(net_quats.shape[0], -1, 4))
    pose = quat_to_pose(skeleton, QuatPose(q), np.zeros((q.shape[0], 3)))
    return pose.theta, pose.root_rot


def energy_2d(seq, obs, camera, skeleton, threshold=0.8):
    """Mean over frames of the mean squared reprojection error of confident joints.

    Joints with confidence below threshold are ignored; frames where no
    joint passes (or none is visible) contribute zero. This is the cost of
    the reprojection term at unit weight.
    """
    seq = as_sequence(seq)
    if seq.root_trans.shape[0] != obs.n_frames:
        raise InvalidInputError("seq and obs must have equal length")
    term = Reprojection(View(camera, obs), EnergyWeights(conf_threshold=threshold))
    r = term.residuals({"pos": fk_frames(skeleton, seq)[0]})
    return float(r @ r)
