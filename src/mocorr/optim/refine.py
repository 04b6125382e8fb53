"""Two-stage motion refinement against the network's corrected quaternions.

Stage one holds the pose angles at the network output and solves all root
translations jointly under the reprojection and smoothness terms. Stage two
then optimizes the full per-frame pose (bounded joint angles, root rotation,
root translation) under the complete energy. The pair of stages can repeat
via flipflop_rounds.
"""

import numpy as np

from ..errors import InvalidInputError
from ..motion import build_motion_map
from ..skeleton import SkeletalPose
from .energies import EnergyWeights, net_pose_targets
from .lm import LMOptions, levenberg_marquardt
from .problem import PoseProblem, TranslationProblem, View


def _solve_translations(skeleton, camera, obs, weights, options, theta, root_rot, trans0):
    problem = TranslationProblem(skeleton, camera, obs, weights, theta, root_rot)
    result = levenberg_marquardt(problem.residuals, problem.pack(trans0),
                                 problem.jacobian, options)
    return problem.translations(result.x)


def place_translations(net_quats, obs, camera, skeleton, init_translations,
                       weights=None, options=None):
    """Root placement for a quaternion-only motion.

    Holds every pose at the network output and solves all root translations
    under the reprojection and smoothness terms; this is exactly the first
    flip-flop stage.
    """
    weights = EnergyWeights() if weights is None else weights
    options = LMOptions() if options is None else options
    theta, root_rot = net_pose_targets(skeleton, net_quats)
    return _solve_translations(skeleton, camera, obs, weights, options, theta, root_rot,
                               np.asarray(init_translations, dtype=float))


def refine(init, net_quats, obs, camera, skeleton, body=None, weights=None,
           options=None, flipflop_rounds=1, n_sil=96):
    """Refine a motion map; returns a new MotionMap with init's confidences.

    The silhouette term participates only when `body` is given, the
    observations carry silhouette points, and weights.lambda_s > 0.
    """
    net_quats = np.asarray(net_quats, dtype=float)
    n_frames = init.n_frames
    if n_frames < 2:
        raise InvalidInputError("refinement needs at least two frames")
    if obs.n_frames != n_frames or net_quats.shape[0] != n_frames:
        raise InvalidInputError("init, network output and observations must align")
    if net_quats.shape[1] != 4 * skeleton.n_joints:
        raise InvalidInputError("network output width does not match the skeleton")
    if flipflop_rounds < 1:
        raise InvalidInputError("flipflop_rounds must be at least 1")
    weights = EnergyWeights() if weights is None else weights
    options = LMOptions() if options is None else options

    anchor = net_pose_targets(skeleton, net_quats)
    theta, root_rot = anchor
    trans = init.translations.copy()
    stage2 = PoseProblem(skeleton, [View(camera, obs)], weights, anchor=anchor,
                         body=body, n_sil=n_sil)
    for _ in range(flipflop_rounds):
        trans = _solve_translations(skeleton, camera, obs, weights, options,
                                    theta, root_rot, trans)
        x0 = stage2.pack(theta, root_rot, trans)
        result = levenberg_marquardt(stage2.residuals, x0, stage2.jacobian, options)
        theta, root_rot, trans = stage2.unpack(result.x)
    return build_motion_map(SkeletalPose(theta, root_rot, trans), skeleton, init.conf.copy())
