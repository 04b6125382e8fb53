"""Root placement for the network's poses and the refinement of the result.

`place_translations` holds every pose at the network output and solves all
root translations jointly under the reprojection and smoothness terms; the
hybrid inference step uses it to put the corrected poses back on the
keypoints. `refine` then starts from that hybrid motion and optimizes the
full per-frame pose (bounded joint angles, root rotation, root translation)
under the complete energy, anchoring E_3D to the motion's own poses, in one
LM solve.
"""

import numpy as np

from ..camera import default_body
from ..errors import InvalidInputError
from ..motion import build_motion_map
from ..skeleton import SkeletalPose
from .energies import EnergyWeights, net_pose_targets
from .lm import LMOptions, levenberg_marquardt
from .problem import PoseProblem, TranslationProblem, View


def place_translations(net_quats, obs, camera, skeleton, init_translations,
                       weights=None, options=None):
    """Root translations for a quaternion-only motion, solved from
    `init_translations` with every pose held at the network output."""
    weights = EnergyWeights() if weights is None else weights
    options = LMOptions() if options is None else options
    theta, root_rot = net_pose_targets(skeleton, net_quats)
    problem = TranslationProblem(skeleton, camera, obs, weights, theta, root_rot)
    x0 = problem.pack(np.asarray(init_translations, dtype=float))
    result = levenberg_marquardt(problem.residuals, x0, problem.jacobian, options)
    return problem.translations(result.x)


def refine(motion, obs, camera, skeleton, weights=None, options=None, n_sil=96):
    """Refine a motion map; returns a new MotionMap with the motion's confidences.

    The silhouette term joins when the observations carry outline points and
    weights.lambda_s > 0.
    """
    if obs.n_frames != motion.n_frames:
        raise InvalidInputError("the motion and the observations must cover the same frames")
    if motion.n_joints != skeleton.n_joints:
        raise InvalidInputError("the motion's joint count does not match the skeleton")
    weights = EnergyWeights() if weights is None else weights
    options = LMOptions() if options is None else options

    anchor = net_pose_targets(skeleton, motion.quats)
    problem = PoseProblem(skeleton, [View(camera, obs)], weights, anchor=anchor,
                          body=default_body(skeleton), n_sil=n_sil)
    result = levenberg_marquardt(problem.residuals, problem.pack(*anchor, motion.translations),
                                 problem.jacobian, options)
    return build_motion_map(SkeletalPose(*problem.unpack(result.x)), skeleton,
                            motion.conf.copy())
