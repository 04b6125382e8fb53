"""Keypoint-only motion fits used to bootstrap the pipeline.

`initial_fit` solves one camera's sequence under the reprojection and
smoothness terms; `sparse_view_fit` is the same problem with the 2D term
averaged over several synchronized views. Both are deterministic: the only
initialization heuristic is a closed-form depth estimate that matches the
torso's rest-pose extent to the observed keypoint spread.
"""

import numpy as np

from ..errors import InvalidInputError, UnfittableError
from ..motion import MotionMap, build_motion_map
from .energies import EnergyWeights
from .lm import LMOptions, levenberg_marquardt
from .problem import PoseProblem, View
from ..skeleton import forward_kinematics, identity_pose


def _candidate_sets(conf, torso, threshold):
    gate = [j for j in torso if conf[j] >= threshold]
    soft = [j for j in torso if conf[j] > 0.05]
    anyj = [j for j in range(conf.size) if conf[j] > 0.05]
    return (gate, soft, anyj)


def _root_depth_init(skeleton, camera, frames, threshold):
    """Per-frame root translation from torso keypoint spread.

    For joints i, j at rest-pose distance d_ij seen l_ij pixels apart at a
    shared depth z, pinhole projection gives l_ij ~ f * d_ij / z. The least
    squares depth over all pairs is z = f * sum(d_ij l_ij) / sum(l_ij^2);
    the root is then placed so the rest-pose torso centroid back-projects
    onto the observed centroid at that depth.
    """
    rest = forward_kinematics(skeleton, identity_pose(skeleton))
    torso = list(skeleton.region_joints("torso"))
    focal = 0.5 * (camera.fx + camera.fy)
    out = np.zeros((len(frames), 3))
    prev_z = 2.0
    for t, frame in enumerate(frames):
        z = None
        centroid_px = None
        offset = np.zeros(3)
        for joints in _candidate_sets(frame.conf, torso, threshold):
            if len(joints) < 2:
                continue
            kp = frame.keypoints[joints]
            num = 0.0
            den = 0.0
            for a in range(len(joints)):
                for b in range(a + 1, len(joints)):
                    l_px = np.linalg.norm(kp[a] - kp[b])
                    d_rest = np.linalg.norm(rest[joints[a]] - rest[joints[b]])
                    num += d_rest * l_px
                    den += l_px * l_px
            if den > 1e-12 and num > 0.0:
                z = focal * num / den
                centroid_px = kp.mean(axis=0)
                offset = rest[joints].mean(axis=0)
                break
        if z is None:
            z = prev_z
            centroid_px = np.array([camera.cx, camera.cy])
        prev_z = z
        ray = np.array([(centroid_px[0] - camera.cx) / camera.fx,
                        (centroid_px[1] - camera.cy) / camera.fy,
                        1.0])
        world = camera.rotation.T @ (z * ray - camera.translation)
        out[t] = world - offset
    return out


def sparse_view_fit(multi_obs, cameras, skeleton, options=None, weights=None):
    """Fit a motion to keypoints from V synchronized views.

    Solves E_2D (averaged over views) + lambda_T * E_T over bounded joint
    angles, root rotation, and root translation for every frame jointly.
    A single view reduces exactly to the monocular fit.
    """
    if len(multi_obs) != len(cameras) or not cameras:
        raise InvalidInputError("need one observation sequence per camera")
    n_frames = len(multi_obs[0])
    if any(len(frames) != n_frames for frames in multi_obs):
        raise InvalidInputError("all views must cover the same frames")
    if n_frames < 2:
        raise InvalidInputError("need at least two frames to fit")
    weights = EnergyWeights() if weights is None else weights
    options = LMOptions() if options is None else options
    n_views = len(cameras)
    views = [View(cam, frames, 1.0 / n_views)
             for cam, frames in zip(cameras, multi_obs)]
    if not any(np.any(f.conf >= weights.conf_threshold)
               for frames in multi_obs for f in frames):
        raise UnfittableError(
            "no keypoint clears the confidence gate in any frame of any view")
    problem = PoseProblem(skeleton, views, weights, temporal=True)

    mid = 0.5 * (skeleton.theta_min + skeleton.theta_max)
    theta0 = np.tile(mid, (n_frames, 1))
    rot0 = np.zeros((n_frames, 3))
    trans0 = _root_depth_init(skeleton, cameras[0], multi_obs[0], weights.conf_threshold)
    x0 = problem.pack(theta0, rot0, trans0)
    result = levenberg_marquardt(problem.residuals, x0, problem.jacobian, options)
    poses = problem.poses(result.x)
    conf = np.mean([[f.conf for f in frames] for frames in multi_obs], axis=0)
    return build_motion_map(poses, skeleton, conf)


def initial_fit(obs, camera, skeleton, options=None, weights=None) -> MotionMap:
    """Monocular keypoint fit: the single-view case of sparse_view_fit."""
    return sparse_view_fit([obs], [camera], skeleton, options, weights)
