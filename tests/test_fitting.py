"""Monocular and sparse-view keypoint fitting."""

import numpy as np
import pytest

from mocorr.errors import InvalidInputError, UnfittableError
from mocorr.metrics import mpjpe
from mocorr.motion import extract_poses
from mocorr.optim.energies import EnergyWeights
from mocorr.motion import Observations
from mocorr.optim.fitting import _root_depth_init, initial_fit, sparse_view_fit
from mocorr.optim.lm import LMOptions
from mocorr.skeleton import forward_kinematics, identity_pose
from mocorr.synth import SceneConfig, synth_generate

from conftest import frame_rows, frames_of, take_frames
from oracles import energy_2d_per_frame, project_matrix

FIT_OPTIONS = LMOptions(max_iterations=60)


def scene_cfg(**kw):
    base = dict(T=8, V=2, noise_px=0.0, occlusion=0.0, seed=3, sil_points=16,
                amplitude=0.25)
    base.update(kw)
    return SceneConfig(**base)


def test_single_view_equals_initial_fit():
    scene = synth_generate(scene_cfg(noise_px=1.5, seed=9))
    mono = initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                       FIT_OPTIONS)
    sparse = sparse_view_fit([scene.mono_obs], [scene.mono_camera],
                             scene.skeleton, FIT_OPTIONS)
    assert np.array_equal(mono.quats, sparse.quats)
    assert np.array_equal(mono.translations, sparse.translations)
    assert np.array_equal(mono.conf, sparse.conf)


def test_fit_is_deterministic():
    scene = synth_generate(scene_cfg(noise_px=2.0, seed=10))
    a = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras, scene.skeleton,
                        FIT_OPTIONS)
    b = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras, scene.skeleton,
                        FIT_OPTIONS)
    assert np.array_equal(a.quats, b.quats)
    assert np.array_equal(a.translations, b.translations)


def test_conf_passthrough_mono_and_view_mean():
    scene = synth_generate(scene_cfg(noise_px=2.0, occlusion=0.15, seed=11))
    mono = initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                       FIT_OPTIONS)
    obs_conf = scene.mono_obs.conf
    assert np.array_equal(mono.conf, obs_conf)

    sparse = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras,
                             scene.skeleton, FIT_OPTIONS)
    mean_conf = np.mean(
        [[f.conf for f in frame_rows(frames)] for frames in scene.sparse_obs], axis=0)
    assert np.allclose(sparse.conf, mean_conf, atol=1e-15)


def test_noiseless_multiview_fit_recovers_motion():
    scene = synth_generate(scene_cfg(V=4, T=6))
    fitted = sparse_view_fit(scene.sparse_obs, scene.sparse_cameras,
                             scene.skeleton, LMOptions(max_iterations=120))
    err = mpjpe(fitted, scene.gt_motion, scene.skeleton)
    assert err < 20.0  # millimeters


def test_noiseless_mono_fit_reprojects_tightly():
    scene = synth_generate(scene_cfg(T=6, amplitude=0.15))
    fitted = initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                         LMOptions(max_iterations=120))
    poses = frames_of(extract_poses(fitted, scene.skeleton))
    worst = 0.0
    for pose, frame in zip(poses, frame_rows(scene.mono_obs)):
        uv, _ = project_matrix(scene.mono_camera,
                               forward_kinematics(scene.skeleton, pose))
        worst = max(worst, float(np.max(
            np.linalg.norm(uv - frame.keypoints, axis=1))))
    assert worst < 0.5  # pixels


def test_more_views_never_increase_fitted_e2d():
    # Static noiseless scene: a solution consistent with every view exists,
    # so adding views must not push the fitted reprojection error up.
    scene = synth_generate(scene_cfg(V=4, T=6, amplitude=0.0))
    per_view = []
    for v in (2, 3, 4):
        fitted = sparse_view_fit(scene.sparse_obs[:v], scene.sparse_cameras[:v],
                                 scene.skeleton, LMOptions(max_iterations=120))
        poses = frames_of(extract_poses(fitted, scene.skeleton))
        e2d = np.mean([
            energy_2d_per_frame(poses, frames, camera, scene.skeleton)
            for frames, camera in zip(scene.sparse_obs[:v],
                                      scene.sparse_cameras[:v])
        ])
        per_view.append(e2d)
    assert per_view[1] <= per_view[0] + 1e-8
    assert per_view[2] <= per_view[1] + 1e-8


def test_unfittable_when_everything_gated():
    scene = synth_generate(scene_cfg(noise_px=1.0, seed=12))
    for frame in frame_rows(scene.mono_obs):
        frame.conf[:] = 0.0
    with pytest.raises(UnfittableError):
        initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                    FIT_OPTIONS)


def test_fit_input_validation():
    scene = synth_generate(scene_cfg())
    with pytest.raises(InvalidInputError):  # views/cameras mismatch
        sparse_view_fit(scene.sparse_obs, scene.sparse_cameras[:1],
                        scene.skeleton)
    with pytest.raises(InvalidInputError):  # unequal frame counts
        sparse_view_fit([scene.sparse_obs[0], take_frames(scene.sparse_obs[1], slice(4))],
                        scene.sparse_cameras, scene.skeleton)
    with pytest.raises(InvalidInputError):  # too short
        sparse_view_fit([take_frames(scene.sparse_obs[0], slice(1)),
                         take_frames(scene.sparse_obs[1], slice(1))],
                        scene.sparse_cameras, scene.skeleton)
    with pytest.raises(InvalidInputError):  # no cameras at all
        sparse_view_fit([], [], scene.skeleton)


def test_root_depth_heuristic_in_range():
    scene = synth_generate(scene_cfg(T=4, amplitude=0.1))
    fitted = initial_fit(scene.mono_obs, scene.mono_camera, scene.skeleton,
                         LMOptions(max_iterations=40))
    gt_depth = scene.gt_motion.translations[:, 2]
    fit_depth = fitted.translations[:, 2]
    # Monocular depth is the weak direction; it should still land in the
    # right neighbourhood rather than collapse to the camera.
    assert np.all(np.abs(fit_depth - gt_depth) < 0.5)


def test_root_depth_without_usable_keypoints():
    """A frame with no keypoint above 0.05 confidence puts the root on the
    principal ray: at the previous frame's depth, or 2 m on the first frame."""
    scene = synth_generate(scene_cfg(T=3))
    camera, skeleton = scene.mono_camera, scene.skeleton
    conf = np.zeros((3, skeleton.n_joints))
    conf[1] = 1.0  # only the middle frame is seen
    obs = Observations(scene.mono_obs.keypoints, conf)
    roots = _root_depth_init(skeleton, camera, obs, 0.8)

    in_camera = roots @ camera.rotation.T + camera.translation
    np.testing.assert_allclose(in_camera[[0, 2], :2], 0.0, atol=1e-12)
    assert in_camera[0, 2] == pytest.approx(2.0, rel=1e-12)
    # frame 1 back-projects the rest-pose torso centroid at its depth
    rest = forward_kinematics(skeleton, identity_pose(skeleton))
    torso = list(skeleton.region_joints("torso"))
    centroid = camera.rotation @ (roots[1] + rest[torso].mean(axis=0)) + camera.translation
    assert in_camera[2, 2] == pytest.approx(centroid[2], rel=1e-12)
    assert centroid[2] != pytest.approx(2.0, abs=0.05)
