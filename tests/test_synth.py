"""Synthetic scene generator: determinism, noise model, ground-truth structure."""

import numpy as np
import pytest

from mocorr.camera import default_body, project
from mocorr.errors import InvalidInputError
from mocorr.motion import extract_poses
from mocorr.skeleton import forward_kinematics
from mocorr.synth import (CAMERA_HEIGHT, CX, CY, RING_RADIUS, TARGET, SceneConfig,
                          synth_generate)

from conftest import frame_rows, frames_of
from oracles import project_matrix, silhouette_points


def small_cfg(**kw):
    base = dict(T=20, V=2, noise_px=2.0, occlusion=0.1, seed=5, sil_points=16)
    base.update(kw)
    return SceneConfig(**base)


def test_same_seed_bitwise_identical():
    a = synth_generate(small_cfg())
    b = synth_generate(small_cfg())
    assert np.array_equal(a.gt_motion.quats, b.gt_motion.quats)
    assert np.array_equal(a.gt_motion.translations, b.gt_motion.translations)
    assert np.array_equal(a.marker_ref.quats, b.marker_ref.quats)
    for fa, fb in zip(frame_rows(a.mono_obs), frame_rows(b.mono_obs)):
        assert np.array_equal(fa.keypoints, fb.keypoints)
        assert np.array_equal(fa.conf, fb.conf)
        assert np.array_equal(fa.silhouette, fb.silhouette)
    for va, vb in zip(a.sparse_obs, b.sparse_obs):
        for fa, fb in zip(frame_rows(va), frame_rows(vb)):
            assert np.array_equal(fa.keypoints, fb.keypoints)
            assert np.array_equal(fa.conf, fb.conf)


def test_different_seed_differs():
    a = synth_generate(small_cfg())
    b = synth_generate(small_cfg(seed=6))
    assert not np.array_equal(a.gt_motion.quats, b.gt_motion.quats)


def test_noiseless_observations_are_exact_projections():
    scene = synth_generate(small_cfg(noise_px=0.0, occlusion=0.0))
    poses = frames_of(extract_poses(scene.gt_motion, scene.skeleton))
    cameras = [scene.mono_camera] + scene.sparse_cameras
    obs_sets = [scene.mono_obs] + scene.sparse_obs
    for camera, frames in zip(cameras, obs_sets):
        for pose, frame in zip(poses, frame_rows(frames)):
            ref_uv, ref_z = project_matrix(camera,
                                           forward_kinematics(scene.skeleton, pose))
            assert np.all(ref_z > 0)
            assert np.max(np.abs(frame.keypoints - ref_uv)) < 1e-9
            assert np.all(frame.conf == 1.0)


def test_noiseless_silhouettes_are_exact():
    scene = synth_generate(small_cfg(noise_px=0.0, occlusion=0.0))
    body = default_body(scene.skeleton)
    poses = frames_of(extract_poses(scene.gt_motion, scene.skeleton))
    for pose, frame in zip(poses, frame_rows(scene.mono_obs)):
        ref = silhouette_points(scene.mono_camera, scene.skeleton, pose, body,
                                16)
        assert np.max(np.abs(frame.silhouette - ref)) < 1e-9
    for view in scene.sparse_obs:
        assert all(frame.silhouette.shape == (0, 2) for frame in frame_rows(view))


def test_occlusion_rate_binomial():
    # With zero pixel noise, non-occluded confidences are exactly 1, so the
    # occluded joint-frames are exactly those with conf < 1 (occ conf <= 0.3).
    cfg = SceneConfig(T=100, V=2, noise_px=0.0, occlusion=0.2, seed=11)
    scene = synth_generate(cfg)
    conf = scene.mono_obs.conf
    n = conf.size
    occluded = int(np.sum(conf < 1.0))
    expect = 0.2 * n
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert abs(occluded - expect) <= 3.0 * sigma
    assert np.all(conf[conf < 1.0] <= 0.3)


def test_occluded_keypoints_are_displaced():
    cfg = SceneConfig(T=40, V=2, noise_px=4.0, occlusion=0.3, seed=12)
    scene = synth_generate(cfg)
    poses = frames_of(extract_poses(scene.gt_motion, scene.skeleton))
    err_occ, err_vis = [], []
    for pose, frame in zip(poses, frame_rows(scene.mono_obs)):
        ref_uv, _ = project_matrix(scene.mono_camera,
                                   forward_kinematics(scene.skeleton, pose))
        err = np.linalg.norm(frame.keypoints - ref_uv, axis=1)
        occ = frame.conf <= 0.3
        err_occ.extend(err[occ])
        err_vis.extend(err[~occ])
    # Occluded detections carry an extra 3-sigma displacement on average.
    assert np.mean(err_occ) > np.mean(err_vis) + 4.0


def test_gt_motion_respects_joint_limits():
    scene = synth_generate(small_cfg(amplitude=0.95))
    skeleton = scene.skeleton
    for pose in frames_of(extract_poses(scene.gt_motion, skeleton)):
        assert np.all(pose.theta >= skeleton.theta_min - 1e-9)
        assert np.all(pose.theta <= skeleton.theta_max + 1e-9)


def test_gt_quats_unit_and_conf_one():
    scene = synth_generate(small_cfg())
    q = scene.gt_motion.quats.reshape(scene.gt_motion.n_frames, -1, 4)
    assert np.allclose(np.linalg.norm(q, axis=2), 1.0, atol=1e-9)
    assert np.all(scene.gt_motion.conf == 1.0)


def test_marker_ref_length_band_and_units():
    for seed in range(8):
        cfg = small_cfg(T=50, seed=seed)
        scene = synth_generate(cfg)
        t_out = scene.marker_ref.n_frames
        assert 0.9 * cfg.T - 1 <= t_out <= 1.1 * cfg.T + 1
        q = scene.marker_ref.quats.reshape(t_out, -1, 4)
        assert np.allclose(np.linalg.norm(q, axis=2), 1.0, atol=1e-9)


def test_marker_ref_stays_near_gt_shape():
    # Jitter is at most 2 degrees per joint, so the re-performed motion's
    # quaternion rows stay close to some ground-truth frame.
    scene = synth_generate(small_cfg(noise_px=0.0))
    gt = scene.gt_motion.quats
    for row in scene.marker_ref.quats:
        d = np.min(np.linalg.norm(gt - row, axis=1))
        assert d < 0.1


def test_camera_rig_geometry():
    cfg = small_cfg(V=4)
    scene = synth_generate(cfg)
    assert len(scene.sparse_cameras) == 4
    target = np.array(TARGET)
    for camera in [scene.mono_camera] + scene.sparse_cameras:
        centre = -camera.rotation.T @ camera.translation
        radial = np.linalg.norm(centre[[0, 2]])
        assert radial == pytest.approx(RING_RADIUS, abs=1e-9)
        assert centre[1] == pytest.approx(CAMERA_HEIGHT, abs=1e-9)
        assert np.allclose(project(camera, target), [CX, CY], atol=1e-6)


def test_scene_config_validation():
    with pytest.raises(InvalidInputError):
        synth_generate(SceneConfig(T=1))
    with pytest.raises(InvalidInputError):
        synth_generate(SceneConfig(V=1))
    with pytest.raises(InvalidInputError):
        synth_generate(SceneConfig(noise_px=-1.0))
    with pytest.raises(InvalidInputError):
        synth_generate(SceneConfig(occlusion=1.0))
    with pytest.raises(InvalidInputError):
        synth_generate(SceneConfig(amplitude=0.96))
