"""Motion maps, observation containers, time warping, and their file formats."""

import numpy as np
import pytest

from mocorr import quat
from mocorr.errors import InvalidInputError, ParseError, UnsupportedVersionError
from mocorr.motion import (
    FrameObservations,
    MotionMap,
    build_motion_map,
    extract_poses,
    load_motion,
    load_observations,
    save_motion,
    save_observations,
    time_warp,
)
from mocorr.skeleton import identity_pose

from conftest import make_toy_skeleton, random_pose


def random_motion(rng, n_joints=3, t=6):
    q = rng.standard_normal((t, n_joints, 4))
    q = quat.canonicalize(q / np.linalg.norm(q, axis=2, keepdims=True))
    return MotionMap(q.reshape(t, 4 * n_joints),
                     rng.uniform(0.0, 1.0, (t, n_joints)),
                     rng.uniform(-1.0, 1.0, (t, 3)))


def test_motion_map_validation():
    rows = np.tile([1.0, 0.0, 0.0, 0.0], (3, 2))
    conf = np.ones((3, 2))
    trans = np.zeros((3, 3))
    MotionMap(rows, conf, trans)
    with pytest.raises(InvalidInputError):  # one frame only
        MotionMap(rows[:1], conf[:1], trans[:1])
    with pytest.raises(InvalidInputError):  # width not multiple of 4
        MotionMap(np.ones((3, 6)), conf, trans)
    with pytest.raises(InvalidInputError):  # conf out of range
        MotionMap(rows, conf + 0.5, trans)
    with pytest.raises(InvalidInputError):  # conf shape
        MotionMap(rows, np.ones((3, 3)), trans)
    with pytest.raises(InvalidInputError):  # translations shape
        MotionMap(rows, conf, np.zeros((3, 2)))
    bad = rows.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        MotionMap(bad, conf, trans)


def test_build_motion_map_identity(toy_skeleton):
    poses = [identity_pose(toy_skeleton) for _ in range(3)]
    conf = np.ones((3, toy_skeleton.n_joints))
    motion = build_motion_map(poses, toy_skeleton, conf)
    expected_row = np.tile([1.0, 0.0, 0.0, 0.0], toy_skeleton.n_joints)
    assert np.allclose(motion.quats, expected_row, atol=1e-15)
    assert np.array_equal(motion.translations, np.zeros((3, 3)))
    assert motion.n_frames == 3 and motion.n_joints == toy_skeleton.n_joints


def test_build_extract_round_trip(toy_skeleton, rng):
    poses = [random_pose(rng, toy_skeleton) for _ in range(5)]
    conf = rng.uniform(0.2, 1.0, (5, toy_skeleton.n_joints))
    motion = build_motion_map(poses, toy_skeleton, conf)
    back = extract_poses(motion, toy_skeleton)
    for orig, rec in zip(poses, back):
        assert np.max(np.abs(orig.theta - rec.theta)) <= 1e-9
        assert np.max(np.abs(orig.root_rot - rec.root_rot)) <= 1e-9
        assert np.array_equal(orig.root_trans, rec.root_trans)


def test_build_motion_map_conf_mismatch(toy_skeleton):
    poses = [identity_pose(toy_skeleton)] * 3
    with pytest.raises(InvalidInputError):
        build_motion_map(poses, toy_skeleton, np.ones((3, 2)))


def test_extract_poses_joint_mismatch(toy_skeleton, rng):
    motion = random_motion(rng, n_joints=3)
    with pytest.raises(InvalidInputError):
        extract_poses(motion, toy_skeleton)


def test_time_warp_identity(rng):
    motion = random_motion(rng)
    warped = time_warp(motion, np.arange(motion.n_frames, dtype=float))
    assert np.allclose(warped.quats, quat.canonicalize(
        motion.quats.reshape(-1, 4)).reshape(motion.quats.shape), atol=1e-15)
    assert np.allclose(warped.conf, motion.conf, atol=1e-15)
    assert np.allclose(warped.translations, motion.translations, atol=1e-15)


def test_time_warp_midpoint_is_nlerp(rng):
    motion = random_motion(rng, n_joints=2, t=4)
    warped = time_warp(motion, np.array([0.0, 1.5, 3.0]))
    qa = motion.frame_quats(1)
    qb = motion.frame_quats(2)
    expected = quat.nlerp(qa, qb, 0.5)
    assert np.max(np.abs(warped.frame_quats(1) - expected)) <= 1e-9
    assert np.allclose(warped.conf[1], 0.5 * (motion.conf[1] + motion.conf[2]))
    assert np.allclose(warped.translations[1],
                       0.5 * (motion.translations[1] + motion.translations[2]))


def test_time_warp_validation(rng):
    motion = random_motion(rng)
    with pytest.raises(InvalidInputError):  # not increasing
        time_warp(motion, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidInputError):  # out of range
        time_warp(motion, np.array([0.0, motion.n_frames - 0.5]))
    with pytest.raises(InvalidInputError):  # negative start
        time_warp(motion, np.array([-0.1, 1.0]))
    with pytest.raises(InvalidInputError):  # too short
        time_warp(motion, np.array([1.0]))


def test_motion_save_load_round_trip(tmp_path, rng):
    motion = random_motion(rng, n_joints=4, t=7)
    path = tmp_path / "m.motion.json"
    save_motion(path, motion)
    loaded = load_motion(path)
    assert np.array_equal(loaded.quats, motion.quats)
    assert np.array_equal(loaded.conf, motion.conf)
    assert np.array_equal(loaded.translations, motion.translations)


def test_motion_load_errors(tmp_path, rng):
    motion = random_motion(rng)
    path = tmp_path / "m.motion.json"
    save_motion(path, motion)

    text = path.read_text()
    truncated = tmp_path / "trunc.motion.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        load_motion(truncated)

    wrong = tmp_path / "wrong.motion.json"
    wrong.write_text(text.replace("motion/1", "motion/2"))
    with pytest.raises(UnsupportedVersionError):
        load_motion(wrong)

    with pytest.raises(ParseError):
        load_motion(tmp_path / "missing.motion.json")


def test_motion_load_bad_shape(tmp_path, rng):
    import json

    motion = random_motion(rng, n_joints=2, t=3)
    path = tmp_path / "m.motion.json"
    save_motion(path, motion)
    doc = json.loads(path.read_text())
    doc["n_joints"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="quats"):
        load_motion(path)


def test_observations_round_trip(tmp_path, rng):
    frames = [
        FrameObservations(rng.uniform(0, 640, (4, 2)),
                          rng.uniform(0, 1, 4),
                          rng.uniform(0, 640, (9, 2)))
        for _ in range(3)
    ]
    path = tmp_path / "obs.json"
    save_observations(path, frames)
    loaded = load_observations(path)
    assert len(loaded) == 3
    for a, b in zip(loaded, frames):
        assert np.array_equal(a.keypoints, b.keypoints)
        assert np.array_equal(a.conf, b.conf)
        assert np.array_equal(a.silhouette, b.silhouette)


def test_observations_header_mismatch(tmp_path, rng):
    import json

    frames = [FrameObservations(rng.uniform(0, 10, (2, 2)), np.ones(2))
              for _ in range(2)]
    path = tmp_path / "obs.json"
    save_observations(path, frames)
    doc = json.loads(path.read_text())
    doc["T"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="T=5"):
        load_observations(path)


def test_observations_malformed_frame(tmp_path, rng):
    import json

    frames = [FrameObservations(rng.uniform(0, 10, (2, 2)), np.ones(2))
              for _ in range(2)]
    path = tmp_path / "obs.json"
    save_observations(path, frames)
    doc = json.loads(path.read_text())
    del doc["frames"][1]["conf"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"frames\[1\]"):
        load_observations(path)


@pytest.mark.parametrize("field, value", [
    ("keypoints", [["1.5", True], [2.0, 3.0]]),
    ("keypoints", [[1.5, True], [2.0, 3.0]]),
    ("keypoints", [[1.5, 2.0], ["2.0", "3.0"]]),
    ("conf", [1.0, False]),
    ("conf", [True, True]),
    ("silhouette", [[1.0, 2.0], [False, 3.0]]),
    ("silhouette", "12"),
])
def test_observations_refuse_strings_and_booleans(tmp_path, rng, field, value):
    import json

    frames = [FrameObservations(rng.uniform(0, 10, (2, 2)), np.ones(2))
              for _ in range(2)]
    path = tmp_path / "obs.json"
    save_observations(path, frames)
    doc = json.loads(path.read_text())
    doc["frames"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"obs\.json: frames\[1\] {field} is not numeric"):
        load_observations(path)


def test_observations_empty_silhouette_loads(tmp_path, rng):
    frames = [FrameObservations(rng.uniform(0, 10, (2, 2)), np.ones(2))
              for _ in range(2)]
    path = tmp_path / "obs.json"
    save_observations(path, frames)
    assert '"silhouette": []' in path.read_text()
    loaded = load_observations(path)
    assert all(f.silhouette.shape == (0, 2) for f in loaded)


def test_frame_observations_validation(rng):
    with pytest.raises(InvalidInputError):
        FrameObservations(rng.uniform(0, 10, (3, 2)), np.array([0.5, 1.2, 0.1]))
    with pytest.raises(InvalidInputError):
        FrameObservations(np.full((2, 2), np.nan), np.ones(2))
    with pytest.raises(InvalidInputError):
        FrameObservations(rng.uniform(0, 10, (3, 2)), np.ones(2))
