"""Motion maps, observation records, time warping, and their file formats."""

import json

import numpy as np
import pytest

from mocorr import quat
from mocorr.errors import InvalidInputError, ParseError, UnsupportedVersionError
from mocorr.motion import (
    MotionMap,
    Observations,
    build_motion_map,
    extract_poses,
    load_motion,
    load_observations,
    save_motion,
    save_observations,
    time_warp,
)
from mocorr.optim.energies import net_pose_targets
from mocorr.skeleton import (
    QuatPose,
    SkeletalPose,
    as_sequence,
    identity_pose,
    pose_to_quat,
    quat_to_pose,
)
from mocorr.synth import SceneConfig, synth_generate

from conftest import frames_of, make_toy_skeleton, observations_of, random_pose, stack_poses
from oracles import frame_quats, pose_to_quat_per_frame, quat_to_pose_per_frame


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
    motion = build_motion_map(stack_poses(poses), toy_skeleton, conf)
    expected_row = np.tile([1.0, 0.0, 0.0, 0.0], toy_skeleton.n_joints)
    assert np.allclose(motion.quats, expected_row, atol=1e-15)
    assert np.array_equal(motion.translations, np.zeros((3, 3)))
    assert motion.n_frames == 3 and motion.n_joints == toy_skeleton.n_joints


def test_build_extract_round_trip(toy_skeleton, rng):
    poses = [random_pose(rng, toy_skeleton) for _ in range(5)]
    conf = rng.uniform(0.2, 1.0, (5, toy_skeleton.n_joints))
    motion = build_motion_map(stack_poses(poses), toy_skeleton, conf)
    back = frames_of(extract_poses(motion, toy_skeleton))
    for orig, rec in zip(poses, back):
        assert np.max(np.abs(orig.theta - rec.theta)) <= 1e-9
        assert np.max(np.abs(orig.root_rot - rec.root_rot)) <= 1e-9
        assert np.array_equal(orig.root_trans, rec.root_trans)


def test_build_motion_map_conf_mismatch(toy_skeleton):
    poses = [identity_pose(toy_skeleton)] * 3
    with pytest.raises(InvalidInputError):
        build_motion_map(stack_poses(poses), toy_skeleton, np.ones((3, 2)))


def test_extract_poses_joint_mismatch(toy_skeleton, rng):
    motion = random_motion(rng, n_joints=3)
    with pytest.raises(InvalidInputError):
        extract_poses(motion, toy_skeleton)


def assert_poses_equal(seq, ref):
    for part in ("theta", "root_rot", "root_trans"):
        assert np.array_equal(getattr(seq, part), getattr(ref, part)), part


@pytest.mark.parametrize("seed", [5, 7, 42])
def test_sequence_conversions_equal_per_frame_oracles(seed):
    """pose_to_quat, quat_to_pose, build_motion_map, extract_poses,
    net_pose_targets and time_warp over a whole sequence equal the per-frame
    code bit for bit: a seeded scene's ground truth with angles pushed past
    their limits, and its quaternions turned by up to 0.8 rad, so the decode
    clamps."""
    scene = synth_generate(SceneConfig(T=12, V=2, seed=seed, sil_points=16))
    skeleton = scene.skeleton
    n_frames, n_joints = scene.gt_motion.n_frames, skeleton.n_joints
    rng = np.random.default_rng(seed)
    gt = extract_poses(scene.gt_motion, skeleton)
    span = skeleton.theta_max - skeleton.theta_min
    seq = SkeletalPose(gt.theta + span * rng.uniform(-0.8, 0.8, gt.theta.shape),
                       gt.root_rot, gt.root_trans)

    ref_q = np.stack([pose_to_quat_per_frame(skeleton, p).quats for p in frames_of(seq)])
    assert np.array_equal(pose_to_quat(skeleton, seq).quats, ref_q)
    conf = rng.uniform(0.0, 1.0, (n_frames, n_joints))
    motion = build_motion_map(seq, skeleton, conf)
    assert np.array_equal(motion.quats, ref_q.reshape(n_frames, -1))
    assert np.array_equal(motion.translations, seq.root_trans)

    turn = quat.from_rotvec(rng.uniform(-0.8, 0.8, (n_frames, n_joints, 3)).reshape(-1, 3))
    q = quat.canonicalize(quat.normalize(quat.mul(ref_q, turn.reshape(ref_q.shape))))
    ref = stack_poses([quat_to_pose_per_frame(skeleton, QuatPose(q[t]), seq.root_trans[t])
                       for t in range(n_frames)])
    assert np.any(ref.theta == skeleton.theta_min) and np.any(ref.theta == skeleton.theta_max)
    assert_poses_equal(quat_to_pose(skeleton, QuatPose(q), seq.root_trans), ref)

    # every non-root joint gimbal-locked on every frame: Rx(a) Ry(+-pi/2), so
    # |m02| = 1 and the lock branch of the Euler factoring runs on whole
    # joint axes at once
    shape = (n_frames, n_joints - 1)
    rx = np.zeros(shape + (3,))
    rx[..., 0] = rng.uniform(-np.pi, np.pi, shape)
    ry = np.zeros(shape + (3,))
    ry[..., 1] = rng.choice([-0.5 * np.pi, 0.5 * np.pi], shape)
    locked = q.copy()
    locked[:, 1:] = quat.mul(quat.from_rotvec(rx.reshape(-1, 3)),
                             quat.from_rotvec(ry.reshape(-1, 3))).reshape(shape + (4,))
    assert np.all(np.abs(quat.to_matrix(locked[:, 1:])[..., 0, 2]) >= 1.0 - 1e-12)
    ref_locked = stack_poses([quat_to_pose_per_frame(skeleton, QuatPose(locked[t]),
                                                     seq.root_trans[t])
                              for t in range(n_frames)])
    assert_poses_equal(quat_to_pose(skeleton, QuatPose(locked), seq.root_trans), ref_locked)

    turned = MotionMap(q.reshape(n_frames, -1), conf, seq.root_trans)
    assert_poses_equal(extract_poses(turned, skeleton), ref)

    net = turned.quats * np.repeat(rng.uniform(0.5, 2.0, (n_frames, n_joints)), 4, axis=1)
    theta, root_rot = net_pose_targets(skeleton, net)
    for t in range(n_frames):
        rows = net[t].reshape(n_joints, 4)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        frame = quat_to_pose_per_frame(skeleton, QuatPose(rows / norms), np.zeros(3))
        assert np.array_equal(theta[t], frame.theta)
        assert np.array_equal(root_rot[t], frame.root_rot)

    warp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, n_frames - 1, 15)),
                           [n_frames - 1]])
    warped = time_warp(turned, warp)
    lo = np.minimum(np.floor(warp).astype(int), n_frames - 2)
    for t, (k, u) in enumerate(zip(lo, warp - lo)):
        expected = quat.nlerp(frame_quats(turned, k), frame_quats(turned, k + 1), u)
        assert np.array_equal(frame_quats(warped, t), expected)


def test_single_pose_conversions_run_as_one_frame(toy_skeleton, rng):
    """A single pose converts as a sequence of one, keeping its unbatched
    shapes, and equals the per-frame code bit for bit, clamping included."""
    pose = random_pose(rng, toy_skeleton)
    pose.theta[toy_skeleton.theta_slice(3)] = 0.9  # joint "c": X in [-1.3, 0.4]
    qpose = pose_to_quat(toy_skeleton, pose)
    assert qpose.quats.shape == (toy_skeleton.n_joints, 4)
    assert np.array_equal(qpose.quats, pose_to_quat_per_frame(toy_skeleton, pose).quats)
    assert np.array_equal(pose_to_quat(toy_skeleton, as_sequence(pose)).quats,
                          qpose.quats[None])
    back = quat_to_pose(toy_skeleton, qpose, pose.root_trans)
    ref = quat_to_pose_per_frame(toy_skeleton, qpose, pose.root_trans)
    assert back.theta.shape == (toy_skeleton.total_dof,)
    assert back.theta[toy_skeleton.theta_slice(3)] == pytest.approx([0.4])
    assert_poses_equal(back, ref)
    one = quat_to_pose(toy_skeleton, QuatPose(qpose.quats[None]), pose.root_trans[None])
    assert_poses_equal(one, as_sequence(ref))


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
    qa = frame_quats(motion, 1)
    qb = frame_quats(motion, 2)
    expected = quat.nlerp(qa, qb, 0.5)
    assert np.max(np.abs(frame_quats(warped, 1) - expected)) <= 1e-9
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
    obs = Observations(rng.uniform(0, 640, (3, 4, 2)), rng.uniform(0, 1, (3, 4)),
                       rng.uniform(0, 640, (3, 9, 2)))
    path = tmp_path / "obs.json"
    save_observations(path, obs)
    loaded = load_observations(path)
    assert loaded.n_frames == 3
    for part in ("keypoints", "conf", "silhouette", "sil_count"):
        assert np.array_equal(getattr(loaded, part), getattr(obs, part)), part


def test_ragged_observations_round_trip_is_byte_identical(tmp_path, rng):
    """Outlines of 5, 2 and 0 points: each frame writes only its own points,
    the loaded record pads them to the longest, and saving it again gives
    the same bytes."""
    outlines = [rng.uniform(0, 640, (k, 2)) for k in (5, 2, 0)]
    obs = observations_of(list(rng.uniform(0, 640, (3, 4, 2))),
                          list(rng.uniform(0, 1, (3, 4))), outlines)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_observations(first, obs)
    doc = json.loads(first.read_text())
    assert [len(f["silhouette"]) for f in doc["frames"]] == [5, 2, 0]
    loaded = load_observations(first)
    assert np.array_equal(loaded.sil_count, [5, 2, 0])
    assert loaded.silhouette.shape == (3, 5, 2)
    assert np.all(loaded.silhouette[1, 2:] == 0.0) and np.all(loaded.silhouette[2] == 0.0)
    for t, outline in enumerate(outlines):
        assert np.array_equal(loaded.silhouette[t, :len(outline)], outline)
    save_observations(second, loaded)
    assert second.read_bytes() == first.read_bytes()


def test_observations_header_mismatch(tmp_path, rng):
    import json

    obs = Observations(rng.uniform(0, 10, (2, 2, 2)), np.ones((2, 2)))
    path = tmp_path / "obs.json"
    save_observations(path, obs)
    doc = json.loads(path.read_text())
    doc["T"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="T=5"):
        load_observations(path)


def test_observations_malformed_frame(tmp_path, rng):
    import json

    obs = Observations(rng.uniform(0, 10, (2, 2, 2)), np.ones((2, 2)))
    path = tmp_path / "obs.json"
    save_observations(path, obs)
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

    obs = Observations(rng.uniform(0, 10, (2, 2, 2)), np.ones((2, 2)))
    path = tmp_path / "obs.json"
    save_observations(path, obs)
    doc = json.loads(path.read_text())
    doc["frames"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"obs\.json: frames\[1\] {field} is not numeric"):
        load_observations(path)


def test_observations_empty_silhouette_loads(tmp_path, rng):
    obs = Observations(rng.uniform(0, 10, (2, 2, 2)), np.ones((2, 2)))
    path = tmp_path / "obs.json"
    save_observations(path, obs)
    assert '"silhouette": []' in path.read_text()
    loaded = load_observations(path)
    assert loaded.silhouette.shape == (2, 0, 2) and np.all(loaded.sil_count == 0)


def test_observations_validation(rng):
    keypoints, conf = rng.uniform(0, 10, (2, 3, 2)), np.ones((2, 3))
    outline = rng.uniform(0, 10, (2, 4, 2))
    obs = Observations(keypoints, conf)
    assert obs.silhouette.shape == (2, 0, 2) and np.array_equal(obs.sil_count, [0, 0])
    assert np.array_equal(Observations(keypoints, conf, outline).sil_count, [4, 4])
    shapes = [(keypoints[:, :2], conf), (keypoints, conf[0]), (keypoints[0], conf[0]),
              (keypoints[..., :1], conf)]
    for bad_keypoints, bad_conf in shapes:
        with pytest.raises(InvalidInputError, match="keypoints must be"):
            Observations(bad_keypoints, bad_conf)
    with pytest.raises(InvalidInputError, match="silhouette must be"):
        Observations(keypoints, conf, outline[:1])
    with pytest.raises(InvalidInputError, match="silhouette must be"):
        Observations(keypoints, conf, outline[..., :1])
    with pytest.raises(InvalidInputError, match="one integer per frame"):
        Observations(keypoints, conf, outline, [4])
    with pytest.raises(InvalidInputError, match="one integer per frame"):
        Observations(keypoints, conf, outline, [4.0, 2.0])
    for count in ([5, 2], [-1, 2]):
        with pytest.raises(InvalidInputError, match=r"sil_count must lie in \[0, m\]"):
            Observations(keypoints, conf, outline, count)
    for value in (1.2, -0.1):
        high = conf.copy()
        high[1, 2] = value
        with pytest.raises(InvalidInputError, match=r"confidences must lie in \[0, 1\]"):
            Observations(keypoints, high)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="coordinates must be finite"):
            Observations(np.where(keypoints > 5.0, bad, keypoints), conf)
        with pytest.raises(InvalidInputError, match="coordinates must be finite"):
            Observations(keypoints, conf, np.full((2, 4, 2), bad), [0, 0])
