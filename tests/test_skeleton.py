"""Kinematic tree construction, FK, and the pose <-> quaternion mapping."""

import numpy as np
import pytest

from mocorr import quat
from mocorr.errors import InvalidInputError, ParseError, UnsupportedVersionError
from mocorr.jsonio import load_document, save_document
from mocorr.skeleton import (
    Joint,
    QuatPose,
    SkeletalPose,
    SkeletonModel,
    angle_products,
    clamp_joint_limits,
    default_skeleton,
    fk_frames,
    forward_kinematics,
    identity_pose,
    load_skeleton,
    pose_to_quat,
    quat_to_pose,
    save_skeleton,
)

from conftest import make_random_skeleton, make_toy_skeleton, random_pose
from oracles import fk_homogeneous, local_rotation


def test_fk_matches_homogeneous_oracle():
    rng = np.random.default_rng(100)
    for _ in range(25):
        skeleton = make_random_skeleton(rng)
        for _ in range(8):
            pose = random_pose(rng, skeleton)
            pos, rot = fk_frames(skeleton, pose)
            ref_pos, ref_rot = fk_homogeneous(skeleton, pose)
            assert np.max(np.abs(pos - ref_pos)) <= 1e-9
            for r, rr in zip(rot, ref_rot):
                assert np.max(np.abs(r - rr)) <= 1e-9


def test_fk_default_skeleton_identity():
    skeleton = default_skeleton()
    pos = forward_kinematics(skeleton, identity_pose(skeleton))
    # Identity pose stacks offsets along each chain.
    cumulative = np.zeros((skeleton.n_joints, 3))
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is not None:
            cumulative[i] = cumulative[joint.parent] + joint.offset
    assert np.allclose(pos, cumulative, atol=1e-12)


def test_fk_root_translation_shifts_everything(toy_skeleton, rng):
    pose = random_pose(rng, toy_skeleton)
    base = forward_kinematics(toy_skeleton, pose)
    shifted_pose = SkeletalPose(pose.theta, pose.root_rot,
                                pose.root_trans + np.array([0.1, -0.2, 0.3]))
    shifted = forward_kinematics(toy_skeleton, shifted_pose)
    assert np.allclose(shifted - base, [0.1, -0.2, 0.3], atol=1e-12)


def test_pose_quat_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(20):
        skeleton = make_random_skeleton(rng)
        pose = random_pose(rng, skeleton)
        qpose = pose_to_quat(skeleton, pose)
        back = quat_to_pose(skeleton, qpose, pose.root_trans)
        assert np.max(np.abs(back.theta - pose.theta)) <= 1e-9
        assert np.max(np.abs(back.root_rot - pose.root_rot)) <= 1e-9
        assert np.array_equal(back.root_trans, pose.root_trans)


def test_quat_to_pose_clamps_out_of_range(toy_skeleton):
    # Joint "c" allows X in [-1.3, 0.4]; a 0.9 X-rotation must clamp to 0.4.
    q = np.tile([1.0, 0.0, 0.0, 0.0], (toy_skeleton.n_joints, 1))
    q[3] = quat.from_rotvec(np.array([0.9, 0.0, 0.0]))
    pose = quat_to_pose(toy_skeleton, QuatPose(q), np.zeros(3))
    assert pose.theta[toy_skeleton.theta_slice(3)] == pytest.approx([0.4])


def test_quat_to_pose_drops_off_axis_rotation(toy_skeleton):
    # Joint "c" has only an X DOF: a pure Y rotation leaves its angle at zero.
    q = np.tile([1.0, 0.0, 0.0, 0.0], (toy_skeleton.n_joints, 1))
    q[3] = quat.from_rotvec(np.array([0.0, 0.5, 0.0]))
    pose = quat_to_pose(toy_skeleton, QuatPose(q), np.zeros(3))
    assert pose.theta[toy_skeleton.theta_slice(3)] == pytest.approx([0.0],
                                                                    abs=1e-12)


def test_identity_pose_quats_are_identity(toy_skeleton):
    qpose = pose_to_quat(toy_skeleton, identity_pose(toy_skeleton))
    expected = np.tile([1.0, 0.0, 0.0, 0.0], (toy_skeleton.n_joints, 1))
    assert np.allclose(qpose.quats, expected, atol=1e-15)


def test_clamp_joint_limits(toy_skeleton):
    theta = np.full(toy_skeleton.total_dof, 10.0)
    pose = SkeletalPose(theta, np.zeros(3), np.zeros(3))
    clamped = clamp_joint_limits(pose, toy_skeleton)
    assert np.array_equal(clamped.theta, toy_skeleton.theta_max)


def test_quat_pose_norm_validation():
    good = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    QuatPose(good)
    bad = good.copy()
    bad[1] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(InvalidInputError):
        QuatPose(bad)
    with pytest.raises(InvalidInputError):
        QuatPose(np.zeros((3, 3)))


def test_quat_pose_canonicalizes():
    q = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
    q[1] = -quat.from_rotvec(np.array([0.3, 0.1, -0.2]))
    qpose = QuatPose(q)
    assert np.all(qpose.quats[:, 0] >= 0.0)


def test_skeleton_validation_errors():
    root = Joint("root", None, np.zeros(3))
    child = Joint("c", 0, np.array([0.1, 0.0, 0.0]), ("X",), [[-1.0, 1.0]])
    regions = ("torso", "left_arm", "right_arm", "left_leg", "right_leg")

    with pytest.raises(InvalidInputError):  # root not at index 0
        SkeletonModel([child, root, child, child, child], regions)
    with pytest.raises(InvalidInputError):  # two roots
        SkeletonModel([root, Joint("r2", None, np.zeros(3)), child, child,
                       child], regions)
    with pytest.raises(InvalidInputError):  # parent after joint
        SkeletonModel([root, Joint("c", 2, np.zeros(3), ("X",), [[-1, 1]]),
                       child, child, child], regions)
    with pytest.raises(InvalidInputError):  # root with DOFs
        SkeletonModel([Joint("root", None, np.zeros(3), ("X",), [[-1, 1]]),
                       child, child, child, child], regions)
    with pytest.raises(InvalidInputError):  # root offset nonzero
        SkeletonModel([Joint("root", None, np.array([0.0, 1.0, 0.0])),
                       child, child, child, child], regions)
    with pytest.raises(InvalidInputError):  # missing region
        SkeletonModel([root, child, child, child, child],
                      ("torso",) * 5)
    with pytest.raises(InvalidInputError):  # unknown region
        SkeletonModel([root, child, child, child, child],
                      ("torso", "left_arm", "right_arm", "left_leg", "head"))
    with pytest.raises(InvalidInputError):  # region_map length mismatch
        SkeletonModel([root, child, child, child, child], regions[:4])


def test_joint_validation_errors():
    with pytest.raises(InvalidInputError):  # axes out of canonical order
        Joint("j", 0, np.zeros(3), ("Y", "X"), [[-1, 1], [-1, 1]])
    with pytest.raises(InvalidInputError):  # duplicate axis
        Joint("j", 0, np.zeros(3), ("X", "X"), [[-1, 1], [-1, 1]])
    with pytest.raises(InvalidInputError):  # lo > hi
        Joint("j", 0, np.zeros(3), ("X",), [[1.0, -1.0]])
    with pytest.raises(InvalidInputError):  # bad offset
        Joint("j", 0, np.array([np.nan, 0.0, 0.0]), ("X",), [[-1, 1]])


def test_theta_slice_and_descendants():
    rng = np.random.default_rng(102)
    skeleton = make_random_skeleton(rng, 12)
    # Slices tile the theta vector in joint order without gaps.
    starts = [skeleton.theta_slice(i).start for i in range(skeleton.n_joints)]
    stops = [skeleton.theta_slice(i).stop for i in range(skeleton.n_joints)]
    assert starts[0] == 0 and stops[-1] == skeleton.total_dof
    assert all(a == b for a, b in zip(stops[:-1], starts[1:]))
    # Descendant matrix agrees with walking the parent chain.
    for i, joint in enumerate(skeleton.joints):
        up = joint.parent
        ancestors = set()
        while up is not None:
            ancestors.add(up)
            up = skeleton.joints[up].parent
        for a in range(skeleton.n_joints):
            assert skeleton.descendants[a, i] == (a in ancestors)


def test_moving_a_joint_moves_exactly_its_descendants(toy_skeleton, rng):
    pose = random_pose(rng, toy_skeleton, margin=0.2)
    base = forward_kinematics(toy_skeleton, pose)
    jid = 1  # joint "a" has children below it
    theta = pose.theta.copy()
    theta[toy_skeleton.theta_slice(jid)] += 0.05
    moved = forward_kinematics(
        toy_skeleton, SkeletalPose(theta, pose.root_rot, pose.root_trans))
    delta = np.linalg.norm(moved - base, axis=1)
    for i in range(toy_skeleton.n_joints):
        if toy_skeleton.descendants[jid, i]:
            assert delta[i] > 1e-6
        else:
            assert delta[i] == 0.0


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(103)
    skeleton = make_random_skeleton(rng)
    path = tmp_path / "skel.json"
    save_skeleton(path, skeleton)
    loaded = load_skeleton(path)
    assert loaded.n_joints == skeleton.n_joints
    assert loaded.region_map == skeleton.region_map
    for a, b in zip(loaded.joints, skeleton.joints):
        assert a.name == b.name and a.parent == b.parent and a.dof == b.dof
        assert np.array_equal(a.offset, b.offset)
        assert np.array_equal(a.limits, b.limits)


def test_load_skeleton_errors(tmp_path):
    path = tmp_path / "bad.json"
    save_document(path, {"format": "skeleton/9", "joints": [],
                         "region_map": []})
    with pytest.raises(UnsupportedVersionError):
        load_skeleton(path)

    save_document(path, {"format": "skeleton/1", "region_map": []})
    with pytest.raises(ParseError, match="joints"):
        load_skeleton(path)

    save_document(path, {"format": "skeleton/1",
                         "joints": [{"name": "root"}], "region_map": ["torso"]})
    with pytest.raises(ParseError, match=r"joints\[0\]"):
        load_skeleton(path)


def test_default_skeleton_shape():
    skeleton = default_skeleton()
    assert skeleton.n_joints == 15
    assert skeleton.total_dof == 30
    assert set(skeleton.region_map) == {
        "torso", "left_arm", "right_arm", "left_leg", "right_leg"}
    assert skeleton.joints[0].name == "pelvis"
    assert np.all(skeleton.theta_min < skeleton.theta_max)


def test_pose_dimension_mismatch(toy_skeleton):
    with pytest.raises(InvalidInputError):
        forward_kinematics(
            toy_skeleton, SkeletalPose(np.zeros(3), np.zeros(3), np.zeros(3)))


def test_pose_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        SkeletalPose(np.array([np.inf]), np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("seed", range(6))
def test_angle_products_equal_composed_axis_rotations(seed):
    """Each joint's local rotation among the running products is the
    oracle's eye @ R_0 @ R_1 @ R_2 bit for bit, zero signs included, on
    angles of exactly +0.0 and -0.0, where a rotation holds -0.0 entries."""
    rng = np.random.default_rng(seed)
    skeleton = default_skeleton() if seed == 0 else make_random_skeleton(rng)
    n_frames = int(rng.integers(1, 40))
    theta = rng.uniform(-2.0, 2.0, (n_frames, skeleton.total_dof))
    draw = rng.uniform(size=theta.shape)
    theta[draw < 0.3] = 0.0
    theta[draw > 0.8] = -0.0
    seq = SkeletalPose(theta, np.zeros((n_frames, 3)), np.zeros((n_frames, 3)))
    products = angle_products(skeleton, theta)
    assert products.shape == (skeleton.total_dof + 1, n_frames, 3, 3)
    for i in range(1, skeleton.n_joints):
        got = products[skeleton.local_slot[i]]
        ref = np.broadcast_to(local_rotation(skeleton, i, seq), got.shape)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_fk_frames_is_a_pair_that_keeps_the_running_products(rng):
    """fk_frames unpacks and indexes as (positions, rotations), and carries
    the angles' running products of the pose as a sequence, bit for bit
    what angle_products builds, for one pose and for a sequence alike."""
    skeleton = default_skeleton()
    poses = [random_pose(rng, skeleton) for _ in range(3)]
    seq = SkeletalPose(*(np.stack([getattr(p, part) for p in poses])
                         for part in ("theta", "root_rot", "root_trans")))
    for pose, theta in ((seq, seq.theta), (poses[0], poses[0].theta[None])):
        fk = fk_frames(skeleton, pose)
        pos, rot = fk
        assert len(fk) == 2 and fk[0] is pos and fk[1] is rot
        assert pos.shape == theta.shape[:1] * (pose is seq) + (skeleton.n_joints, 3)
        assert np.array_equal(fk.products, angle_products(skeleton, theta))
