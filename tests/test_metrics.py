"""Position-error metrics against double-loop oracles."""

import numpy as np
import pytest

from conftest import (
    frames_of,
    make_random_skeleton,
    make_toy_skeleton,
    random_pose,
    stack_poses,
)
from mocorr.errors import InvalidInputError
from mocorr.metrics import frame_mpjpe, joint_positions, mpjpe, pck
from mocorr.motion import build_motion_map, extract_poses
from mocorr.skeleton import (
    default_skeleton,
    forward_kinematics,
    identity_pose,
)
from oracles import fk_homogeneous


def random_motion(skeleton, t, seed):
    rng = np.random.default_rng(seed)
    poses = [random_pose(rng, skeleton) for _ in range(t)]
    return build_motion_map(stack_poses(poses), skeleton, np.ones((t, skeleton.n_joints)))


def mpjpe_oracle(pred, gt, skeleton):
    """Scalar mean over every frame and joint, positions via 4x4 chains."""
    from mocorr.motion import extract_poses

    pp = frames_of(extract_poses(pred, skeleton))
    pg = frames_of(extract_poses(gt, skeleton))
    total, count = 0.0, 0
    for a, b in zip(pp, pg):
        pa, _ = fk_homogeneous(skeleton, a)
        pb, _ = fk_homogeneous(skeleton, b)
        for j in range(skeleton.n_joints):
            total += float(np.linalg.norm(pa[j] - pb[j]))
            count += 1
    return total / count * 1000.0


def test_identical_motions_score_zero_and_full_pck():
    skeleton = default_skeleton()
    motion = random_motion(skeleton, 5, seed=0)
    assert mpjpe(motion, motion, skeleton) == 0.0
    assert np.array_equal(frame_mpjpe(motion, motion, skeleton), np.zeros(5))
    assert pck(motion, motion, skeleton, 0.5) == 100.0


def test_translation_shift_gives_exact_millimeters():
    skeleton = make_toy_skeleton()
    gt = random_motion(skeleton, 4, seed=1)
    pred = gt.copy()
    pred.translations = pred.translations + np.array([0.01, 0.0, 0.0])
    # A rigid 1 cm shift moves every joint by exactly 10 mm.
    assert abs(mpjpe(pred, gt, skeleton) - 10.0) <= 1e-9
    assert np.allclose(frame_mpjpe(pred, gt, skeleton), 10.0, atol=1e-9)


def test_mpjpe_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    for seed in range(3):
        skeleton = make_random_skeleton(rng)
        gt = random_motion(skeleton, 6, seed=10 + seed)
        pred = random_motion(skeleton, 6, seed=20 + seed)
        assert abs(mpjpe(pred, gt, skeleton) -
                   mpjpe_oracle(pred, gt, skeleton)) <= 1e-9


def test_frame_mpjpe_mean_equals_mpjpe():
    skeleton = make_toy_skeleton()
    gt = random_motion(skeleton, 7, seed=3)
    pred = random_motion(skeleton, 7, seed=4)
    per_frame = frame_mpjpe(pred, gt, skeleton)
    assert per_frame.shape == (7,)
    assert abs(per_frame.mean() - mpjpe(pred, gt, skeleton)) <= 1e-9


def test_pck_counts_against_torso_reference():
    skeleton = default_skeleton()
    gt = random_motion(skeleton, 6, seed=5)
    pred = random_motion(skeleton, 6, seed=6)

    from mocorr.motion import extract_poses

    # Counting oracle: per-frame torso length from the ground truth, where
    # the neck is the torso joint farthest from the root at rest.
    rest = forward_kinematics(skeleton, identity_pose(skeleton))
    torso = [j for j in skeleton.region_joints("torso") if j != 0]
    neck = torso[int(np.argmax([np.linalg.norm(rest[j] - rest[0])
                                for j in torso]))]
    for alpha in (0.3, 0.5, 1.0):
        hits, count = 0, 0
        for a, b in zip(frames_of(extract_poses(pred, skeleton)),
                        frames_of(extract_poses(gt, skeleton))):
            pa, _ = fk_homogeneous(skeleton, a)
            pb, _ = fk_homogeneous(skeleton, b)
            ref = np.linalg.norm(pb[neck] - pb[0])
            for j in range(skeleton.n_joints):
                hits += int(np.linalg.norm(pa[j] - pb[j]) < alpha * ref)
                count += 1
        assert abs(pck(pred, gt, skeleton, alpha) - hits / count * 100.0) <= 1e-12


def test_pck_monotone_in_alpha():
    skeleton = default_skeleton()
    gt = random_motion(skeleton, 6, seed=7)
    pred = random_motion(skeleton, 6, seed=8)
    values = [pck(pred, gt, skeleton, a) for a in (0.1, 0.3, 0.5, 1.0, 3.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_joint_positions_shape():
    skeleton = make_toy_skeleton()
    motion = random_motion(skeleton, 4, seed=9)
    pos = joint_positions(motion, skeleton)
    assert pos.shape == (4, skeleton.n_joints, 3)
    per_frame = [forward_kinematics(skeleton, p)
                 for p in frames_of(extract_poses(motion, skeleton))]
    assert np.array_equal(pos, np.stack(per_frame))


def test_validation_errors():
    skeleton = default_skeleton()
    a = random_motion(skeleton, 4, seed=10)
    b = random_motion(skeleton, 5, seed=11)
    with pytest.raises(InvalidInputError):
        mpjpe(a, b, skeleton)
    with pytest.raises(InvalidInputError):
        pck(a, a, skeleton, 0.0)
    with pytest.raises(InvalidInputError):
        pck(a, a, skeleton, -0.5)
