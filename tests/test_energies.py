"""Refinement energy terms: tagged hand values and direct-sum oracles."""

import numpy as np
import pytest

from mocorr.camera import default_body, look_at, project_points
from mocorr.errors import InvalidInputError
from mocorr.motion import Observations
from mocorr.optim.energies import EnergyWeights, energy_2d, net_pose_targets
from mocorr.skeleton import SkeletalPose, forward_kinematics, pose_to_quat

from conftest import (
    frame_rows,
    make_random_skeleton,
    make_toy_skeleton,
    observations_of,
    random_pose,
    stack_poses,
)
from oracles import (
    chamfer_sq,
    energy_2d_per_frame,
    energy_3d,
    energy_silhouette,
    energy_temporal,
    project_matrix,
    silhouette_points,
)


def make_camera():
    return look_at(np.array([0.3, 1.2, -2.5]), np.zeros(3),
                   500.0, 480.0, 320.0, 240.0)


def pose_vector(pose):
    return np.concatenate([pose.theta, pose.root_rot, pose.root_trans])


def targets_from_poses(skeleton, poses):
    """net quats / translations that decode exactly back to the given poses."""
    rows = np.stack([pose_to_quat(skeleton, p).quats.ravel() for p in poses])
    trans = np.stack([p.root_trans for p in poses])
    return rows, trans


def test_energy_3d_zero_at_target(toy_skeleton, rng):
    poses = [random_pose(rng, toy_skeleton) for _ in range(3)]
    net, trans = targets_from_poses(toy_skeleton, poses)
    assert energy_3d(poses, net, trans, toy_skeleton) == pytest.approx(0.0,
                                                                       abs=1e-18)


def test_energy_3d_single_dof_difference(toy_skeleton, rng):
    pose = random_pose(rng, toy_skeleton, margin=0.3)
    net, trans = targets_from_poses(toy_skeleton, [pose])
    bumped = SkeletalPose(pose.theta.copy(), pose.root_rot, pose.root_trans)
    bumped.theta[2] += 0.1
    value = energy_3d([bumped], net, trans, toy_skeleton)
    assert value == pytest.approx(0.01, abs=1e-12)


def test_energy_3d_matches_direct_sum(toy_skeleton, rng):
    seq = [random_pose(rng, toy_skeleton) for _ in range(4)]
    targets = [random_pose(rng, toy_skeleton) for _ in range(4)]
    net, trans = targets_from_poses(toy_skeleton, targets)
    weights = rng.uniform(0.5, 2.0, toy_skeleton.n_joints)

    w = np.empty(toy_skeleton.total_dof + 6)
    for j in range(toy_skeleton.n_joints):
        w[toy_skeleton.theta_slice(j)] = weights[j]
    w[toy_skeleton.total_dof:] = weights[0]
    expected = 0.0
    for pose, target in zip(seq, targets):
        d = pose_vector(pose) - pose_vector(target)
        expected += float(np.sum(w * d * d))

    value = energy_3d(seq, net, trans, toy_skeleton, joint_weights=weights)
    assert value == pytest.approx(expected, rel=1e-12)


def test_energy_3d_decode_clamps_to_limits(toy_skeleton):
    t_axis = toy_skeleton.theta_slice(3)  # joint "c": X in [-1.3, 0.4]
    target = SkeletalPose(np.zeros(toy_skeleton.total_dof), np.zeros(3),
                          np.zeros(3))
    target.theta[t_axis] = 0.9  # out of range; decode clamps to 0.4
    net = pose_to_quat(toy_skeleton, target).quats.ravel()[None, :]
    theta_hat, _ = net_pose_targets(toy_skeleton, net)
    assert theta_hat[0, t_axis][0] == pytest.approx(0.4, abs=1e-12)


def test_net_pose_targets_refuses_zero_quaternion(toy_skeleton, rng):
    net, _ = targets_from_poses(toy_skeleton, [random_pose(rng, toy_skeleton) for _ in range(3)])
    net[1, 4:8] = 0.0
    with pytest.raises(InvalidInputError, match="cannot normalize zero quaternion"):
        net_pose_targets(toy_skeleton, net)


def test_energy_3d_length_mismatch(toy_skeleton, rng):
    poses = [random_pose(rng, toy_skeleton) for _ in range(2)]
    net, trans = targets_from_poses(toy_skeleton, poses)
    with pytest.raises(InvalidInputError):
        energy_3d(poses[:1], net, trans, toy_skeleton)
    with pytest.raises(InvalidInputError):
        energy_3d(poses, net, trans, toy_skeleton,
                  joint_weights=np.ones(toy_skeleton.n_joints - 1))


def test_energy_2d_single_joint_three_pixels(toy_skeleton, rng):
    camera = make_camera()
    pose = random_pose(rng, toy_skeleton, trans_scale=0.1)
    uv, _ = project_matrix(camera, forward_kinematics(toy_skeleton, pose))
    conf = np.zeros(toy_skeleton.n_joints)
    conf[2] = 1.0
    keypoints = uv.copy()
    keypoints[2, 0] += 3.0
    obs = Observations(keypoints[None], conf[None])
    assert energy_2d(pose, obs, camera, toy_skeleton) == pytest.approx(
        9.0, abs=1e-9)


def test_energy_2d_gate_excludes_conf_079(toy_skeleton, rng):
    camera = make_camera()
    pose = random_pose(rng, toy_skeleton, trans_scale=0.1)
    uv, _ = project_matrix(camera, forward_kinematics(toy_skeleton, pose))
    conf = np.full(toy_skeleton.n_joints, 1.0)
    conf[1] = 0.79
    base = Observations(uv.copy()[None], conf[None])
    value = energy_2d(pose, base, camera, toy_skeleton, threshold=0.8)

    moved = uv.copy()
    moved[1] += 500.0  # gated-out joint: moving it must change nothing
    value_moved = energy_2d(pose, Observations(moved[None], conf[None]),
                            camera, toy_skeleton, threshold=0.8)
    assert value_moved == value

    conf_in = conf.copy()
    conf_in[1] = 0.8  # at the threshold the joint participates
    value_in = energy_2d(pose, Observations(moved[None], conf_in[None]),
                         camera, toy_skeleton, threshold=0.8)
    assert value_in > value + 1.0


def test_energy_2d_matches_direct_sum(toy_skeleton, rng):
    camera = make_camera()
    seq = [random_pose(rng, toy_skeleton, trans_scale=0.1) for _ in range(5)]
    keypoints, conf = [], []
    for pose in seq:
        uv, _ = project_matrix(camera, forward_kinematics(toy_skeleton, pose))
        keypoints.append(uv + rng.normal(0, 3, uv.shape))
        conf.append(rng.uniform(0, 1, len(uv)))
    obs = observations_of(keypoints, conf)
    expected = 0.0
    for pose, frame in zip(seq, frame_rows(obs)):
        included = frame.conf >= 0.8
        if not np.any(included):
            continue
        uv, z = project_matrix(camera, forward_kinematics(toy_skeleton, pose))
        err = 0.0
        for j in np.flatnonzero(included):
            if z[j] > 1e-6:
                err += float(np.sum((uv[j] - frame.keypoints[j]) ** 2))
        expected += err / int(np.sum(included))
    expected /= len(seq)
    assert energy_2d(stack_poses(seq), obs, camera, toy_skeleton) == pytest.approx(
        expected, rel=1e-12)


def test_energy_2d_empty_gate_contributes_zero(toy_skeleton, rng):
    camera = make_camera()
    pose = random_pose(rng, toy_skeleton, trans_scale=0.1)
    uv, _ = project_matrix(camera, forward_kinematics(toy_skeleton, pose))
    obs = Observations(uv[None], np.full((1, toy_skeleton.n_joints), 0.5))
    assert energy_2d(pose, obs, camera, toy_skeleton) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_energy_2d_equals_per_frame_oracle(seed):
    """The unit-weight reprojection term's cost equals the per-frame loop to
    rounding, on sequences whose last frame is fully gated and whose first
    frame has a gated-in joint behind the camera."""
    rng = np.random.default_rng(seed)
    skeleton = make_random_skeleton(rng) if seed % 2 else make_toy_skeleton()
    n_frames = int(rng.integers(2, 6))
    seq = [random_pose(rng, skeleton, trans_scale=0.1) for _ in range(n_frames)]
    pos = np.stack([forward_kinematics(skeleton, p) for p in seq])
    centre = pos.mean(axis=(0, 1))
    far = int(np.argmax(np.linalg.norm(pos[0] - centre, axis=1)))
    camera = look_at(centre + 0.6 * (pos[0, far] - centre), centre,
                     500.0, 480.0, 320.0, 240.0)
    _, _, valid = project_points(camera, pos)
    conf = rng.uniform(0.0, 1.0, (n_frames, skeleton.n_joints))
    conf[0] = 1.0
    conf[-1] = rng.uniform(0.0, 0.79, skeleton.n_joints)
    obs = Observations(rng.uniform(0.0, 640.0, (n_frames, skeleton.n_joints, 2)), conf)
    assert not valid[0, far] and valid[0].any()
    for threshold in (0.8, 0.5):
        expected = energy_2d_per_frame(seq, obs, camera, skeleton, threshold)
        value = energy_2d(stack_poses(seq), obs, camera, skeleton, threshold)
        assert expected > 0.0
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_energy_temporal_translation_step(toy_skeleton, rng):
    pose = random_pose(rng, toy_skeleton)
    second = SkeletalPose(pose.theta, pose.root_rot,
                          pose.root_trans + np.array([0.0, 0.0, 1.0]))
    net, trans = targets_from_poses(toy_skeleton, [pose, second])
    assert energy_temporal(net, trans, toy_skeleton) == pytest.approx(
        1.0, abs=1e-12)


def test_energy_temporal_constant_motion_is_zero(toy_skeleton, rng):
    pose = random_pose(rng, toy_skeleton)
    net, trans = targets_from_poses(toy_skeleton, [pose, pose, pose])
    assert energy_temporal(net, trans, toy_skeleton) == pytest.approx(
        0.0, abs=1e-18)


def test_energy_temporal_matches_direct_sum(toy_skeleton, rng):
    poses = [random_pose(rng, toy_skeleton) for _ in range(5)]
    net, trans = targets_from_poses(toy_skeleton, poses)
    p = np.stack([pose_vector(pose) for pose in poses])
    expected = float(np.sum(np.diff(p, axis=0) ** 2))
    assert energy_temporal(net, trans, toy_skeleton) == pytest.approx(
        expected, rel=1e-12)
    with pytest.raises(InvalidInputError):
        energy_temporal(net[:1], trans[:1], toy_skeleton)


def test_energy_silhouette_zero_and_uniform_shift(toy_skeleton, rng):
    camera = make_camera()
    body = default_body(toy_skeleton)
    pose = random_pose(rng, toy_skeleton, trans_scale=0.1)
    model = silhouette_points(camera, toy_skeleton, pose, body, 24)

    exact = energy_silhouette([pose], [model], camera, toy_skeleton, body,
                              n_points=24)
    assert exact == pytest.approx(0.0, abs=1e-18)

    shifted = model + np.array([2.0, 0.0])
    value = energy_silhouette([pose], [shifted], camera, toy_skeleton, body,
                              n_points=24)
    assert value == pytest.approx(4.0, abs=1e-9)


def test_energy_silhouette_matches_chamfer_oracle(toy_skeleton, rng):
    camera = make_camera()
    body = default_body(toy_skeleton)
    seq = [random_pose(rng, toy_skeleton, trans_scale=0.1) for _ in range(3)]
    sils = [rng.uniform(100.0, 500.0, (rng.integers(5, 12), 2)) for _ in seq]
    expected = 0.0
    for pose, observed in zip(seq, sils):
        model = silhouette_points(camera, toy_skeleton, pose, body, 24)
        expected += 0.5 * (chamfer_sq(observed, model) +
                           chamfer_sq(model, observed))
    expected /= len(seq)
    value = energy_silhouette(seq, sils, camera, toy_skeleton, body,
                              n_points=24)
    assert value == pytest.approx(expected, rel=1e-12)


def test_energy_silhouette_empty_frames_skipped(toy_skeleton, rng):
    camera = make_camera()
    body = default_body(toy_skeleton)
    seq = [random_pose(rng, toy_skeleton, trans_scale=0.1) for _ in range(2)]
    sils = [np.zeros((0, 2)), np.zeros((0, 2))]
    assert energy_silhouette(seq, sils, camera, toy_skeleton, body) == 0.0


def test_energy_weights_validation():
    EnergyWeights()
    with pytest.raises(InvalidInputError):
        EnergyWeights(lambda_2d=-0.1)
    with pytest.raises(InvalidInputError):
        EnergyWeights(conf_threshold=1.5)
