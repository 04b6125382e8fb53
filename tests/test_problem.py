"""Residual/Jacobian builders: cost identities, FD checks, bounded angles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocorr.camera import default_body, look_at, silhouette_points
from mocorr.errors import InvalidInputError
from mocorr.motion import FrameObservations
from mocorr.optim.energies import (
    EnergyWeights,
    energy_2d,
    energy_3d,
    energy_silhouette,
    energy_temporal,
)
from mocorr.optim.kinematics import (
    fk_jacobian,
    params_to_pose,
    pose_params,
    projection_jacobian,
)
from mocorr.optim.lm import levenberg_marquardt, LMOptions, numeric_jacobian
from mocorr.optim.problem import BoundedAngles, PoseProblem, TranslationProblem, View
from mocorr.skeleton import (
    Joint,
    SkeletalPose,
    SkeletonModel,
    fk_frames,
    forward_kinematics,
    pose_to_quat,
)

from conftest import make_random_skeleton, make_toy_skeleton, random_pose
from oracles import (
    central_diff,
    fk_frames_per_frame,
    fk_jacobian_per_frame,
    grad_check,
    project_matrix,
)


def make_camera(angle=0.0):
    position = np.array([2.5 * np.sin(angle), 1.2, 2.5 * np.cos(angle)])
    return look_at(position, np.zeros(3), 500.0, 480.0, 320.0, 240.0)


def observed_frames(rng, skeleton, camera, seq, noise=2.0, with_sil=False,
                    body=None, n_sil=16):
    frames = []
    for pose in seq:
        uv, _ = project_matrix(camera, forward_kinematics(skeleton, pose))
        conf = rng.uniform(0.5, 1.0, skeleton.n_joints)
        conf[rng.integers(0, skeleton.n_joints)] = 0.4  # some gated out
        sil = np.zeros((0, 2))
        if with_sil:
            sil = silhouette_points(camera, skeleton, pose, body, n_sil)
            sil = sil + rng.normal(0.0, 1.0, sil.shape)
        frames.append(FrameObservations(uv + rng.normal(0.0, noise, uv.shape),
                                        conf, sil))
    return frames


def seq_to_net(skeleton, seq):
    return np.stack([pose_to_quat(skeleton, p).quats.ravel() for p in seq])


def build_problem(rng, skeleton, t=3, with_sil=True, temporal=True):
    body = default_body(skeleton)
    cam_a, cam_b = make_camera(0.0), make_camera(2.0)
    seq = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(t)]
    frames_a = observed_frames(rng, skeleton, cam_a, seq, with_sil=with_sil,
                               body=body)
    frames_b = observed_frames(rng, skeleton, cam_b, seq)
    views = [View(cam_a, frames_a, weight=0.6), View(cam_b, frames_b,
                                                     weight=0.4)]
    targets = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
               for _ in range(t)]
    net = seq_to_net(skeleton, targets)
    weights = EnergyWeights(lambda_2d=1.3, lambda_t=5.0, lambda_s=0.7)
    problem = PoseProblem(
        skeleton, views, weights, net_quats=net, body=body if with_sil else None,
        sil_camera=cam_a if with_sil else None,
        sil_frames=frames_a if with_sil else None, n_sil=16, temporal=temporal)
    return problem, seq, net, views, weights


def test_cost_identity_with_all_terms(toy_skeleton):
    rng = np.random.default_rng(40)
    problem, seq, net, views, weights = build_problem(rng, toy_skeleton)
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    poses = problem.poses(x)
    trans = np.stack([p.root_trans for p in poses])

    r = problem.residuals(x)
    cost = float(r @ r)

    e3d = energy_3d(poses, net, trans, toy_skeleton)
    e2d = sum(v.weight * energy_2d(poses, v.frames, v.camera, toy_skeleton)
              for v in views)
    et = energy_temporal(seq_to_net(toy_skeleton, poses), trans, toy_skeleton)
    es = energy_silhouette(poses, [f.silhouette for f in views[0].frames],
                           views[0].camera, toy_skeleton,
                           default_body(toy_skeleton), n_points=16)
    expected = e3d + weights.lambda_2d * e2d + weights.lambda_t * et \
        + weights.lambda_s * es
    assert cost == pytest.approx(expected, rel=1e-10)


def test_pose_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(41)
    problem, seq, *_ = build_problem(rng, toy_skeleton)
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    analytic = problem.jacobian(x).toarray()
    numeric = central_diff(problem.residuals, x, 1e-6)
    assert grad_check(analytic, numeric, rtol=1e-4) < 1e-4


def test_pose_jacobian_terms_isolated(toy_skeleton):
    rng = np.random.default_rng(42)
    # 3D + temporal only (no views, no silhouette)
    seq = [random_pose(rng, toy_skeleton, margin=0.25) for _ in range(4)]
    net = seq_to_net(toy_skeleton,
                     [random_pose(rng, toy_skeleton, margin=0.25)
                      for _ in range(4)])
    weights = EnergyWeights(lambda_t=3.0)
    problem = PoseProblem(toy_skeleton, [], weights, net_quats=net)
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    analytic = problem.jacobian(x).toarray()
    numeric = central_diff(problem.residuals, x, 1e-6)
    assert grad_check(analytic, numeric, rtol=1e-4) < 1e-4

    # 2D only
    rng2 = np.random.default_rng(43)
    problem2, seq2, *_ = build_problem(rng2, toy_skeleton, with_sil=False,
                                       temporal=False)
    x2 = problem2.pack(np.stack([p.theta for p in seq2]),
                       np.stack([p.root_rot for p in seq2]),
                       np.stack([p.root_trans for p in seq2]))
    analytic2 = problem2.jacobian(x2).toarray()
    numeric2 = central_diff(problem2.residuals, x2, 1e-6)
    assert grad_check(analytic2, numeric2, rtol=1e-4) < 1e-4


def test_gated_joint_is_frozen_out(toy_skeleton):
    rng = np.random.default_rng(44)
    problem, seq, net, views, weights = build_problem(rng, toy_skeleton,
                                                      with_sil=False)
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    base = problem.residuals(x).copy()
    # Move every keypoint whose confidence sits below the 0.8 gate.
    for view in views:
        for frame in view.frames:
            frame.keypoints[frame.conf < 0.8] += 1234.5
    problem2 = PoseProblem(toy_skeleton, views, weights, net_quats=net)
    after = problem2.residuals(x)
    assert np.array_equal(base, after)


def test_empty_problem_rejected(toy_skeleton):
    with pytest.raises(InvalidInputError):
        PoseProblem(toy_skeleton, [], EnergyWeights())


def test_view_frame_count_mismatch(toy_skeleton):
    rng = np.random.default_rng(45)
    cam = make_camera()
    seq = [random_pose(rng, toy_skeleton) for _ in range(3)]
    frames = observed_frames(rng, toy_skeleton, cam, seq)
    with pytest.raises(InvalidInputError):
        PoseProblem(toy_skeleton, [View(cam, frames), View(cam, frames[:2])],
                    EnergyWeights())


def test_bounded_angles_strictly_interior(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(46)
    for _ in range(50):
        u = rng.uniform(-30.0, 30.0, toy_skeleton.total_dof)
        theta = bounds.theta(u)
        assert np.all(theta > toy_skeleton.theta_min)
        assert np.all(theta < toy_skeleton.theta_max)


def test_bounded_angles_round_trip(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(47)
    lo, hi = toy_skeleton.theta_min, toy_skeleton.theta_max
    theta = lo + (hi - lo) * rng.uniform(0.01, 0.99, toy_skeleton.total_dof)
    back = bounds.theta(bounds.u_from_theta(theta))
    assert np.max(np.abs(back - theta)) < 1e-9


def test_bounded_angles_derivative(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(48)
    u = rng.uniform(-3.0, 3.0, toy_skeleton.total_dof)
    numeric = central_diff(bounds.theta, u, 1e-6)
    assert np.allclose(np.diag(bounds.dtheta_du(u)), numeric, atol=1e-8)


def test_fk_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(49)
    for _ in range(5):
        pose = random_pose(rng, toy_skeleton, margin=0.2)
        _, _, jac = fk_jacobian(toy_skeleton, pose)

        def positions(p):
            return forward_kinematics(toy_skeleton,
                                      params_to_pose(toy_skeleton, p)).ravel()

        numeric = central_diff(positions, pose_params(pose), 1e-6)
        analytic = jac.reshape(-1, jac.shape[2])
        assert grad_check(analytic, numeric, rtol=1e-6) < 1e-6


def stack_poses(seq):
    return SkeletalPose(np.stack([p.theta for p in seq]),
                        np.stack([p.root_rot for p in seq]),
                        np.stack([p.root_trans for p in seq]))


def test_batched_fk_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(52)
    seq = stack_poses([random_pose(rng, toy_skeleton, margin=0.2) for _ in range(3)])
    _, _, jac = fk_jacobian(toy_skeleton, seq)
    assert jac.shape == (3, toy_skeleton.n_joints, 3, toy_skeleton.total_dof + 6)
    d = toy_skeleton.total_dof

    def positions(p):
        return forward_kinematics(toy_skeleton, params_to_pose(toy_skeleton, p)).ravel()

    for t in range(3):
        params = np.concatenate([seq.theta[t], seq.root_rot[t], seq.root_trans[t]])
        numeric = central_diff(positions, params, 1e-6)
        analytic = jac[t].reshape(-1, d + 6)
        assert grad_check(analytic, numeric, rtol=1e-6) < 1e-6


def _strip_dofs(skeleton, fixed):
    """The same tree with the angles of the joints in `fixed` removed."""
    joints = [Joint(j.name, j.parent, j.offset, () if i in fixed else j.dof,
                    np.zeros((0, 2)) if i in fixed else j.limits)
              for i, j in enumerate(skeleton.joints)]
    return SkeletonModel(joints, skeleton.region_map)


@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 6),
       fixed_share=st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=60, deadline=None)
def test_batched_fk_equals_per_frame_oracle(seed, n_frames, fixed_share):
    """FK and its Jacobian over a leading frame axis reproduce the per-frame
    loops bit for bit, joints without angles included."""
    rng = np.random.default_rng(seed)
    skeleton = make_random_skeleton(rng)
    fixed = {i for i in range(1, skeleton.n_joints) if rng.uniform() < fixed_share}
    skeleton = _strip_dofs(skeleton, fixed)
    seq = [random_pose(rng, skeleton) for _ in range(n_frames)]
    pos, rot = fk_frames(skeleton, stack_poses(seq))
    jpos, jrot, jac = fk_jacobian(skeleton, stack_poses(seq))
    n = skeleton.n_joints
    assert pos.shape == (n_frames, n, 3) and rot.shape == (n_frames, n, 3, 3)
    assert jac.shape == (n_frames, n, 3, skeleton.total_dof + 6)
    for t, pose in enumerate(seq):
        ref_pos, ref_rot = fk_frames_per_frame(skeleton, pose)
        _, _, ref_jac = fk_jacobian_per_frame(skeleton, pose)
        assert np.array_equal(pos[t], ref_pos) and np.array_equal(rot[t], ref_rot)
        assert np.array_equal(jpos[t], ref_pos) and np.array_equal(jrot[t], ref_rot)
        assert np.array_equal(jac[t], ref_jac)
        # a single pose keeps its unbatched shapes and the same values
        one_pos, one_rot = fk_frames(skeleton, pose)
        assert np.array_equal(one_pos, ref_pos) and np.array_equal(one_rot, ref_rot)
        assert np.array_equal(fk_jacobian(skeleton, pose)[2], ref_jac)


def test_projection_jacobian_of_a_stack_matches_single_points(toy_skeleton):
    rng = np.random.default_rng(53)
    camera = make_camera(1.0)
    points = rng.uniform(-0.5, 0.5, (4, 5, 3))
    points[1, 2] = -camera.rotation.T @ camera.translation - camera.rotation[2] * 0.5
    duv, z, vis = projection_jacobian(camera, points)
    assert duv.shape == (4, 5, 2, 3) and z.shape == vis.shape == (4, 5)
    assert not vis[1, 2] and np.all(duv[1, 2] == 0.0)
    for idx in np.ndindex(4, 5):
        one_duv, one_z, one_vis = projection_jacobian(camera, points[idx])
        assert np.array_equal(duv[idx], one_duv)
        assert z[idx] == one_z and vis[idx] == one_vis


def test_projection_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(50)
    camera = make_camera(1.0)
    for _ in range(10):
        point = rng.uniform(-0.5, 0.5, 3)
        duv, z, vis = projection_jacobian(camera, point)
        assert vis and z > 0
        numeric = central_diff(lambda p: project_matrix(camera, p[None, :])[0].ravel(),
                               point, 1e-7)
        assert grad_check(duv, numeric, rtol=1e-6) < 1e-6
    behind = -camera.rotation.T @ camera.translation \
        - camera.rotation[2] * 0.5
    duv, z, vis = projection_jacobian(camera, behind)
    assert not vis and np.all(duv == 0.0)


def test_translation_problem_cost_identity_and_fd(toy_skeleton):
    rng = np.random.default_rng(51)
    camera = make_camera(0.5)
    seq = [random_pose(rng, toy_skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(4)]
    frames = observed_frames(rng, toy_skeleton, camera, seq)
    weights = EnergyWeights(lambda_2d=1.0, lambda_t=2.0)
    problem = TranslationProblem(toy_skeleton, camera, frames, weights, seq)

    trans = np.stack([p.root_trans for p in seq]) + rng.normal(0, 0.05, (4, 3))
    x = problem.pack(trans)
    r = problem.residuals(x)
    cost = float(r @ r)

    moved = [SkeletalPose(p.theta, p.root_rot, trans[t])
             for t, p in enumerate(seq)]
    expected = weights.lambda_2d * energy_2d(moved, frames, camera,
                                             toy_skeleton) \
        + weights.lambda_t * float(np.sum(np.diff(trans, axis=0) ** 2))
    assert cost == pytest.approx(expected, rel=1e-10)

    analytic = problem.jacobian(x).toarray()
    numeric = central_diff(problem.residuals, x, 1e-7)
    assert grad_check(analytic, numeric, rtol=1e-5) < 1e-5


def test_translation_solve_reduces_reprojection(toy_skeleton):
    rng = np.random.default_rng(52)
    camera = make_camera(0.8)
    seq = [random_pose(rng, toy_skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(4)]
    frames = observed_frames(rng, toy_skeleton, camera, seq, noise=0.5)
    weights = EnergyWeights(lambda_2d=1.0, lambda_t=0.1)
    problem = TranslationProblem(toy_skeleton, camera, frames, weights, seq)
    x0 = problem.pack(np.stack([p.root_trans for p in seq])
                      + rng.normal(0, 0.1, (4, 3)))
    result = levenberg_marquardt(problem.residuals, x0, problem.jacobian,
                                 LMOptions(max_iterations=50))
    assert result.cost < float(problem.residuals(x0) @ problem.residuals(x0))
    history = np.array(result.cost_history)
    assert np.all(np.diff(history) <= 0.0)


def test_translation_problem_pose_count_mismatch(toy_skeleton):
    rng = np.random.default_rng(53)
    camera = make_camera()
    seq = [random_pose(rng, toy_skeleton) for _ in range(3)]
    frames = observed_frames(rng, toy_skeleton, camera, seq)
    with pytest.raises(InvalidInputError):
        TranslationProblem(toy_skeleton, camera, frames, EnergyWeights(),
                           seq[:2])
