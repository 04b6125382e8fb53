"""Residual/Jacobian builders: cost identities, FD checks, bounded angles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocorr.camera import (
    PIECE_KINDS,
    bone_stadiums,
    default_body,
    look_at,
    piece_points,
    project_points,
)
from mocorr.errors import EmptySilhouetteError, InvalidInputError
from mocorr.motion import Observations
from mocorr.numerics import sigmoid
from mocorr.optim.energies import EnergyWeights, net_pose_targets
from mocorr.optim.kinematics import fk_jacobian, projection_jacobian
from mocorr.optim.lm import (
    LMOptions,
    _solve_normal_equations,
    levenberg_marquardt,
    numeric_jacobian,
)
from mocorr.optim.problem import (
    BlockJacobian,
    BoundedAngles,
    PoseProblem,
    Reprojection,
    TranslationProblem,
    View,
)
from mocorr.skeleton import (
    Joint,
    SkeletalPose,
    SkeletonModel,
    default_skeleton,
    fk_frames,
    forward_kinematics,
    pose_to_quat,
)

from conftest import (
    aimed_bone_scene,
    frame_rows,
    frames_of,
    make_random_skeleton,
    make_toy_skeleton,
    observations_of,
    random_pose,
    stack_poses,
    take_frames,
)
from oracles import (
    central_diff,
    energy_2d_per_frame,
    energy_3d,
    energy_silhouette,
    energy_temporal,
    fk_frames_per_frame,
    fk_jacobian_own_fk,
    fk_jacobian_per_frame,
    grad_check,
    params_to_pose,
    pose_jacobian_sparse,
    pose_params,
    pose_residuals_ragged,
    pose_to_quat_per_frame,
    project_matrix,
    ragged_rows,
    silhouette_point_jacobians_per_frame,
    silhouette_points,
    silhouette_structure_per_frame,
    ReprojectionPerView,
    terms_as_they_were,
    translation_jacobian_sparse,
    translation_residuals_ragged,
)


def make_camera(angle=0.0):
    position = np.array([2.5 * np.sin(angle), 1.2, 2.5 * np.cos(angle)])
    return look_at(position, np.zeros(3), 500.0, 480.0, 320.0, 240.0)


def observed_frames(rng, skeleton, camera, seq, noise=2.0, with_sil=False,
                    body=None, n_sil=16):
    keypoints, confs, outlines = [], [], []
    for pose in seq:
        uv, _ = project_matrix(camera, forward_kinematics(skeleton, pose))
        conf = rng.uniform(0.5, 1.0, skeleton.n_joints)
        conf[rng.integers(0, skeleton.n_joints)] = 0.4  # some gated out
        sil = np.zeros((0, 2))
        if with_sil:
            sil = silhouette_points(camera, skeleton, pose, body, n_sil)
            sil = sil + rng.normal(0.0, 1.0, sil.shape)
        keypoints.append(uv + rng.normal(0.0, noise, uv.shape))
        confs.append(conf)
        outlines.append(sil)
    return observations_of(keypoints, confs, outlines)


def seq_to_net(skeleton, seq):
    return np.stack([pose_to_quat(skeleton, p).quats.ravel() for p in seq])


def fixed_angles(seq):
    """The angles and root rotations (T, ·) a translation problem holds."""
    return np.stack([p.theta for p in seq]), np.stack([p.root_rot for p in seq])


def build_problem(rng, skeleton, t=3, with_sil=True, blind_frame=None,
                  ragged_outlines=False):
    """A pose problem with two views; with blind_frame, no joint of that
    frame clears the confidence gate in the second view; with
    ragged_outlines, frame 1 observes 10 of its 16 outline points and the
    last frame none."""
    body = default_body(skeleton)
    cam_a, cam_b = make_camera(0.0), make_camera(2.0)
    seq = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(t)]
    frames_a = observed_frames(rng, skeleton, cam_a, seq, with_sil=with_sil,
                               body=body)
    frames_b = observed_frames(rng, skeleton, cam_b, seq)
    if ragged_outlines:
        frames_a.sil_count[1] = 10
        frames_a.sil_count[-1] = 0
    if blind_frame is not None:
        frames_b.conf[blind_frame] = 0.3
    views = [View(cam_a, frames_a, weight=0.6), View(cam_b, frames_b,
                                                     weight=0.4)]
    targets = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
               for _ in range(t)]
    net = seq_to_net(skeleton, targets)
    weights = EnergyWeights(lambda_2d=1.3, lambda_t=5.0, lambda_s=0.7)
    problem = PoseProblem(
        skeleton, views, weights, anchor=net_pose_targets(skeleton, net),
        body=body if with_sil else None, n_sil=16)
    return problem, seq, net, views, weights


def test_cost_identity_with_all_terms(toy_skeleton):
    rng = np.random.default_rng(40)
    problem, seq, net, views, weights = build_problem(rng, toy_skeleton)
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    poses = frames_of(SkeletalPose(*problem.unpack(x)))
    trans = np.stack([p.root_trans for p in poses])

    r = problem.residuals(x)
    cost = float(r @ r)

    e3d = energy_3d(poses, net, trans, toy_skeleton)
    e2d = sum(v.weight * energy_2d_per_frame(poses, v.obs, v.camera, toy_skeleton)
              for v in views)
    et = energy_temporal(seq_to_net(toy_skeleton, poses), trans, toy_skeleton)
    es = energy_silhouette(poses, [f.silhouette for f in frame_rows(views[0].obs)],
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
    problem = PoseProblem(toy_skeleton, [], weights,
                          anchor=net_pose_targets(toy_skeleton, net))
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    analytic = problem.jacobian(x).toarray()
    numeric = central_diff(problem.residuals, x, 1e-6)
    assert grad_check(analytic, numeric, rtol=1e-4) < 1e-4

    # 2D, with the temporal term every problem of T >= 2 has
    rng2 = np.random.default_rng(43)
    problem2, seq2, *_ = build_problem(rng2, toy_skeleton, with_sil=False)
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
        view.obs.keypoints[view.obs.conf < 0.8] += 1234.5
    problem2 = PoseProblem(toy_skeleton, views, weights,
                           anchor=net_pose_targets(toy_skeleton, net))
    after = problem2.residuals(x)
    assert np.array_equal(base, after)


def test_silhouette_terms_come_from_views_with_outlines(toy_skeleton):
    """With a body and lambda_s > 0, each view whose record holds outline
    points adds a silhouette term through its own camera; without a body,
    or at lambda_s = 0, outlines add nothing."""
    rng = np.random.default_rng(57)
    problem, _, net, views, weights = build_problem(rng, toy_skeleton)
    body, anchor = default_body(toy_skeleton), net_pose_targets(toy_skeleton, net)
    assert views[0].obs.sil_count.all() and not views[1].obs.sil_count.any()
    kinds = ["Reprojection", "Anchor", "Temporal"]
    assert [type(t).__name__ for t in problem.terms] == kinds + ["Silhouette"]
    assert problem.terms[-1].camera is views[0].camera
    for kwargs in ({}, {"body": None},
                   {"body": body, "weights": EnergyWeights(lambda_s=0.0)}):
        kwargs = {"weights": weights} | kwargs
        bare = PoseProblem(toy_skeleton, views, anchor=anchor, n_sil=16, **kwargs)
        assert [type(t).__name__ for t in bare.terms] == kinds
    both = [views[0], View(views[1].camera, views[0].obs, views[1].weight)]
    two = PoseProblem(toy_skeleton, both, weights, anchor=anchor, body=body, n_sil=16)
    assert [term.camera for term in two.terms[3:]] == [views[0].camera, views[1].camera]


def test_empty_problem_rejected(toy_skeleton):
    with pytest.raises(InvalidInputError):
        PoseProblem(toy_skeleton, [], EnergyWeights())


def test_view_frame_count_mismatch(toy_skeleton):
    rng = np.random.default_rng(45)
    cam = make_camera()
    seq = [random_pose(rng, toy_skeleton) for _ in range(3)]
    frames = observed_frames(rng, toy_skeleton, cam, seq)
    with pytest.raises(InvalidInputError):
        PoseProblem(toy_skeleton,
                    [View(cam, frames), View(cam, take_frames(frames, slice(2)))],
                    EnergyWeights())


def test_observations_with_another_joint_count_are_refused(toy_skeleton):
    """A record with one joint fewer than the skeleton is refused by both
    problems, in any view, before a projection reaches numpy broadcasting."""
    rng = np.random.default_rng(44)
    cam = make_camera()
    seq = [random_pose(rng, toy_skeleton) for _ in range(3)]
    frames = observed_frames(rng, toy_skeleton, cam, seq)
    fewer = Observations(frames.keypoints[:, :-1], frames.conf[:, :-1])
    for views in ([View(cam, fewer)], [View(cam, frames), View(cam, fewer)]):
        with pytest.raises(InvalidInputError, match="one keypoint per skeleton joint"):
            PoseProblem(toy_skeleton, views, EnergyWeights())
    with pytest.raises(InvalidInputError, match="one keypoint per skeleton joint"):
        TranslationProblem(toy_skeleton, cam, fewer, EnergyWeights(), *fixed_angles(seq))


def test_bounded_angles_strictly_interior(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(46)
    for _ in range(50):
        u = rng.uniform(-30.0, 30.0, toy_skeleton.total_dof)
        theta = bounds.theta_at(sigmoid(u))
        assert np.all(theta > toy_skeleton.theta_min)
        assert np.all(theta < toy_skeleton.theta_max)


def test_bounded_angles_round_trip(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(47)
    lo, hi = toy_skeleton.theta_min, toy_skeleton.theta_max
    theta = lo + (hi - lo) * rng.uniform(0.01, 0.99, toy_skeleton.total_dof)
    back = bounds.theta_at(sigmoid(bounds.u_from_theta(theta)))
    assert np.max(np.abs(back - theta)) < 1e-9


def test_bounded_angles_derivative(toy_skeleton):
    bounds = BoundedAngles(toy_skeleton)
    rng = np.random.default_rng(48)
    u = rng.uniform(-3.0, 3.0, toy_skeleton.total_dof)
    numeric = central_diff(lambda v: bounds.theta_at(sigmoid(v)), u, 1e-6)
    assert np.allclose(np.diag(bounds.slope_at(sigmoid(u))), numeric, atol=1e-8)


def test_fk_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(49)
    for _ in range(5):
        pose = random_pose(rng, toy_skeleton, margin=0.2)
        jac = fk_jacobian(toy_skeleton, pose, fk_frames(toy_skeleton, pose))

        def positions(p):
            return forward_kinematics(toy_skeleton,
                                      params_to_pose(toy_skeleton, p)).ravel()

        numeric = central_diff(positions, pose_params(pose), 1e-6)
        analytic = jac.reshape(-1, jac.shape[2])
        assert grad_check(analytic, numeric, rtol=1e-6) < 1e-6


def test_batched_fk_jacobian_matches_fd(toy_skeleton):
    rng = np.random.default_rng(52)
    seq = stack_poses([random_pose(rng, toy_skeleton, margin=0.2) for _ in range(3)])
    jac = fk_jacobian(toy_skeleton, seq, fk_frames(toy_skeleton, seq))
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
    fk = fk_frames(skeleton, stack_poses(seq))
    pos, rot = fk
    jac = fk_jacobian(skeleton, stack_poses(seq), fk)
    n = skeleton.n_joints
    assert pos.shape == (n_frames, n, 3) and rot.shape == (n_frames, n, 3, 3)
    assert jac.shape == (n_frames, n, 3, skeleton.total_dof + 6)
    for t, pose in enumerate(seq):
        ref_pos, ref_rot = fk_frames_per_frame(skeleton, pose)
        _, _, ref_jac = fk_jacobian_per_frame(skeleton, pose)
        assert np.array_equal(pos[t], ref_pos) and np.array_equal(rot[t], ref_rot)
        assert np.array_equal(jac[t], ref_jac)
        # a single pose keeps its unbatched shapes and the same values
        one = fk_frames(skeleton, pose)
        one_pos, one_rot = one
        assert np.array_equal(one_pos, ref_pos) and np.array_equal(one_rot, ref_rot)
        assert np.array_equal(fk_jacobian(skeleton, pose, one), ref_jac)


@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 6),
       fixed_share=st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=60, deadline=None)
def test_fk_jacobian_from_shared_fk_equals_own_fk_oracle(seed, n_frames, fixed_share):
    """The Jacobian built on fk_frames' positions and rotations is bit for bit
    the one that ran forward kinematics itself, with root rotations near and
    at zero mixed into the frames."""
    rng = np.random.default_rng(seed)
    skeleton = _strip_dofs(make_random_skeleton(rng), {
        i for i in range(1, 6) if rng.uniform() < fixed_share})
    seq = stack_poses([random_pose(rng, skeleton) for _ in range(n_frames)])
    seq.root_rot[rng.uniform(size=n_frames) < 0.3] *= 1e-9
    seq.root_rot[rng.uniform(size=n_frames) < 0.2] = 0.0
    jac = fk_jacobian(skeleton, seq, fk_frames(skeleton, seq))
    assert np.array_equal(jac, fk_jacobian_own_fk(skeleton, seq)[2])
    for pose in frames_of(seq):
        assert np.array_equal(fk_jacobian(skeleton, pose, fk_frames(skeleton, pose)),
                              fk_jacobian_own_fk(skeleton, pose)[2])


@pytest.mark.parametrize("n_frames", [33, 120])
@pytest.mark.parametrize("tree", ["default", "random with angle-free joints"])
def test_long_sequence_kinematics_equal_per_frame_oracles(n_frames, tree):
    """At the lengths the pipeline runs (T = 120 is the default scene), FK,
    its Jacobian and the quaternion form reproduce the per-frame oracles bit
    for bit."""
    rng = np.random.default_rng(n_frames)
    if tree == "default":
        skeleton = default_skeleton()
    else:
        skeleton = _strip_dofs(make_random_skeleton(rng, n_joints=16), {2, 5, 6, 11})
    poses = [random_pose(rng, skeleton) for _ in range(n_frames)]
    seq = stack_poses(poses)
    fk = fk_frames(skeleton, seq)
    pos, rot = fk
    jac = fk_jacobian(skeleton, seq, fk)
    quats = pose_to_quat(skeleton, seq).quats
    assert quats.shape == (n_frames, skeleton.n_joints, 4)
    for t, pose in enumerate(poses):
        ref_pos, ref_rot = fk_frames_per_frame(skeleton, pose)
        _, _, ref_jac = fk_jacobian_per_frame(skeleton, pose)
        assert np.array_equal(pos[t], ref_pos) and np.array_equal(rot[t], ref_rot)
        assert np.array_equal(jac[t], ref_jac)
        assert np.array_equal(quats[t], pose_to_quat_per_frame(skeleton, pose).quats)


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
    problem = TranslationProblem(toy_skeleton, camera, frames, weights, *fixed_angles(seq))

    trans = np.stack([p.root_trans for p in seq]) + rng.normal(0, 0.05, (4, 3))
    x = problem.pack(trans)
    r = problem.residuals(x)
    cost = float(r @ r)

    moved = [SkeletalPose(p.theta, p.root_rot, trans[t])
             for t, p in enumerate(seq)]
    expected = weights.lambda_2d * energy_2d_per_frame(moved, frames, camera,
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
    problem = TranslationProblem(toy_skeleton, camera, frames, weights, *fixed_angles(seq))
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
                           *fixed_angles(seq[:2]))


def behind_camera_case(toy_skeleton, t=3):
    """A camera placed between the body's centre and its outermost joint,
    looking at the centre, so that joint is behind it in frame 0; every
    joint clears the confidence gate and every depth stays clear of 0."""
    rng = np.random.default_rng(54)
    seq = [random_pose(rng, toy_skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(t)]
    pos = np.stack([forward_kinematics(toy_skeleton, p) for p in seq])
    centre = pos.mean(axis=(0, 1))
    far = int(np.argmax(np.linalg.norm(pos[0] - centre, axis=1)))
    camera = look_at(centre + 0.6 * (pos[0, far] - centre), centre,
                     500.0, 480.0, 320.0, 240.0)
    z = camera.to_camera(pos)[..., 2]
    assert z[0, far] < 0.0 and np.any(z > 0.0) and np.min(np.abs(z)) > 0.01
    frames = Observations(rng.uniform(0.0, 640.0, (t, toy_skeleton.n_joints, 2)),
                          np.ones((t, toy_skeleton.n_joints)))
    return seq, camera, frames, z <= 0.0


def test_joint_behind_camera_has_zero_rows_in_both_problems(toy_skeleton):
    """A gated-in joint behind the camera gets zero reprojection residual and
    Jacobian rows (today's diff[~valid] = 0), and finite differences match
    everywhere, those rows included."""
    seq, camera, frames, behind = behind_camera_case(toy_skeleton)
    weights = EnergyWeights(lambda_2d=1.0, lambda_t=2.0)
    pose = PoseProblem(toy_skeleton, [View(camera, frames)], weights)
    stacked = stack_poses(seq)
    x_pose = pose.pack(stacked.theta, stacked.root_rot, stacked.root_trans)
    trans = TranslationProblem(toy_skeleton, camera, frames, weights, *fixed_angles(seq))
    x_trans = trans.pack(np.stack([p.root_trans for p in seq]))
    for problem, x, step in ((pose, x_pose, 1e-6), (trans, x_trans, 1e-7)):
        reprojection = problem.terms[0]
        assert np.all(reprojection.weight[0][behind] > 0.0)
        rows = np.repeat(behind.ravel(), 2)  # the term's (T, n, 2) rows, first
        r = problem.residuals(x)
        jac = problem.jacobian(x).toarray()
        assert np.all(r[:rows.size][rows] == 0.0) and np.all(jac[:rows.size][rows] == 0.0)
        assert np.all(r[:rows.size][~rows] != 0.0)
        assert np.all(np.any(jac[:rows.size][~rows] != 0.0, axis=1))
        numeric = central_diff(problem.residuals, x, step)
        assert grad_check(jac, numeric, rtol=1e-4) < 1e-4


def test_probe_points_stay_where_the_tracer_looks(toy_skeleton, monkeypatch):
    """The benchmark's tracer wraps only what a class or module defines
    itself (vars), so residuals and jacobian stay on each problem class, not
    on a shared base, and the kernels stay module globals of the problem
    module that the problems call through."""
    import mocorr.optim.problem as problem_module

    for cls in (PoseProblem, TranslationProblem):
        assert "residuals" in vars(cls) and "jacobian" in vars(cls)
    for name in ("fk_frames", "fk_jacobian", "silhouette_structure"):
        assert name in vars(problem_module)
    problem, seq, *_ = build_problem(np.random.default_rng(56), toy_skeleton)
    stacked = stack_poses(seq)
    x = problem.pack(stacked.theta, stacked.root_rot, stacked.root_trans)
    calls = []
    fk_frames_real = problem_module.fk_frames

    def counting(*args, **kwargs):
        calls.append(args)
        return fk_frames_real(*args, **kwargs)

    monkeypatch.setattr(problem_module, "fk_frames", counting)
    problem.residuals(x)
    assert len(calls) == 1


def test_one_forward_kinematics_pass_per_iterate(toy_skeleton, monkeypatch):
    """residuals(x) then jacobian(x) walks the tree once: the Jacobian reuses
    the residuals' FK. A Jacobian with no residuals before it runs FK itself
    and is bit for bit the same."""
    import mocorr.optim.kinematics as kinematics_module
    import mocorr.skeleton as skeleton_module

    rng = np.random.default_rng(57)
    problem, seq, *_ = build_problem(rng, toy_skeleton)
    fresh = build_problem(np.random.default_rng(57), toy_skeleton)[0]
    stacked = stack_poses(seq)
    x = problem.pack(stacked.theta, stacked.root_rot, stacked.root_trans)
    walks = []
    fk_chain_real = skeleton_module.fk_chain

    def counting(*args, **kwargs):
        walks.append(args)
        return fk_chain_real(*args, **kwargs)

    # wherever the kinematics could look the tree walk up
    for module in (skeleton_module, kinematics_module):
        monkeypatch.setattr(module, "fk_chain", counting, raising=False)
    problem.residuals(x)
    jac = problem.jacobian(x)
    assert len(walks) == 1
    alone = fresh.jacobian(x)
    assert len(walks) == 2
    assert np.array_equal(jac.toarray(), alone.toarray())
    assert np.array_equal(problem.residuals(x), fresh.residuals(x)) and len(walks) == 2


def test_residuals_then_jacobian_build_the_angle_products_once(toy_skeleton, monkeypatch):
    """The Jacobian reuses the running products that the residuals' FK
    built, so one iterate builds each joint's axis rotations once."""
    import mocorr.optim.kinematics as kinematics_module
    import mocorr.skeleton as skeleton_module

    problem, seq, *_ = build_problem(np.random.default_rng(58), toy_skeleton)
    stacked = stack_poses(seq)
    x = problem.pack(stacked.theta, stacked.root_rot, stacked.root_trans)
    calls = []
    angle_products_real = skeleton_module.angle_products

    def counting(*args, **kwargs):
        calls.append(args)
        return angle_products_real(*args, **kwargs)

    # wherever the kinematics could look the products up
    for module in (skeleton_module, kinematics_module):
        monkeypatch.setattr(module, "angle_products", counting, raising=False)
    problem.residuals(x)
    problem.jacobian(x)
    assert len(calls) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["angle", "root_rot", "root_trans"])
def test_non_finite_x_is_refused(toy_skeleton, column, value):
    """A NaN or inf anywhere in x raises InvalidInputError, from the
    residuals and from a Jacobian with no residuals before it; an infinite
    angle parameter would otherwise map to a finite angle at its limit."""
    problem, seq, *_ = build_problem(np.random.default_rng(59), toy_skeleton)
    stacked = stack_poses(seq)
    x = problem.pack(stacked.theta, stacked.root_rot, stacked.root_trans)
    col = {"angle": 0, "root_rot": problem.D, "root_trans": problem.D + 3}[column]
    x.reshape(problem.T, problem.Pf)[-1, col] = value
    for evaluate in (problem.residuals, problem.jacobian):
        with pytest.raises(InvalidInputError, match="finite"):
            evaluate(x)


# --- silhouette term -----------------------------------------------------------


def aimed_problem(rng, seq, n_sil=32):
    """Pose problem on aimed_bone_scene's skeleton, body and camera: one
    keypoint view and silhouettes, both from that camera. A frame whose body
    is behind the camera observes frame 0's outline."""
    skeleton, body, camera, _ = aimed_bone_scene()
    keypoints, outlines = [], []
    for pose in frames_of(seq):
        uv, _, _ = project_points(camera, forward_kinematics(skeleton, pose))
        try:
            sil = silhouette_points(camera, skeleton, pose, body, 24)
        except EmptySilhouetteError:
            sil = outlines[0]
        keypoints.append(uv + rng.normal(0.0, 2.0, uv.shape))
        outlines.append(sil + rng.normal(0.0, 1.0, sil.shape))
    frames = observations_of(keypoints, [np.ones(skeleton.n_joints)] * len(keypoints),
                             outlines)
    weights = EnergyWeights(lambda_2d=1.0, lambda_t=2.0, lambda_s=0.5)
    problem = PoseProblem(skeleton, [View(camera, frames)], weights, body=body,
                          n_sil=n_sil)
    return problem, problem.pack(seq.theta, seq.root_rot, seq.root_trans)


def brute_nearest(a, b):
    return np.array([int(np.argmin(np.sum((b - p) ** 2, axis=1))) for p in a])


def test_lost_silhouette_frame_rows_are_inf_and_jacobian_raises():
    """A frame whose body is behind the camera gets inf silhouette rows; all
    other rows equal the per-frame oracle path; no Jacobian exists there."""
    rng = np.random.default_rng(60)
    skeleton, body, camera, seq = aimed_bone_scene()
    seq = SkeletalPose(np.concatenate([seq.theta, seq.theta[:1]]),
                       np.concatenate([seq.root_rot, [[0.1, 0.2, 0.0]]]),
                       np.concatenate([seq.root_trans, [[0.0, 0.0, -5.0]]]))
    problem, x = aimed_problem(rng, seq)
    r = problem.residuals(x)
    head = PoseProblem(skeleton, problem.views, problem.weights).residuals(x)
    assert np.array_equal(r[:head.size], head)
    cur = head.size
    sil = problem.terms[-1]
    assert np.array_equal(sil.frames, np.arange(problem.T)) and not sil.pad.any()
    poses = frames_of(problem._state(x)["frames"])
    for t, pose in enumerate(poses):
        obs = sil.obs[t]
        rows = 2 * (obs.shape[0] + sil.n)
        if t == 2:
            assert np.all(r[cur:cur + rows] == np.inf)
        else:
            pts, _ = silhouette_structure_per_frame(camera, skeleton, pose, body, sil.n)
            w_o = np.sqrt(problem.weights.lambda_s * 0.5 / (problem.T * obs.shape[0]))
            w_m = np.sqrt(problem.weights.lambda_s * 0.5 / (problem.T * sil.n))
            expected = np.concatenate([
                ((pts[brute_nearest(obs, pts)] - obs) * w_o).ravel(),
                ((pts - obs[brute_nearest(pts, obs)]) * w_m).ravel()])
            assert np.array_equal(r[cur:cur + rows], expected)
        cur += rows
    assert cur == r.size
    with pytest.raises(InvalidInputError, match="silhouette lost"):
        problem.jacobian(x)


def point_state(problem, x):
    """The silhouette term and the pose problem's state at x, FK Jacobian
    included."""
    state = problem._state(x)
    state["jpos"] = fk_jacobian(problem.skeleton, state["frames"], state["fk"])
    return problem.terms[-1], state


def assert_point_jacobians_match_oracle(problem, x):
    sil, st = point_state(problem, x)
    dmodel = sil.point_jacobians(st)
    poses = frames_of(st["frames"])
    for k, t in enumerate(sil.frames):
        _, records = silhouette_structure_per_frame(
            sil.camera, sil.skeleton, poses[t], sil.body, sil.n)
        ref = silhouette_point_jacobians_per_frame(sil, st, t, records)
        assert np.array_equal(dmodel[k], ref)


def test_batched_silhouette_point_jacobians_equal_per_frame_oracle(toy_skeleton):
    rng = np.random.default_rng(61)
    problem, x = aimed_problem(rng, aimed_bone_scene()[3])
    assert_point_jacobians_match_oracle(problem, x)
    for seed in range(62, 66):
        rng = np.random.default_rng(seed)
        skeleton = make_random_skeleton(rng) if seed % 2 else toy_skeleton
        problem, seq, *_ = build_problem(rng, skeleton, t=int(rng.integers(1, 5)))
        x = problem.pack(np.stack([p.theta for p in seq]),
                         np.stack([p.root_rot for p in seq]),
                         np.stack([p.root_trans for p in seq]))
        assert_point_jacobians_match_oracle(problem, x + rng.normal(0.0, 0.05, x.shape))


def test_silhouette_point_jacobians_match_fd_on_every_piece_kind():
    """Moving the pose with the sampling records frozen moves each point as
    the analytic point Jacobian says, on all five piece kinds."""
    rng = np.random.default_rng(67)
    skeleton, body, camera, seq = aimed_bone_scene()
    problem, x = aimed_problem(rng, seq)
    sil, st = point_state(problem, x)
    outline = sil._structure(st)[0]
    kinds = outline.kind.ravel()
    assert set(kinds) == set(range(len(PIECE_KINDS)))
    dmodel = sil.point_jacobians(st)
    frames = st["frames"]
    params = np.concatenate([frames.theta, frames.root_rot, frames.root_trans], axis=1)
    d, pf = problem.D, problem.Pf

    def points_at(p):
        p = p.reshape(-1, pf)
        pos = fk_frames(skeleton, SkeletalPose(p[:, :d], p[:, d:d + 3], p[:, d + 3:]))[0]
        stadiums = bone_stadiums(camera, skeleton, pos[sil.frames], body)
        return piece_points(stadiums, outline.stadium.ravel(), kinds,
                            outline.frac.ravel())

    assert np.array_equal(points_at(params.ravel()), outline.points.reshape(-1, 2))
    numeric = central_diff(lambda p: points_at(p).ravel(), params.ravel(), 1e-6)
    numeric = numeric.reshape(kinds.size, 2, -1)
    n = sil.n
    for k, t in enumerate(sil.frames):
        cols = slice(t * pf, (t + 1) * pf)
        rows = slice(k * n, (k + 1) * n)
        for kind in range(len(PIECE_KINDS)):
            pick = kinds[rows] == kind
            if pick.any():
                assert grad_check(dmodel[k][pick], numeric[rows][pick][..., cols]) < 1e-4


# --- block Jacobian and banded normal equations --------------------------------


def band_to_dense(band):
    """The symmetric matrix whose upper band (solveh_banded layout) is `band`."""
    u, n = band.shape[0] - 1, band.shape[1]
    full = np.zeros((n, n))
    for k in range(u + 1):
        offset = u - k
        i = np.arange(n - offset)
        full[i, i + offset] = band[k, offset:]
        full[i + offset, i] = band[k, offset:]
    return full


def block_problems(toy_skeleton):
    """Pose problems with all four terms (T = 1..4, incl. a random skeleton)
    and translation problems (T = 1 and 4), each with a point to evaluate.
    The T = 4 problems each have a frame where no joint of a view clears the
    confidence gate; in the first, the observed outlines differ in length
    and one frame has none."""
    out = []
    for seed, t in ((70, 3), (71, 1), (72, 4), (73, 2)):
        rng = np.random.default_rng(seed)
        skeleton = make_random_skeleton(rng) if seed == 72 else toy_skeleton
        problem, seq, *_ = build_problem(rng, skeleton, t=t,
                                         blind_frame=2 if t == 4 else None,
                                         ragged_outlines=seed == 70)
        x = problem.pack(np.stack([p.theta for p in seq]),
                         np.stack([p.root_rot for p in seq]),
                         np.stack([p.root_trans for p in seq]))
        out.append((problem, x + rng.normal(0.0, 0.05, x.shape), pose_jacobian_sparse))
    for seed, t in ((74, 4), (75, 1)):
        rng = np.random.default_rng(seed)
        camera = make_camera(0.5)
        seq = [random_pose(rng, toy_skeleton, margin=0.25, trans_scale=0.15)
               for _ in range(t)]
        frames = observed_frames(rng, toy_skeleton, camera, seq)
        if t == 4:
            frames.conf[1] = 0.3
        problem = TranslationProblem(toy_skeleton, camera, frames,
                                     EnergyWeights(lambda_2d=1.0, lambda_t=2.0),
                                     *fixed_angles(seq))
        x = problem.pack(np.stack([p.root_trans for p in seq]) + rng.normal(0, 0.05, (t, 3)))
        out.append((problem, x, translation_jacobian_sparse))
    return out


def test_residuals_equal_ragged_oracle(toy_skeleton):
    """Mapped through the row map, the residuals are the ragged per-frame
    ones; every other row (a gated-out joint) is exactly zero."""
    blind = 0
    for problem, x, oracle in block_problems(toy_skeleton):
        ragged = (pose_residuals_ragged if oracle is pose_jacobian_sparse
                  else translation_residuals_ragged)
        r = problem.residuals(x)
        keep = ragged_rows(problem)
        ref = ragged(problem, x)
        assert r.shape == keep.shape and ref.shape == (keep.sum(),)
        assert np.all(r[~keep] == 0.0)
        assert np.max(np.abs(r[keep] - ref)) <= 1e-12 * np.max(np.abs(ref))
        blind += sum(not np.any(f.conf >= problem.weights.conf_threshold)
                     for view in problem.views for f in frame_rows(view.obs))
    assert blind == 2


def test_outlines_of_different_lengths_are_padded(toy_skeleton):
    """Shorter observed outlines are padded to the longest with zero rows,
    a frame with no outline gets no rows, and the Jacobian still matches
    finite differences."""
    rng = np.random.default_rng(70)
    problem, seq, _, views, _ = build_problem(rng, toy_skeleton, ragged_outlines=True)
    sil = problem.terms[-1]
    observed = [f.silhouette for f in frame_rows(views[0].obs)]
    assert [o.shape[0] for o in observed] == [16, 10, 0]
    assert np.array_equal(sil.frames, [0, 1]) and sil.pad.sum() == 6
    for k, t in enumerate(sil.frames):
        assert np.array_equal(sil.obs[k][~sil.pad[k]], observed[t])
    x = problem.pack(np.stack([p.theta for p in seq]),
                     np.stack([p.root_rot for p in seq]),
                     np.stack([p.root_trans for p in seq]))
    r = problem.residuals(x)
    padded = ~ragged_rows(problem)
    assert padded.sum() == 2 * (problem.terms[0].weight == 0.0).sum() + 2 * 6
    assert np.all(r[padded] == 0.0)
    analytic = problem.jacobian(x).toarray()
    assert np.all(analytic[padded] == 0.0)
    numeric = central_diff(problem.residuals, x, 1e-6)
    assert grad_check(analytic, numeric, rtol=1e-4) < 1e-4
    # whatever the padded slots hold, no model point pairs with them: put
    # them on a model point and nothing changes
    state = problem._state(x)
    outline, _, nn_model = sil._structure(state)
    assert np.all(nn_model < np.sum(~sil.pad, axis=1)[:, None])
    sil.obs[sil.pad] = outline.points[1, 0]
    del state["silhouette"]
    assert np.array_equal(sil._structure(state)[2], nn_model)
    assert np.array_equal(problem.residuals(x), r)


def test_block_jacobian_equals_sparse_oracle(toy_skeleton):
    """The rows the ragged layout has equal the sparse oracle's, in order;
    the rows of gated-out joints are exactly zero."""
    for problem, x, oracle in block_problems(toy_skeleton):
        jac = problem.jacobian(x)
        assert isinstance(jac, BlockJacobian)
        ref = oracle(problem, x).toarray()
        keep = ragged_rows(problem)
        assert jac.shape == (keep.size, ref.shape[1]) and ref.shape[0] == keep.sum()
        dense = jac.toarray()
        assert np.all(dense[~keep] == 0.0)
        assert np.array_equal(dense[keep], ref)
        assert np.array_equal(np.asarray(jac)[keep], ref)
        assert np.count_nonzero(jac) == np.count_nonzero(ref)


def test_normal_equations_match_sparse_oracle(toy_skeleton):
    terms = set()
    for problem, x, oracle in block_problems(toy_skeleton):
        if isinstance(problem, PoseProblem):
            terms.add((frozenset(type(term).__name__ for term in problem.terms), problem.T))
        r = problem.residuals(x)
        band, grad = problem.jacobian(x).normal_equations(r)
        ref = oracle(problem, x)
        jtj, jtr = (ref.T @ ref).toarray(), ref.T @ r[ragged_rows(problem)]
        p = band.shape[1] // problem.T
        assert band.shape == (2 * p, problem.T * p)
        assert np.max(np.abs(band_to_dense(band) - jtj)) <= 1e-12 * np.max(np.abs(jtj))
        assert np.max(np.abs(grad - jtr)) <= 1e-12 * np.max(np.abs(jtr))
    every = frozenset({"Reprojection", "Anchor", "Temporal", "Silhouette"})
    assert (every, 4) in terms and (every - {"Temporal"}, 1) in terms


def test_banded_damped_solve_matches_dense_solve(toy_skeleton):
    for problem, x, _ in block_problems(toy_skeleton):
        jac = problem.jacobian(x)
        band, grad = jac.normal_equations(problem.residuals(x))
        dense = band_to_dense(band)
        for damping in (1e-3, 1.0, 1e3):
            step = _solve_normal_equations(band, grad, damping, True)
            ref = np.linalg.solve(dense + damping * np.eye(grad.size), -grad)
            assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_banded_solve_raises_on_an_illegal_lapack_argument(monkeypatch):
    """dpbsv's info < 0 (an argument LAPACK rejects) is a programming error,
    not a failed solve: it raises instead of raising the damping."""
    import mocorr.optim.lm as lm_module

    band = np.array([[0.0, 1.0], [4.0, 4.0]])
    monkeypatch.setattr(lm_module, "dpbsv", lambda *args, **kwargs: (None, None, -3))
    with pytest.raises(ValueError, match="argument 3"):
        _solve_normal_equations(band, np.ones(2), 1e-3, True)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def normal_equations_of(terms, state, rows, n_frames, p, scale):
    """Residuals, the column-scaled BlockJacobian and its normal equations
    of the terms at a state, rows in term order."""
    r = np.concatenate([term.residuals(state) for term in terms])
    jac = BlockJacobian(rows, n_frames, p)
    row = 0
    for term in terms:
        row = term.jacobian(state, jac, row)
    assert row == rows == r.size
    jac.scale_columns(scale)
    return r, jac, jac.normal_equations(r)


@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(1, 4),
       n_frames=st.sampled_from([1, 2, 3, 4, 5, 120]))
@settings(max_examples=40, deadline=None)
def test_all_views_term_equals_per_view_terms_bit_for_bit(seed, n_views, n_frames):
    """One reprojection term over V distinct cameras gives bit for bit what
    one term per view gives, in view order: residuals, toarray(), and the
    band and grad of the normal equations, with the columns scaled as the
    pose problem scales them. Every case has gated joints, a frame of one
    view with no joint through the gate, and a joint behind the first
    camera only."""
    rng = np.random.default_rng(seed)
    n, p = 6, 11
    angles = rng.uniform(0.0, 2.0 * np.pi) + 0.5 * np.pi * np.arange(n_views)
    cameras = [look_at(3.0 * np.array([np.sin(a), 0.4, np.cos(a)]), np.zeros(3),
                       *rng.uniform(300.0, 600.0, 2), 320.0, 240.0) for a in angles]
    pos = rng.uniform(-0.5, 0.5, (n_frames, n, 3))
    t, j = rng.integers(n_frames), rng.integers(n)
    centre = -cameras[0].rotation.T @ cameras[0].translation
    pos[t, j] = 1.1 * centre
    views = []
    for camera in cameras:
        conf = rng.uniform(0.3, 1.0, (n_frames, n))
        conf[rng.integers(n_frames)] = 0.5
        views.append(View(camera, Observations(rng.uniform(0.0, 640.0, (n_frames, n, 2)),
                                               conf), rng.uniform(0.2, 1.0)))
    visible = [project_points(camera, pos)[2] for camera in cameras]
    assert not visible[0][t, j] and all(v[t, j] for v in visible[1:])
    weights = EnergyWeights(lambda_2d=rng.uniform(0.5, 2.0))
    state = {"pos": pos, "jpos": rng.normal(size=(n_frames, n, 3, p))}
    scale = rng.uniform(0.1, 2.0, (n_frames, p))
    rows = 2 * n_views * n_frames * n
    new = normal_equations_of([Reprojection(views, weights)], state, rows, n_frames, p,
                              scale)
    old = normal_equations_of([ReprojectionPerView(v, weights) for v in views], state,
                              rows, n_frames, p, scale)
    assert_same_bits(new[0], old[0])
    assert_same_bits(new[1].toarray(), old[1].toarray())
    for a, b in zip(new[2], old[2]):
        assert_same_bits(a, b)


def anchored_problems(n_frames, lambda_t):
    """A two-view anchored pose problem and a translation problem over
    n_frames frames, each with a point to evaluate."""
    rng = np.random.default_rng(n_frames)
    skeleton = make_toy_skeleton()
    seq = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(n_frames)]
    views = [View(make_camera(a), observed_frames(rng, skeleton, make_camera(a), seq), w)
             for a, w in ((0.0, 0.6), (2.0, 0.4))]
    weights = EnergyWeights(lambda_2d=1.3, lambda_t=lambda_t)
    targets = seq_to_net(skeleton, [random_pose(rng, skeleton) for _ in range(n_frames)])
    pose = PoseProblem(skeleton, views, weights, anchor=net_pose_targets(skeleton, targets))
    x = pose.pack(*fixed_angles(seq), np.stack([p.root_trans for p in seq]))
    trans = TranslationProblem(skeleton, views[0].camera, views[0].obs, weights,
                               *fixed_angles(seq))
    x_trans = trans.pack(np.stack([p.root_trans for p in seq]))
    return ((pose, x + rng.normal(0.0, 0.05, x.shape)),
            (trans, x_trans + rng.normal(0.0, 0.05, x_trans.shape)))


@pytest.mark.parametrize("n_frames, lambda_t", [(2, 5.0), (8, 5.0), (120, 20.0), (8, 0.0)])
def test_diagonal_stacks_equal_dense_blocks_bit_for_bit(n_frames, lambda_t):
    """The anchor's and temporal term's diagonal stacks give bit for bit the
    normal equations, expanded Jacobian and nonzero count of their former
    dense blocks (with one reprojection term per view), in both problems."""
    for problem, x in anchored_problems(n_frames, lambda_t):
        kinds = [type(term).__name__ for term in problem.terms]
        assert "Temporal" in kinds
        old = terms_as_they_were(problem)
        r, r_old = problem.residuals(x), old.residuals(x)
        assert_same_bits(r, r_old)
        jac, jac_old = problem.jacobian(x), old.jacobian(x)
        assert_same_bits(jac.toarray(), jac_old.toarray())
        assert np.count_nonzero(jac) == np.count_nonzero(jac_old)
        for a, b in zip(jac.normal_equations(r), jac_old.normal_equations(r_old)):
            assert_same_bits(a, b)


def test_banded_solve_returns_none_when_not_positive_definite():
    # two frames of two columns; the diagonal rows couple them
    jac = BlockJacobian(6, 2, 2)
    jac.add(0, np.array([0]), np.array([[[[1.0, 2.0], [0.5, -1.0]]]]))
    jac.add_diagonal(2, np.array([[0.5, 1.0]]), np.array([[1.0, -0.5]]))
    jac.add(4, np.array([0, 1]), np.array([[[[1.0, 0.0]], [[0.0, 3.0]]]]))
    band, grad = jac.normal_equations(np.ones(6))
    assert np.any(band[:-1, 2:] != 0.0)
    assert _solve_normal_equations(band, grad, 1e-3, True) is not None
    band[-1, 1] = -5.0
    assert _solve_normal_equations(band, grad, 1e-3, True) is None
    assert _solve_normal_equations(band, grad, 1e3, True) is not None
