"""Damped least-squares solver on classic and randomized problems."""

import numpy as np
import pytest

from mocorr.camera import look_at, project_points
from mocorr.errors import InvalidInputError, NumericFailureError
from mocorr.optim.energies import EnergyWeights
from mocorr.optim.lm import (
    LMOptions,
    levenberg_marquardt,
    numeric_jacobian,
)
from mocorr.optim.problem import BlockJacobian, PoseProblem, View
from mocorr.skeleton import SkeletalPose, forward_kinematics

from conftest import make_toy_skeleton, observations_of, random_pose
from oracles import levenberg_marquardt_rebuilt, pose_jacobian_sparse


def rosenbrock_residuals(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def test_rosenbrock_converges_to_minimum():
    result = levenberg_marquardt(
        rosenbrock_residuals, np.array([-1.2, 1.0]), rosenbrock_jacobian,
        LMOptions(max_iterations=200))
    assert np.max(np.abs(result.x - 1.0)) <= 1e-6
    assert result.cost <= 1e-12


def test_rosenbrock_fd_fallback_matches():
    analytic = levenberg_marquardt(rosenbrock_residuals, np.array([-1.2, 1.0]),
                                   rosenbrock_jacobian,
                                   LMOptions(max_iterations=200))
    numeric = levenberg_marquardt(rosenbrock_residuals, np.array([-1.2, 1.0]),
                                  None, LMOptions(max_iterations=200))
    assert np.max(np.abs(analytic.x - numeric.x)) < 1e-6


def test_linear_least_squares_equals_direct_solve():
    rng = np.random.default_rng(30)
    for _ in range(10):
        m, n = 12, 5
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        result = levenberg_marquardt(lambda x: a @ x - b,
                                     np.zeros(n), lambda x: a,
                                     LMOptions(max_iterations=100))
        direct, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.max(np.abs(result.x - direct)) <= 1e-8


def test_block_jacobian_matches_dense():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    # two frames of two columns: four rows on frame 0, six across both
    a[:4, 2:] = 0.0

    def blocks(x):
        jac = BlockJacobian(10, 2, 2)
        jac.add(0, 0, a[:4, :2])
        jac.add(4, 0, a[4:])
        return jac

    dense = levenberg_marquardt(lambda x: a @ x - b, np.zeros(4), lambda x: a)
    block = levenberg_marquardt(lambda x: a @ x - b, np.zeros(4), blocks)
    assert np.max(np.abs(dense.x - block.x)) < 1e-8


def test_monotone_cost_on_random_problems():
    rng = np.random.default_rng(32)
    for k in range(100):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(0, 5))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        c = rng.uniform(0.5, 2.0, m)
        if k % 2 == 0:
            residuals = lambda x: a @ x - b
        else:
            # smooth nonlinear map keeps the problem well-posed
            residuals = lambda x: c * np.tanh(a @ x) - b
        x0 = rng.standard_normal(n)
        result = levenberg_marquardt(residuals, x0,
                                     options=LMOptions(max_iterations=60))
        history = np.array(result.cost_history)
        assert history.size >= 1
        assert np.all(np.diff(history) <= 0.0)
        assert result.cost <= history[0]


def test_zero_residual_start_returns_immediately():
    a = np.eye(3)
    result = levenberg_marquardt(lambda x: a @ x, np.zeros(3), lambda x: a)
    assert result.iterations == 0
    assert result.status == "gradient"
    assert result.cost == 0.0
    assert np.array_equal(result.x, np.zeros(3))


def test_non_finite_start_raises():
    with pytest.raises(NumericFailureError):
        levenberg_marquardt(lambda x: np.array([np.nan]), np.zeros(1))
    with pytest.raises(NumericFailureError):
        levenberg_marquardt(lambda x: np.full(2, np.inf), np.ones(2))


def test_options_validation():
    with pytest.raises(InvalidInputError):
        LMOptions(max_iterations=0)


def test_numeric_jacobian_on_polynomial():
    def f(x):
        return np.array([x[0] ** 2, x[0] * x[1], x[1] ** 3])

    x = np.array([1.5, -0.7])
    jac = numeric_jacobian(f, x)
    expected = np.array([[2 * x[0], 0.0], [x[1], x[0]], [0.0, 3 * x[1] ** 2]])
    assert np.max(np.abs(jac - expected)) < 1e-6


def test_stalled_status_on_flat_problem():
    # Constant nonzero residual: no step can decrease the cost.
    result = levenberg_marquardt(lambda x: np.array([1.0, x[0] * 0 + 2.0]),
                                 np.ones(1))
    assert result.status in ("gradient", "stalled")
    assert result.iterations == 0


def _small_pose_problem(rng, n_frames=3):
    skeleton = make_toy_skeleton()
    camera = look_at(np.array([0.0, 1.2, 2.5]), np.zeros(3), 500.0, 480.0, 320.0, 240.0)
    seq = [random_pose(rng, skeleton, margin=0.25, trans_scale=0.15)
           for _ in range(n_frames)]
    keypoints = []
    for pose in seq:
        uv, _, _ = project_points(camera, forward_kinematics(skeleton, pose))
        keypoints.append(uv + rng.normal(0.0, 3.0, uv.shape))
    frames = observations_of(keypoints, [np.ones(skeleton.n_joints)] * n_frames)
    problem = PoseProblem(skeleton, [View(camera, frames)],
                          EnergyWeights(lambda_2d=1.0, lambda_t=2.0))
    mid = 0.5 * (skeleton.theta_min + skeleton.theta_max)
    x0 = problem.pack(np.tile(mid, (n_frames, 1)), np.zeros((n_frames, 3)),
                      np.zeros((n_frames, 3)))
    return problem, x0


def _counted(fn, calls):
    def wrapped(x):
        calls.append(1)
        return fn(x)
    return wrapped


@pytest.mark.parametrize("jacobian_kind", ["blocks", "dense"])
def test_jtj_once_per_iteration_matches_rebuilding_reference(jacobian_kind):
    """Forming J^T J once per Jacobian reproduces the loop that rebuilt it on
    every damping retry, bit for bit, on a solve that retries often."""
    problem, x0 = _small_pose_problem(np.random.default_rng(33))
    if jacobian_kind == "blocks":
        jacobian = problem.jacobian
    else:
        jacobian = lambda x: problem.jacobian(x).toarray()
    options = LMOptions(max_iterations=40)
    calls = []
    reference = levenberg_marquardt_rebuilt(_counted(problem.residuals, calls), x0,
                                            jacobian, options)
    result = levenberg_marquardt(problem.residuals, x0, jacobian, options)
    retries = len(calls) - 1 - reference.iterations
    assert retries >= 10
    assert np.array_equal(result.x, reference.x)
    assert result.cost_history == reference.cost_history
    assert result.iterations == reference.iterations
    assert result.status == reference.status


@pytest.mark.parametrize("n_frames", [1, 3])
def test_banded_solve_tracks_sparse_spsolve_reference(n_frames):
    """The block Jacobian with its banded Cholesky follows the solve that
    built a scipy.sparse J^T J and factored it with spsolve, to rounding."""
    problem, x0 = _small_pose_problem(np.random.default_rng(34), n_frames)
    options = LMOptions(max_iterations=30)
    reference = levenberg_marquardt_rebuilt(
        problem.residuals, x0, lambda x: pose_jacobian_sparse(problem, x), options)
    result = levenberg_marquardt(problem.residuals, x0, problem.jacobian, options)
    assert result.iterations == reference.iterations
    assert result.status == reference.status
    assert np.allclose(result.cost_history, reference.cost_history, rtol=1e-9, atol=0.0)
    # compare angles, not u: a saturated sigmoid leaves u free to drift
    ours, ref = (SkeletalPose(*problem.unpack(x)) for x in (result.x, reference.x))
    for part in ("theta", "root_rot", "root_trans"):
        assert np.max(np.abs(getattr(ours, part) - getattr(ref, part))) < 1e-8
