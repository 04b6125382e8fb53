"""Damped least-squares solver on classic and randomized problems."""

import numpy as np
import pytest

from mocorr.camera import look_at, project_points
from mocorr.errors import InvalidInputError, NumericFailureError
from mocorr.optim.energies import EnergyWeights
from mocorr.optim.lm import (
    _DAMPING_CEILING,
    DAMPING_INIT,
    NU_INIT,
    PLATEAU_TOL,
    PLATEAU_WINDOW,
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
    # two frames of two columns: four rows on frame 0, two on frame 1, two
    # diagonal rows across both frames and one diagonal row on each frame
    left, right, anchor = rng.standard_normal((3, 2))
    a[:4, 2:] = 0.0
    a[4:6, :2] = 0.0
    a[6:] = 0.0
    a[[6, 7, 6, 7, 8, 9], [0, 1, 2, 3, 0, 2]] = np.concatenate([left, right, anchor])

    def blocks(x):
        jac = BlockJacobian(10, 2, 2)
        jac.add(0, np.array([0]), a[None, None, :4, :2])
        jac.add(4, np.array([1]), a[None, None, 4:6, 2:])
        jac.add_diagonal(6, left[None], right[None])
        jac.add_diagonal(8, anchor[:, None])
        return jac

    assert np.array_equal(blocks(None).toarray(), a)
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


def test_gain_ratio_damping_on_linear_problem():
    """A linear model predicts every decrease exactly (rho = 1), so each
    accepted step divides the damping by 3: the iterates are damped
    Gauss-Newton steps with damping DAMPING_INIT / 3^k."""
    rng = np.random.default_rng(35)
    # small singular values (J^T J eigenvalues 0.005 to 0.024), so the
    # damping shapes the first steps
    a = 0.03 * rng.standard_normal((12, 5))
    b = rng.standard_normal(12)
    result = levenberg_marquardt(lambda x: a @ x - b, np.zeros(5), lambda x: a)
    assert result.rejected_steps == 0 and result.failed_solves == 0
    assert result.iterations >= 4
    x, damping, expected = np.zeros(5), DAMPING_INIT, []
    for _ in range(result.iterations):
        x = x + np.linalg.solve(a.T @ a + damping * np.eye(5), -a.T @ (a @ x - b))
        expected.append(float((a @ x - b) @ (a @ x - b)))
        damping /= 3.0
    assert np.allclose(result.cost_history[1:], expected, rtol=1e-12, atol=0.0)
    assert np.allclose(result.x, x, rtol=0.0, atol=1e-12)


def test_final_damping_on_linear_problem():
    """Every accepted step of a linear problem scales the damping by 1/3, so
    a solve with no rejected step ends at DAMPING_INIT / 3^iterations."""
    rng = np.random.default_rng(35)
    a = 0.03 * rng.standard_normal((12, 5))
    b = rng.standard_normal(12)
    result = levenberg_marquardt(lambda x: a @ x - b, np.zeros(5), lambda x: a)
    assert result.rejected_steps == 0 and result.iterations >= 4
    damping = DAMPING_INIT
    for _ in range(result.iterations):
        damping *= 1.0 / 3.0
    assert result.final_damping == damping
    assert np.isclose(result.final_damping, DAMPING_INIT / 3.0 ** result.iterations,
                      rtol=1e-12, atol=0.0)
    # a solve that ends at its starting point keeps the initial damping
    assert levenberg_marquardt(lambda x: a @ x - a @ np.ones(5), np.ones(5),
                               lambda x: a).final_damping == DAMPING_INIT


def _check_counts(result):
    assert result.residual_evaluations == 1 + result.iterations + result.rejected_steps


def test_counts_on_rosenbrock():
    calls = []
    result = levenberg_marquardt(_counted(rosenbrock_residuals, calls),
                                 np.array([-1.2, 1.0]), rosenbrock_jacobian)
    _check_counts(result)
    assert result.residual_evaluations == len(calls)
    assert result.rejected_steps > 0
    assert result.failed_solves == 0


def test_rejected_steps_double_nu_until_the_ceiling():
    """A Jacobian of the wrong sign makes every step go uphill: the damping
    is multiplied by nu = 2, 4, 8, ... until it reaches the ceiling."""
    calls = []
    result = levenberg_marquardt(_counted(lambda x: x ** 2 + 1.0, calls), np.ones(1),
                                 lambda x: np.diag(-2.0 * x))
    assert result.status == "stalled"
    assert result.iterations == 0
    damping, nu, trials = DAMPING_INIT, NU_INIT, 0
    while damping < _DAMPING_CEILING:
        trials += 1
        damping *= nu
        nu *= 2.0
    assert result.rejected_steps == trials
    _check_counts(result)
    assert result.residual_evaluations == len(calls)
    assert result.cost_history == [4.0]


def test_failed_solve_is_counted_and_retried():
    """J^T J = 3e20 * ones(2, 2) swallows a damping of 1e-3 in rounding, so
    the first damped systems are exactly singular; the damping rises until
    they solve, without evaluating the residuals."""
    a = np.full((3, 2), 1e10)
    b = np.array([1.0, 2.0, 4.0])
    calls = []
    result = levenberg_marquardt(_counted(lambda x: a @ x - b, calls), np.zeros(2),
                                 lambda x: a)
    assert result.failed_solves >= 1
    assert result.iterations >= 1
    _check_counts(result)
    assert result.residual_evaluations == len(calls)
    # the least-squares cost: b's spread about its mean
    assert result.cost == pytest.approx(np.sum((b - b.mean()) ** 2), rel=1e-9)


def _plateau_reached(history, end):
    """The window rule on history[:end + 1]."""
    return (end >= PLATEAU_WINDOW
            and history[end - PLATEAU_WINDOW] - history[end] <= PLATEAU_TOL * history[end])


def test_plateau_status_follows_the_window_rule():
    """A solve stops on "plateau" at the first accepted step whose cost is
    within PLATEAU_TOL * cost of the cost PLATEAU_WINDOW steps before, unless
    a per-step rule stopped it there first."""
    results = []
    for seed in range(33, 45):
        problem, x0 = _small_pose_problem(np.random.default_rng(seed))
        results.append(levenberg_marquardt(problem.residuals, x0, problem.jacobian,
                                           LMOptions(max_iterations=40)))
    rng = np.random.default_rng(36)
    for _ in range(40):
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        results.append(levenberg_marquardt(lambda x: np.tanh(a @ x) - b,
                                           rng.standard_normal(4)))
    plateaus = 0
    for result in results:
        history = result.cost_history
        _check_counts(result)
        last = len(history) - 1
        assert not any(_plateau_reached(history, end) for end in range(last))
        if result.status == "plateau":
            assert _plateau_reached(history, last)
        elif _plateau_reached(history, last):
            # the per-step rules are checked first
            assert result.status in ("step", "cost")
        plateaus += result.status == "plateau"
    assert plateaus >= 5


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
    every damping retry, bit for bit, on a solve that retries often. Seed 36
    is the first seed from 33 on whose reference solve retries at least ten
    times with either Jacobian kind."""
    problem, x0 = _small_pose_problem(np.random.default_rng(36))
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
    assert result.residual_evaluations == reference.residual_evaluations == len(calls)
    assert result.rejected_steps == reference.rejected_steps
    assert result.failed_solves == reference.failed_solves


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
