"""Generic damped least-squares (Levenberg-Marquardt) solver.

Minimizes sum(r(x)**2) for a user-supplied residual function. The Jacobian
callable returns either a dense array or a block Jacobian (an object with
`normal_equations(r)`, such as `problem.BlockJacobian`); when omitted,
central finite differences are used. Steps solve
(J^T J + damping * I) dx = -J^T r and are accepted only when the cost
decreases, so the reported cost history is monotone by construction.

J^T J and J^T r are formed once per Jacobian: dense ones as `jac.T @ jac`,
solved with `np.linalg.solve`; block ones in symmetric banded storage,
solved with a banded Cholesky: LAPACK's `dpbsv`, called directly, the routine
`scipy.linalg.solveh_banded` runs for these bands without its checks.

The damping follows Nielsen's gain-ratio schedule (H. B. Nielsen, "Damping
Parameter in Marquardt's Method", 1999). An accepted step compares the
actual decrease with the one the damped linear model predicted,
rho = (cost - cost_new) / (dx . (damping * dx - J^T r)), scales the damping
by max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2. A rejected step, or a
damped system that cannot be solved (singular, or for the banded Cholesky
not numerically positive definite) or that gives a non-finite step,
multiplies the damping by nu and doubles nu, and the same Jacobian is
solved again.

A solve ends with one of these statuses:
- "gradient": the largest entry of J^T r is at most GRADIENT_TOL;
- "step": the accepted step is at most STEP_TOL relative to |x|;
- "cost": one step lowered the cost by at most COST_TOL * max(1, cost);
- "plateau": the last PLATEAU_WINDOW steps together lowered the cost by at
  most PLATEAU_TOL * cost (Madsen, Nielsen & Tingleff, "Methods for
  Non-Linear Least Squares Problems", 2004). The bound scales with the cost
  itself, so a cost that falls below 1 still converges fully;
- "stalled": the damping reached its ceiling without an accepted step;
- "max_iterations": the iteration cap was reached.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbsv

from ..errors import InvalidInputError, NumericFailureError

# damping schedule: start small, scale by the gain ratio on an accepted
# step, by a doubling nu on a rejected one, and give up on an iteration at
# the ceiling
DAMPING_INIT = 1e-3
NU_INIT = 2.0
_DAMPING_CEILING = 1e16
# stopping tolerances: largest gradient entry, step length relative to |x|,
# one step's cost decrease relative to max(1, cost), and the decrease over
# the last PLATEAU_WINDOW steps relative to the cost itself
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-10
COST_TOL = 1e-12
PLATEAU_WINDOW = 5
PLATEAU_TOL = 1e-6
# numeric_jacobian's central-difference step, relative to max(1, |x_i|)
FD_STEP = 1e-6


@dataclass
class LMOptions:
    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")


@dataclass
class LMResult:
    x: np.ndarray
    cost: float
    iterations: int
    status: str
    cost_history: list = field(default_factory=list)
    # residual evaluations, the starting point included; trial steps that did
    # not lower the cost; damped systems that could not be solved; the
    # damping the solve ended with
    residual_evaluations: int = 0
    rejected_steps: int = 0
    failed_solves: int = 0
    final_damping: float = DAMPING_INIT


def numeric_jacobian(residuals, x):
    """Central-difference Jacobian with per-coordinate step FD_STEP*max(1,|x_i|)."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residuals(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(residuals(xp)) - np.asarray(residuals(xm))) / (2.0 * h)
    return jac


def _solve_normal_equations(jtj, grad, damping, banded):
    """The step solving (J^T J + damping * I) dx = -grad, or None when that
    system cannot be solved or the step is not finite. `jtj` is dense, or
    when `banded` the upper band of J^T J with its diagonal as the last row."""
    if banded:
        # a Fortran-ordered copy, which dpbsv factors in place
        lhs = np.array(jtj, order="F")
        lhs[-1] += damping
        _, step, info = dpbsv(lhs, -grad, overwrite_ab=1, overwrite_b=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbsv")
        if info > 0:  # a leading minor is not positive definite
            return None
    else:
        try:
            step = np.linalg.solve(jtj + damping * np.eye(grad.size), -grad)
        except np.linalg.LinAlgError:
            return None
    return step if np.all(np.isfinite(step)) else None


def levenberg_marquardt(residuals, x0, jacobian=None, options=None):
    """Minimize sum(residuals(x)**2) from x0; returns an LMResult.

    jacobian(x) must return d(residuals)/dx as a dense array or a block
    Jacobian; None selects the finite-difference fallback.
    """
    opts = options if options is not None else LMOptions()
    x = np.array(x0, dtype=float).ravel()
    if jacobian is None:
        jacobian = lambda xv: numeric_jacobian(residuals, xv)

    r = np.asarray(residuals(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise NumericFailureError("residuals are not finite at the starting point")
    cost = float(r @ r)
    history = [cost]
    damping, nu = DAMPING_INIT, NU_INIT
    status = "max_iterations"
    iterations = evaluations = rejected = failed = 0

    for _ in range(opts.max_iterations):
        jac = jacobian(x)
        banded = hasattr(jac, "normal_equations")
        if banded:
            jtj, grad = jac.normal_equations(r)
        else:
            jtj, grad = jac.T @ jac, jac.T @ r
        if not np.all(np.isfinite(grad)):
            raise NumericFailureError("gradient is not finite")
        if np.max(np.abs(grad), initial=0.0) <= GRADIENT_TOL:
            status = "gradient"
            break

        accepted = False
        while damping < _DAMPING_CEILING:
            step = _solve_normal_equations(jtj, grad, damping, banded)
            if step is None:
                failed += 1
            else:
                x_new = x + step
                r_new = np.asarray(residuals(x_new), dtype=float)
                evaluations += 1
                cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
                if cost_new < cost:
                    accepted = True
                    break
                rejected += 1
            damping *= nu
            nu *= 2.0
        if not accepted:
            status = "stalled"
            break

        iterations += 1
        decrease = cost - cost_new
        # gain ratio: the actual decrease over the damped model's, which for
        # cost = r^T r and grad = J^T r is dx . (damping * dx - grad)
        rho = decrease / (step @ (damping * step - grad))
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu = NU_INIT
        step_norm = float(np.linalg.norm(step))
        x, r, cost = x_new, r_new, cost_new
        history.append(cost)
        if step_norm <= STEP_TOL * (np.linalg.norm(x) + STEP_TOL):
            status = "step"
            break
        if decrease <= COST_TOL * max(1.0, cost):
            status = "cost"
            break
        if (len(history) > PLATEAU_WINDOW
                and history[-1 - PLATEAU_WINDOW] - cost <= PLATEAU_TOL * cost):
            status = "plateau"
            break

    return LMResult(x=x, cost=cost, iterations=iterations, status=status,
                    cost_history=history, residual_evaluations=1 + evaluations,
                    rejected_steps=rejected, failed_solves=failed,
                    final_damping=damping)
