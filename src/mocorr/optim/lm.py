"""Generic damped least-squares (Levenberg-Marquardt) solver.

Minimizes sum(r(x)**2) for a user-supplied residual function. The Jacobian
may be a callable returning a dense array or a scipy.sparse matrix; when
omitted, central finite differences are used. Steps solve
(J^T J + damping * I) dx = -J^T r and are accepted only when the cost
decreases, so the reported cost history is monotone by construction. J^T J
is formed once per Jacobian; a rejected step only raises the damping and
solves again.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import InvalidInputError, NumericFailureError

_DAMPING_CEILING = 1e16


@dataclass
class LMOptions:
    max_iterations: int = 100
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    gradient_tol: float = 1e-10
    step_tol: float = 1e-10
    cost_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        for name in ("damping_init", "damping_up", "damping_down",
                     "gradient_tol", "step_tol", "cost_tol"):
            if getattr(self, name) <= 0.0:
                raise InvalidInputError(f"{name} must be positive")


@dataclass
class LMResult:
    x: np.ndarray
    cost: float
    iterations: int
    status: str
    cost_history: list = field(default_factory=list)


def numeric_jacobian(residuals, x, step_scale=1e-6):
    """Central-difference Jacobian with per-coordinate step step_scale*max(1,|x_i|)."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residuals(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = step_scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(residuals(xp)) - np.asarray(residuals(xm))) / (2.0 * h)
    return jac


def _solve_normal_equations(jtj, grad, damping):
    n = grad.size
    if sp.issparse(jtj):
        lhs = (jtj + damping * sp.identity(n, format="csr")).tocsc()
        try:
            step = spla.spsolve(lhs, -grad)
        except RuntimeError:
            return None
        return step if np.all(np.isfinite(step)) else None
    lhs = jtj + damping * np.eye(n)
    try:
        step = np.linalg.solve(lhs, -grad)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def levenberg_marquardt(residuals, x0, jacobian=None, options=None):
    """Minimize sum(residuals(x)**2) from x0; returns an LMResult.

    jacobian(x) must return d(residuals)/dx as a dense or sparse matrix;
    None selects the finite-difference fallback.
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
    damping = opts.damping_init
    status = "max_iterations"
    iterations = 0

    for _ in range(opts.max_iterations):
        jac = jacobian(x)
        grad = jac.T @ r
        grad = np.asarray(grad).ravel()
        if not np.all(np.isfinite(grad)):
            raise NumericFailureError("gradient is not finite")
        if np.max(np.abs(grad), initial=0.0) <= opts.gradient_tol:
            status = "gradient"
            break

        jtj = jac.T @ jac
        accepted = False
        while damping < _DAMPING_CEILING:
            step = _solve_normal_equations(jtj, grad, damping)
            if step is None:
                damping *= opts.damping_up
                continue
            x_new = x + step
            r_new = np.asarray(residuals(x_new), dtype=float)
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if cost_new < cost:
                accepted = True
                damping *= opts.damping_down
                break
            damping *= opts.damping_up
        if not accepted:
            status = "stalled"
            break

        iterations += 1
        decrease = cost - cost_new
        step_norm = float(np.linalg.norm(step))
        x, r, cost = x_new, r_new, cost_new
        history.append(cost)
        if step_norm <= opts.step_tol * (np.linalg.norm(x) + opts.step_tol):
            status = "step"
            break
        if decrease <= opts.cost_tol * max(1.0, cost):
            status = "cost"
            break

    return LMResult(x=x, cost=cost, iterations=iterations, status=status, cost_history=history)
