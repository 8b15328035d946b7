"""Norming linear functionals on R^m under lp norms.

A functional is represented by a dual vector d with f(x) = <d, x>; its
operator norm is the lq norm of d for the conjugate exponent q.  The central
construction produces f with f|Q = 0, f(x1) = 1 and operator norm exactly
1/rho(x1, Q), optionally pinning f(x2) to the monotone limit

    g(a) = a - rho(x2 - a*x1, Q) / rho(x1, Q),   a -> +infinity,

which is non-decreasing in a and bounded by rho(x2, Q)/rho(x1, Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog, minimize

from .distance import SolverError, rho
from .spaces import NormSpec, Subspace, as_vector, norm_eval

FUNC_TOL = 1e-8


class FunctionalError(ValueError):
    """Precondition failure while building a norming functional."""


@dataclass(frozen=True)
class Functional:
    dual_vector: np.ndarray
    dual_norm_value: float

    def __call__(self, x) -> float:
        return float(np.dot(self.dual_vector, as_vector(x, dim=self.dual_vector.size)))

    def kernel(self) -> Subspace:
        """The full null space of the dual vector as an explicit subspace."""
        ns = scipy.linalg.null_space(self.dual_vector[None, :])
        return Subspace(ns, ambient_dim=self.dual_vector.size)


def dual_norm(d: np.ndarray, norm: NormSpec) -> float:
    """Operator norm of x -> <d, x> on (R^m, lp): the conjugate lq norm."""
    return norm_eval(d, NormSpec(norm.dual_p))


def limit_expression(x2, x1, Q: Subspace, norm: NormSpec, a: float, func_tol: float = FUNC_TOL) -> float:
    """g(a) = a - rho(x2 - a*x1, Q) / rho(x1, Q)."""
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    rho1 = rho(x1, Q, norm).value
    if rho1 <= func_tol:
        raise FunctionalError(f"x1 lies in the subspace within tolerance (rho = {rho1:.3e})")
    if a > 1.0:
        # Homogeneity keeps the solve well scaled for large a.
        val = a * rho(x2 / a - x1, Q, norm).value
    else:
        val = rho(x2 - a * x1, Q, norm).value
    return a - val / rho1


def limit_value(
    x2,
    x1,
    Q: Subspace,
    norm: NormSpec,
    rel_tol: float = 1e-8,
    max_doublings: int = 60,
) -> float:
    """Limit of g(a) as a -> infinity, by doubling until the increments die.

    Monotonicity plus the bound |g| <= rho(x2,Q)/rho(x1,Q) make the doubling
    rule sound; the residual error is on the order of the last increment.
    """
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    n1 = norm_eval(x1, norm)
    n2 = norm_eval(x2, norm)
    a = max(1.0, n2 / n1 if n1 > 0 else 1.0)
    g_prev = limit_expression(x2, x1, Q, norm, a)
    for _ in range(max_doublings):
        a *= 2.0
        g_next = limit_expression(x2, x1, Q, norm, a)
        if g_next - g_prev < rel_tol * max(1.0, abs(g_prev)):
            return g_next
        g_prev = g_next
    raise SolverError(
        f"limit did not settle after {max_doublings} doublings; bracket "
        f"[{g_prev:.12g}, {g_prev + rel_tol:.12g}]",
        best_value=g_prev,
    )


def _min_dual_norm_solution(A: np.ndarray, b: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Minimal-operator-norm dual vector subject to A d = b."""
    m = A.shape[1]
    q = norm.dual_p
    if q == 2.0:
        return np.linalg.lstsq(A, b, rcond=None)[0]
    if math.isinf(q):
        # min t s.t. -t <= d_i <= t, A d = b
        cost = np.concatenate([np.zeros(m), [1.0]])
        A_ub = np.block([[np.eye(m), -np.ones((m, 1))], [-np.eye(m), -np.ones((m, 1))]])
        b_ub = np.zeros(2 * m)
        A_eq = np.hstack([A, np.zeros((A.shape[0], 1))])
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b,
                      bounds=[(None, None)] * m + [(0, None)], method="highs")
        if not res.success:
            raise SolverError(f"dual-norm LP failed: {res.message}")
        return res.x[:m]
    if q == 1.0:
        # min sum(pos + neg), d = pos - neg
        cost = np.ones(2 * m)
        A_eq = np.hstack([A, -A])
        res = linprog(cost, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * 2 * m, method="highs")
        if not res.success:
            raise SolverError(f"dual-norm LP failed: {res.message}")
        return res.x[:m] - res.x[m:]
    d0 = np.linalg.lstsq(A, b, rcond=None)[0]
    res = minimize(
        lambda d: float(np.sum(np.abs(d) ** q)),
        d0,
        constraints=[{"type": "eq", "fun": lambda d: A @ d - b}],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    if not res.success:
        raise SolverError(f"dual-norm minimization failed: {res.message}")
    return res.x


def norming_functional(
    x1,
    Q: Subspace,
    norm: NormSpec,
    x2=None,
    func_tol: float = FUNC_TOL,
) -> Functional:
    """f with f|Q = 0, f(x1) = 1 and operator norm 1/rho(x1, Q).

    When x2 is supplied (and lies outside span[{x1} union Q]) the value f(x2)
    is additionally pinned to limit_value(x2, x1, Q).  The extension to the
    whole space is the minimal-dual-norm one; its norm identity with
    1/rho(x1, Q) is verified, not assumed.
    """
    x1 = as_vector(x1, dim=Q.ambient_dim)
    rho1 = rho(x1, Q, norm).value
    if rho1 <= func_tol:
        raise FunctionalError(
            f"x1 lies in the subspace within tolerance (rho = {rho1:.3e}); "
            "no norming functional exists"
        )
    rows = [Q.basis.T] if Q.rank else []
    rhs = [np.zeros(Q.rank)] if Q.rank else []
    rows.append(x1[None, :])
    rhs.append(np.array([1.0]))
    if x2 is not None:
        x2 = as_vector(x2, dim=Q.ambient_dim)
        span = Subspace(
            np.column_stack([Q.basis, x1]) if Q.rank else x1[:, None],
            ambient_dim=Q.ambient_dim,
        )
        res = float(np.linalg.norm(span.residual(x2)))
        if res <= func_tol * max(1.0, float(np.linalg.norm(x2))):
            raise FunctionalError(
                f"x2 lies in span[{{x1}} + Q] within tolerance (residual = {res:.3e})"
            )
        target = limit_value(x2, x1, Q, norm)
        rows.append(x2[None, :])
        rhs.append(np.array([target]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    d = _min_dual_norm_solution(A, b, norm)
    dn = dual_norm(d, norm)
    if abs(dn * rho1 - 1.0) > 1e-4:
        raise SolverError(
            f"norming identity violated: |f| * rho(x1, Q) = {dn * rho1:.6g}, expected 1"
        )
    return Functional(dual_vector=d, dual_norm_value=dn)


def norm_attainment_check(f: Functional, x, norm: NormSpec, tol: float = 1e-9) -> bool:
    """True iff x witnesses |f(x)| = |f| * |x| up to the relative tolerance."""
    x = as_vector(x, dim=f.dual_vector.size)
    nx = norm_eval(x, norm)
    if nx <= 0 or f.dual_norm_value <= 0:
        raise ValueError("norm_attainment_check needs |x| > 0 and a non-zero functional")
    return abs(f(x)) >= (1.0 - tol) * f.dual_norm_value * nx


def kernel_distance_identity_check(f: Functional, x, norm: NormSpec, tol: float = 1e-6) -> bool:
    """Check rho(x, ker f) = |f(x)| / |f| against the distance solver."""
    if float(np.linalg.norm(f.dual_vector)) == 0.0:
        raise ValueError("functional must be non-zero")
    x = as_vector(x, dim=f.dual_vector.size)
    ker = f.kernel()
    lhs = rho(x, ker, norm).value
    rhs = abs(f(x)) / f.dual_norm_value
    return abs(lhs - rhs) <= tol
