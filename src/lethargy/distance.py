"""Distance from a point to a subspace under an lp norm, with witnesses.

rho(x, Y) = inf over y in Y of |x - y|.  In finite dimension the infimum is
attained, so every result carries witness coefficients c with best
approximant Y.basis @ c.  Solver routes:

  * p = 2        orthogonal projection (closed form)
  * p in {1, inf} exact linear-program reduction (HiGHS)
  * other p      smooth convex minimization over the coefficients

level_endpoint gives the ends of the interval {t : rho(x + t q, Y) <= d}, the
exact root step of the backward constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .spaces import NormSpec, Subspace, as_vector, norm_eval

DEFAULT_TOLS = {"l2": 1e-10, "lp_linear": 1e-8, "lp_general": 1e-7}


class SolverError(RuntimeError):
    """A distance solver failed to converge; carries the best bound found."""

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        self.best_value = best_value


def default_tol(norm: NormSpec) -> float:
    if norm.p == 2.0:
        return DEFAULT_TOLS["l2"]
    if norm.p == 1.0 or norm.is_sup:
        return DEFAULT_TOLS["lp_linear"]
    return DEFAULT_TOLS["lp_general"]


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness_coeffs: np.ndarray
    achieved_tol: float
    solver: str

    def witness(self, Y: Subspace) -> np.ndarray:
        if Y.rank == 0:
            return np.zeros(Y.ambient_dim)
        return Y.basis @ self.witness_coeffs


def _rho_l2(x: np.ndarray, Y: Subspace) -> DistanceResult:
    c = Y.basis.T @ x
    value = float(np.linalg.norm(x - Y.basis @ c))
    eps = 1e-13 * max(1.0, float(np.linalg.norm(x)))
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=eps, solver="closed_form_l2")


def _lp(x: np.ndarray, A: np.ndarray, norm: NormSpec, cost_v, d: float | None = None):
    """HiGHS LP over (v, s) with |x - A v| <= s entrywise (p = 1) or s
    scalar (p = inf).  Minimizes the norm bound when d is None; otherwise
    caps it at d and minimizes cost_v . v."""
    m, n = A.shape
    J = np.ones((m, 1)) if norm.is_sup else np.eye(m)
    k = J.shape[1]
    A_ub = np.block([[-A, -J], [A, -J]])
    b_ub = np.concatenate([-x, x])
    if d is None:
        cost = np.concatenate([cost_v, np.ones(k)])
    else:
        cost = np.concatenate([cost_v, np.zeros(k)])
        A_ub = np.vstack([A_ub, np.concatenate([np.zeros(n), np.ones(k)])])
        b_ub = np.append(b_ub, d)
    bounds = [(None, None)] * n + [(0, None)] * k
    return linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")


def _rho_linprog(x: np.ndarray, Y: Subspace, norm: NormSpec, tol: float) -> DistanceResult:
    # Solve on the part of x orthogonal to Y, scaled to norm 1: rho only
    # shifts and scales with it, and HiGHS's absolute tolerances then act
    # relative to rho, which keeps a small rho (tiny x, or x near Y) accurate.
    c0 = Y.basis.T @ x
    xp = x - Y.basis @ c0
    scale = norm_eval(xp, norm) or 1.0
    res = _lp(xp / scale, Y.basis, norm, np.zeros(Y.rank))
    if not res.success:
        raise SolverError(f"linear program failed: {res.message}")
    c = c0 + res.x[: Y.rank] * scale
    value = norm_eval(x - Y.basis @ c, norm)
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=tol, solver="linear_program")


def _rho_convex(x: np.ndarray, Y: Subspace, norm: NormSpec, tol: float) -> DistanceResult:
    p = norm.p
    B = Y.basis
    c0 = B.T @ x  # l2 projection is a good convex start

    def objective(c):
        r = x - B @ c
        a = np.abs(r)
        f = float(np.sum(a**p))
        g = -p * (B.T @ (a ** (p - 1.0) * np.sign(r)))
        return f, g

    res = minimize(
        objective,
        c0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 10_000, "ftol": 1e-16, "gtol": 1e-12},
    )
    c = res.x
    value = norm_eval(x - B @ c, norm)
    if not res.success and res.status != 2:  # status 2: precision loss at optimum
        raise SolverError(f"convex descent failed: {res.message}", best_value=value)
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=tol, solver="convex_descent")


def rho(x, Y: Subspace, norm: NormSpec, tol: float | None = None) -> DistanceResult:
    """Distance rho(x, Y) with a best-approximant witness."""
    x = as_vector(x, dim=Y.ambient_dim)
    if tol is None:
        tol = default_tol(norm)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if Y.rank == 0:
        return DistanceResult(
            value=norm_eval(x, norm),
            witness_coeffs=np.zeros(0),
            achieved_tol=0.0,
            solver="zero_subspace",
        )
    if norm.p == 2.0:
        return _rho_l2(x, Y)
    if norm.p == 1.0 or norm.is_sup:
        return _rho_linprog(x, Y, norm, tol)
    return _rho_convex(x, Y, norm, tol)


def best_approximant(x, Y: Subspace, norm: NormSpec, tol: float | None = None) -> np.ndarray:
    """The nearest point of Y to x (one of them, for non-strictly-convex norms)."""
    return rho(x, Y, norm, tol).witness(Y)


def level_endpoint(x, q, Y: Subspace, norm: NormSpec, d: float, upper: bool) -> float | None:
    """Upper (or lower) end of {t : rho(x + t q, Y) <= d}; None when empty.

    t -> rho(x + t q, Y) is convex, and coercive for q outside Y, so the set
    is a closed interval and each end is one exact solve:

      * p = 2        a quadratic on the orthogonal complement of Y
      * p in {1, inf} one linear program maximizing t
      * other p      Newton on rho - d from the outer bound t_min + (d +
                     rho_min) / rho(q, Y), where rho_min = rho(x, Y + span q)
                     is the minimum over t, at t_min; the iterates stay outside

    The lower end is minus the upper end for -q.  A set that misses d by at
    most rho's accuracy, default_tol(norm) * (1 + d), is the point t_min:
    tied targets put d at that minimum, where rounding can leave it just out
    of reach.  q inside Y (the set is empty or all of R) raises SolverError.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    q = as_vector(q, dim=Y.ambient_dim)
    if not upper:
        b = level_endpoint(x, -q, Y, norm, d, upper=True)
        return None if b is None else -b
    B = Y.basis
    xp, qp = x - B @ (B.T @ x), q - B @ (B.T @ q)
    if np.linalg.norm(qp) <= 1e-12 * np.linalg.norm(q):
        raise SolverError("level set of a direction inside the subspace is empty or unbounded")
    exact_route = norm.p == 2.0 or norm.p == 1.0 or norm.is_sup
    if norm.p == 2.0:
        # |xp + t qp|^2 = d^2, roots in the cancellation-free form
        nx, ab, bb = float(np.linalg.norm(xp)), float(xp @ qp), float(qp @ qp)
        cc = (nx - d) * (nx + d)
        disc = ab * ab - bb * cc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            if ab < 0.0:
                return (sq - ab) / bb
            return -cc / (ab + sq) if ab + sq > 0.0 else 0.0
    elif exact_route:
        scale = max(norm_eval(xp, norm), d) or 1.0  # as in _rho_linprog
        cost = np.append(np.zeros(Y.rank), -1.0)  # maximize t
        res = _lp(xp / scale, np.column_stack([B, -q]), norm, cost, d / scale)
        if res.status != 2:  # 2: infeasible
            if not res.success:
                raise SolverError(f"level-set linear program failed: {res.message}")
            return float(res.x[Y.rank]) * scale
    # The exact routes found the set empty; other p start here.
    Z = Subspace(np.column_stack([B, qp / np.linalg.norm(qp)]))
    low = rho(x, Z, norm)
    t_min = -float(qp @ low.witness(Z)) / float(qp @ qp)
    tangent_tol = default_tol(norm) * (1.0 + d)
    if low.value - d > tangent_tol:
        return None
    if low.value >= d - tangent_tol:
        return t_min
    if exact_route:
        raise SolverError(f"no end found, yet the level set holds t = {t_min:.9g}")
    # An inexact slope (a near-optimal witness) can step inside, and the next
    # step back out.  A |gap| that stops shrinking has met rho's noise.
    p = norm.p
    t = t_min + (d + low.value) / rho(q, Y, norm).value
    best_t, best_gap = t, math.inf
    for _ in range(100):
        res = rho(x + t * q, Y, norm)
        gap = res.value - d
        if abs(gap) <= 1e-13 * (1.0 + d):
            return t
        if abs(gap) >= best_gap:
            break
        best_t, best_gap = t, abs(gap)
        r = x + t * q - res.witness(Y)
        slope = float(np.sum(np.abs(r) ** (p - 1.0) * np.sign(r) * q)) / res.value ** (p - 1.0)
        if slope <= 0.0:
            break
        t -= gap / slope
    if best_gap > tangent_tol:
        raise SolverError(f"level-set Newton iteration stalled at gap {best_gap:.3e}")
    return best_t
