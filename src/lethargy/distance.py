"""Distance from a point to a subspace under an lp norm, with witnesses.

rho(x, Y) = inf over y in Y of |x - y|.  In finite dimension the infimum is
attained, so every result carries witness coefficients c with best
approximant Y.basis @ c, and a Hahn-Banach certificate: a dual functional g
with |g|_* = 1, g|Y = 0 and g(x - witness) = rho (Singer, Best Approximation
in Normed Linear Spaces, 1970).  Any such g gives the lower bound
g(x - y) <= rho(x, Y) for every y in Y; the witness gives the upper bound.
Solver routes:

  * p = 2        orthogonal projection (closed form)
  * p in {1, inf} exact linear-program reduction (HiGHS)
  * other p      smooth convex minimization over the coefficients

level_endpoint gives the ends of the interval {t : rho(x + t q, Y) <= d}, the
exact root step of the backward constructions, each with the certificate of
rho at that end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .spaces import NormSpec, Subspace, as_vector, norm_eval

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # scipy releases without the HiGHS core bindings
    from scipy.optimize import linprog
else:
    _STATUS = {
        _highs.HighsModelStatus.kOptimal: 0,
        _highs.HighsModelStatus.kTimeLimit: 1,
        _highs.HighsModelStatus.kIterationLimit: 1,
        _highs.HighsModelStatus.kInfeasible: 2,
        _highs.HighsModelStatus.kModelError: 2,
        _highs.HighsModelStatus.kUnbounded: 3,
    }

    def linprog(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=(0, None)):
        """scipy.optimize.linprog(method="highs") on dense blocks, calling the
        HiGHS solver scipy ships without linprog's input checks and option
        handling, which cost most of a small LP.  The model, the options that
        differ from HiGHS's defaults (presolve on, output off) and the status
        codes are linprog's, so x, fun and the row duals ineqlin.marginals
        (the first len(b_ub)) are bit for bit the same.  linprog's residual
        check afterwards, at 3.2e-4, lies far outside HiGHS's own 1e-7."""
        c = np.asarray(c, dtype=float)
        n = c.size
        A = np.vstack([A_ub] if A_eq is None else [A_ub, A_eq]).astype(float, copy=False)
        b_ub = np.asarray(b_ub, dtype=float)
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
        lo, hi = np.broadcast_to(np.array(bounds, dtype=float), (n, 2)).T  # None -> nan
        nonzero = A.T != 0.0  # column-wise, rows ascending, as scipy's CSC
        lp = _highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, A.shape[0]
        lp.col_cost_ = c
        lp.col_lower_ = np.where(np.isnan(lo), -np.inf, lo)
        lp.col_upper_ = np.where(np.isnan(hi), np.inf, hi)
        lp.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
        lp.row_upper_ = np.concatenate([b_ub, b_eq])
        matrix = lp.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n, A.shape[0]
        matrix.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))]).astype(np.int32)
        matrix.index_ = np.nonzero(nonzero)[1].astype(np.int32)
        matrix.value_ = A.T[nonzero]
        solver = _highs._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("presolve", "on")
        if solver.passModel(lp) == _highs.HighsStatus.kError:
            model_status = _highs.HighsModelStatus.kModelError
        else:
            solver.run()
            model_status = solver.getModelStatus()
        status = _STATUS.get(model_status, 4)
        out = OptimizeResult(x=None, fun=None, status=status, success=status == 0,
                             message=f"HiGHS: {solver.modelStatusToString(model_status)}",
                             ineqlin=OptimizeResult(marginals=None))
        if status == 0:  # the solution is read only at an optimum, as linprog does
            solution = solver.getSolution()
            out.x = np.array(solution.col_value)
            out.fun = solver.getInfo().objective_function_value
            out.ineqlin.marginals = np.array(solution.row_dual)[: b_ub.size]
        return out


DEFAULT_TOLS = {"l2": 1e-10, "lp_linear": 1e-8, "lp_general": 1e-7}


class SolverError(RuntimeError):
    """A distance solver failed to converge."""


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
    # Raw direction of the certificate, as the route has it: the residual's
    # norming direction, or the LP's row duals.  dual() projects and scales it.
    dual_direction: np.ndarray | None = None

    def witness(self, Y: Subspace) -> np.ndarray:
        if Y.rank == 0:
            return np.zeros(Y.ambient_dim)
        return Y.basis @ self.witness_coeffs

    def dual(self, Y: Subspace, norm: NormSpec) -> np.ndarray | None:
        """The certificate g: |g|_* = 1 and g|Y = 0, with g(x - witness) =
        value to the route's accuracy.  None when the direction vanishes (x
        in Y, where rho = 0 needs no certificate)."""
        if self.dual_direction is None:
            return None
        g = Y.residual(self.dual_direction)
        size = norm_eval(g, NormSpec(norm.dual_p))
        return g / size if size > 0.0 else None


class Endpoint(NamedTuple):
    """An end t of a level set, with rho(x + t q, Y) and its certificate
    (None from the closed-form p = 2 quadratic, which solves for t only)."""

    t: float
    certificate: DistanceResult | None


def _norming_direction(r: np.ndarray, norm: NormSpec) -> np.ndarray:
    """A direction g with g(r) = |r| |g|_*: |r|^(p-1) sign(r), or for the sup
    norm the signed unit vector at the largest entry."""
    if norm.is_sup:
        g = np.zeros_like(r)
        i = int(np.argmax(np.abs(r)))
        g[i] = np.sign(r[i])
        return g
    return np.abs(r) ** (norm.p - 1.0) * np.sign(r)


def _rho_l2(x: np.ndarray, Y: Subspace) -> DistanceResult:
    c = Y.basis.T @ x
    r = x - Y.basis @ c
    value = float(np.linalg.norm(r))
    eps = 1e-13 * max(1.0, float(np.linalg.norm(x)))
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=eps, solver="closed_form_l2",
                          dual_direction=r)


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
    return linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds)


def _lp_dual(res, m: int) -> np.ndarray:
    """Certificate direction of an _lp solve: the duals of its rows
    x - A v <= s minus those of A v - x <= s.  They annihilate A's columns
    that are free and cost nothing, and take the sign of the residual."""
    lam = -res.ineqlin.marginals
    return lam[:m] - lam[m:2 * m]


def _rho_linprog(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
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
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=default_tol(norm),
                          solver="linear_program", dual_direction=_lp_dual(res, x.size))


def _rho_convex(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
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
    r = x - B @ c
    value = norm_eval(r, norm)
    if not res.success and res.status != 2:  # status 2: precision loss at optimum
        raise SolverError(f"convex descent failed: {res.message}")
    return DistanceResult(value=value, witness_coeffs=c, achieved_tol=default_tol(norm),
                          solver="convex_descent", dual_direction=_norming_direction(r, norm))


def rho(x, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """Distance rho(x, Y) with a best-approximant witness."""
    x = as_vector(x, dim=Y.ambient_dim)
    if Y.rank == 0:
        return DistanceResult(
            value=norm_eval(x, norm),
            witness_coeffs=np.zeros(0),
            achieved_tol=0.0,
            solver="zero_subspace",
            dual_direction=_norming_direction(x, norm),
        )
    if norm.p == 2.0:
        return _rho_l2(x, Y)
    if norm.p == 1.0 or norm.is_sup:
        return _rho_linprog(x, Y, norm)
    return _rho_convex(x, Y, norm)


def best_approximant(x, Y: Subspace, norm: NormSpec) -> np.ndarray:
    """The nearest point of Y to x (one of them, for non-strictly-convex norms)."""
    return rho(x, Y, norm).witness(Y)


def level_endpoint(x, q, Y: Subspace, norm: NormSpec, d: float, upper: bool) -> Endpoint | None:
    """Upper (or lower) end of {t : rho(x + t q, Y) <= d}; None when empty.

    t -> rho(x + t q, Y) is convex, and coercive for q outside Y, so the set
    is a closed interval and each end is one exact solve:

      * p = 2        a quadratic on the orthogonal complement of Y
      * p in {1, inf} one linear program maximizing t
      * other p      Newton on rho - d from the outer bound t_min + (d +
                     rho_min) / rho(q, Y), where rho_min = rho(x, Y + span q)
                     is the minimum over t, at t_min; the iterates stay outside

    The end comes with rho(x + t q, Y) and its certificate, from the solve
    that found it (none from the quadratic).  The lower end is minus the
    upper end for -q.  A set that misses d by at most rho's accuracy,
    default_tol(norm) * (1 + d), is the point t_min: tied targets put d at
    that minimum, where rounding can leave it just out of reach.  q inside Y
    (the set is empty or all of R) raises SolverError.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    q = as_vector(q, dim=Y.ambient_dim)
    if not upper:
        end = level_endpoint(x, -q, Y, norm, d, upper=True)
        return None if end is None else Endpoint(-end.t, end.certificate)
    B = Y.basis
    cx = B.T @ x
    xp, qp = x - B @ cx, q - B @ (B.T @ q)
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
                return Endpoint((sq - ab) / bb, None)
            return Endpoint(-cc / (ab + sq) if ab + sq > 0.0 else 0.0, None)
    elif exact_route:
        scale = max(norm_eval(xp, norm), d) or 1.0  # as in _rho_linprog
        cost = np.append(np.zeros(Y.rank), -1.0)  # maximize t
        res = _lp(xp / scale, np.column_stack([B, -q]), norm, cost, d / scale)
        if res.status != 2:  # 2: infeasible
            if not res.success:
                raise SolverError(f"level-set linear program failed: {res.message}")
            t = float(res.x[Y.rank]) * scale
            c = cx + res.x[: Y.rank] * scale
            cert = DistanceResult(
                value=norm_eval(x + t * q - B @ c, norm), witness_coeffs=c,
                achieved_tol=default_tol(norm), solver="linear_program",
                dual_direction=_lp_dual(res, x.size),
            )
            return Endpoint(t, cert)
    # The exact routes found the set empty; other p start here.
    Z = Subspace(np.column_stack([B, qp / np.linalg.norm(qp)]))
    low = rho(x, Z, norm)
    w = low.witness(Z)
    t_min = -float(qp @ w) / float(qp @ qp)
    tangent_tol = default_tol(norm) * (1.0 + d)
    if low.value - d > tangent_tol:
        return None
    if low.value >= d - tangent_tol:
        # x + t_min q - (w + t_min q) = x - w, and w + t_min q lies in Y;
        # low's certificate annihilates Z, which holds Y.
        return Endpoint(t_min, DistanceResult(
            value=low.value, witness_coeffs=B.T @ (w + t_min * q), achieved_tol=low.achieved_tol,
            solver=low.solver, dual_direction=low.dual_direction,
        ))
    if exact_route:
        raise SolverError(f"no end found, yet the level set holds t = {t_min:.9g}")
    # An inexact slope (a near-optimal witness) can step inside, and the next
    # step back out.  A |gap| that stops shrinking has met rho's noise.
    p = norm.p
    t = t_min + (d + low.value) / rho(q, Y, norm).value
    best, best_gap = None, math.inf
    for _ in range(100):
        res = rho(x + t * q, Y, norm)
        gap = res.value - d
        if abs(gap) <= 1e-13 * (1.0 + d):
            return Endpoint(t, res)
        if abs(gap) >= best_gap:
            break
        best, best_gap = Endpoint(t, res), abs(gap)
        # the derivative of rho along q, at the witness: g(q) for the
        # normalized |r|^(p-1) sign(r)
        slope = float(res.dual_direction @ q) / res.value ** (p - 1.0)
        if slope <= 0.0:
            break
        t -= gap / slope
    if best_gap > tangent_tol:
        raise SolverError(f"level-set Newton iteration stalled at gap {best_gap:.3e}")
    return best
