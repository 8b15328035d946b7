"""Distance from a point to a subspace under an lp norm, with witnesses.

rho(x, Y) = inf over y in Y of |x - y|.  In finite dimension the infimum is
attained, so every result carries witness coefficients c with best
approximant Y.basis @ c, and a Hahn-Banach certificate: a dual functional g
with |g|_* = 1, g|Y = 0 and g(x - witness) = rho (Singer, Best Approximation
in Normed Linear Spaces, 1970).  Any such g gives the lower bound
g(x - y) <= rho(x, Y) for every y in Y; the witness gives the upper bound.
Solver routes:

  * p = 2        orthogonal projection (closed form), on every subspace
  * coordinate   Y = span{e_i : i in S} ({0} included), p != 2: rho(x, Y)
                 is the norm of x off S, attained at x_S (closed form)
  * p = 1, inf   the annihilator LP max{g . x : B^T g = 0, |g|_* <= 1} at
                 an exact vertex, by exchange (_rho_linprog); its g is the
                 certificate and its c the witness, bracketing rho to rounding
  * other p      damped Newton on one side of Fenchel duality, to a 1e-13 gap

level_endpoint gives the upper end of the interval {t : rho(x + t q, Y) <= d},
the exact root step of the backward constructions off p = 2, with the
certificate of rho at that end; the lower end is minus the upper end for
-q.  On a coordinate subspace at p in {1, inf} the end is a closed form in
the entries of x and q off S, so a construction over a coordinate chain
solves no linear program.  The other routes, p = 2 among them (the p = 2
constructions solve no level set: their roots are closed forms), run on x,
q and d rescaled by powers of two, so every end moves with x, q and d
scaled together.

scipy is imported where a route first calls it, not with this module: LAPACK
(scipy.linalg.lapack) by the vertex exchange and by Newton at p < 2, HiGHS
(scipy.optimize._highspy) by linprog, which serves the level-set and
norming-face LPs.  The p = 2 and coordinate routes load neither, so runs on
them never pay for scipy's import (about 0.4 s on a 2-core x86-64 host).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .spaces import _TINY, NormSpec, Subspace, _norm, as_vector

_L2_TOL = 1e-10  # the accuracy of rho at p = 2, see default_tol

# linprog's status code by HiGHS model status name, as scipy's linprog maps them
_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2,
           "kModelError": 2, "kUnbounded": 3}
_local = threading.local()  # one solver per thread, see _solver


def __getattr__(name: str):
    """distance.minimize, resolved on first read (PEP 562): nothing here
    calls it, and importing scipy.optimize for it would cost every run."""
    if name == "minimize":
        from scipy.optimize import minimize  # noqa: F401  (bench/tracing.py patches this binding)

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _solver():
    """This thread's HiGHS solver, made on first use and reused: passModel
    replaces the model and drops the previous basis.  The first one imports
    scipy's HiGHS bindings."""
    solver = getattr(_local, "solver", None)
    if solver is None:
        from scipy.optimize._highspy import _core as highs

        solver = _local.solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("presolve", "off")
        # for the level-set and face LPs: the default 1e-7 left the annihilator
        # LP up to 2.3e-7 off rho on near-tied inputs
        solver.setOptionValue("primal_feasibility_tolerance", 1e-9)
        solver.setOptionValue("dual_feasibility_tolerance", 1e-9)
    return solver


class LPResult(NamedTuple):
    """linprog's answer: x, fun and row_dual are None unless status is 0."""

    status: int  # 0 optimal, 1 limit reached, 2 infeasible, 3 unbounded, 4 other
    message: str
    x: np.ndarray | None
    fun: float | None
    row_dual: np.ndarray | None


def linprog(c, A, row_lo, row_hi, col_lo, col_hi) -> LPResult:
    """min c . x subject to row_lo <= A x <= row_hi and col_lo <= x <= col_hi,
    A dense, a missing bound +-inf, solved by the HiGHS solver scipy ships
    (scipy.optimize._highspy, imported by the first call, so that a run
    with no LP never loads scipy.optimize).  Each thread keeps one solver,
    and the model goes to it through passModel's array overload, by
    pointer.  Presolve is off: on these dense LPs it removes nothing and
    costs more than the dual simplex itself.  The primal and dual feasibility tolerances are 1e-9
    (_solver).  The model and options are those scipy.optimize.linprog
    (method="highs") passes with these options for the same rows, so x, fun
    and the row duals are its x, fun and ineqlin/eqlin.marginals, bit for
    bit, and the status codes are its codes.  A level-set LP (_lp) costs
    about 0.2 ms at m = 8 and 0.9-2.1 ms at m = 64, a norming-face LP
    0.05-0.3 ms at m = 16-256, on a 2-core x86-64 host."""
    from scipy.optimize._highspy import _core as highs

    n = len(c)
    nonzero = A.T != 0.0  # column-wise, rows ascending, as scipy's CSC
    start = np.zeros(n, dtype=np.int32)  # n entries: HiGHS rejects the closing one
    np.cumsum(nonzero[:-1].sum(axis=1), out=start[1:])
    index = np.nonzero(nonzero)[1].astype(np.int32)
    solver = _solver()
    passed = solver.passModel(
        n, A.shape[0], index.size, 1, 1, 0.0,  # column-wise, minimize, no offset
        c, col_lo, col_hi, row_lo, row_hi,
        start, index, A.T[nonzero], np.zeros(n, dtype=np.int32))  # all columns continuous
    if passed == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
    else:
        solver.run()
        model_status = solver.getModelStatus()
    status = _STATUS.get(model_status.name, 4)
    message = f"HiGHS: {solver.modelStatusToString(model_status)}"
    if status != 0:  # the solution is read only at an optimum, as scipy's linprog does
        return LPResult(status, message, None, None, None)
    solution = solver.getSolution()
    return LPResult(status, message, np.array(solution.col_value),
                    solver.getObjectiveValue(), np.array(solution.row_dual))


class SolverError(RuntimeError):
    """A distance solver failed to converge."""


def default_tol(norm: NormSpec) -> float:
    """The accuracy a route states for its distances."""
    if norm.p == 2.0:
        return _L2_TOL
    if norm.p == 1.0 or norm.is_sup:
        return 1e-8
    return 1e-7


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness_coeffs: np.ndarray
    solver: str
    # Raw certificate direction: the residual or Newton's g, the level-set
    # LP's row duals, or the exchange's vertex g; dual() projects, scales it.
    dual_direction: np.ndarray | None = None

    def witness(self, Y: Subspace) -> np.ndarray:
        return Y.basis @ self.witness_coeffs

    def dual(self, Y: Subspace, norm: NormSpec) -> np.ndarray | None:
        """The certificate g: |g|_* = 1 and g|Y = 0, with g(x - witness) =
        value to the route's accuracy.  None when the direction vanishes (x
        in Y, where rho = 0 needs no certificate)."""
        if self.dual_direction is None:
            return None
        g = Y.residual(self.dual_direction)
        size = _norm(g, norm.dual_p)
        return g / size if size > 0.0 else None


class Endpoint(NamedTuple):
    """An end t of a level set, with rho(x + t q, Y) and its certificate."""

    t: float
    certificate: DistanceResult


def _norming_direction(r: np.ndarray, norm: NormSpec) -> np.ndarray:
    """A direction g with g(r) = |r| |g|_*: |r|^(p-1) sign(r), or for the
    sup norm the signed unit vector at the largest entry."""
    if norm.is_sup:
        g = np.zeros_like(r)
        i = int(np.argmax(np.abs(r)))
        g[i] = np.sign(r[i])
        return g
    return np.abs(r) ** (norm.p - 1.0) * np.sign(r)


def _rho_coordinate(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """On Y = span{e_i : i in S} the nearest point at every p is x_S, and
    rho(x, Y) is the norm of the residual r, x with its S entries set to 0;
    r's norming direction vanishes on S.  {0} is the case S empty."""
    r = x.copy()
    r[Y.support] = 0.0
    value = _norm(r, norm.p)
    if value > 0.0 and norm.p not in (1.0, math.inf):
        r = r / value  # |r|^(p - 1) would over- or underflow long before the norm
    return DistanceResult(value=value, witness_coeffs=Y.basis.T @ x, solver="coordinate",
                          dual_direction=_norming_direction(r, norm))


def _rho_l2(x: np.ndarray, Y: Subspace) -> DistanceResult:
    c = Y.basis.T @ x
    r = x - Y.basis @ c
    return DistanceResult(value=_norm(r, 2.0), witness_coeffs=c, solver="closed_form_l2",
                          dual_direction=r)


def _lp(x: np.ndarray, A: np.ndarray, norm: NormSpec, cost_v, d: float):
    """HiGHS LP over (v, s) with |x - A v| <= s entrywise (p = 1) or s
    scalar (p = inf), the sum of s capped at d, minimizing cost_v . v: the
    level sets' LP, on x and d over max(|xp|_p, d), so that HiGHS's absolute
    tolerances act relative to them."""
    m, n = A.shape
    J = np.ones((m, 1)) if norm.is_sup else np.eye(m)
    k = J.shape[1]
    rows = np.block([[-A, -J], [A, -J], [np.zeros((1, n)), np.ones((1, k))]])
    row_hi = np.concatenate([-x, x, [d]])
    col_lo = np.concatenate([np.full(n, -np.inf), np.zeros(k)])
    return linprog(np.concatenate([cost_v, np.zeros(k)]), rows, np.full(row_hi.size, -np.inf),
                   row_hi, col_lo, np.full(n + k, np.inf))


def _lp_dual(res, m: int) -> np.ndarray:
    """Certificate direction of an _lp solve: the duals of its rows
    x - A v <= s minus those of A v - x <= s.  They annihilate A's columns
    that are free and cost nothing, and take the sign of the residual."""
    return res.row_dual[m:2 * m] - res.row_dual[:m]


def _outside(x: np.ndarray, Y: Subspace, norm: NormSpec):
    """(c0, xp, |xp|_p) with x = B c0 + xp, xp a residual taken twice (one
    leaves xp's own rounding in Y); the norm is 0 for x in Y up to rounding."""
    c0 = Y.basis.T @ x
    xp = Y.residual(x - Y.basis @ c0)
    scale = _norm(xp, norm.p)
    if scale and np.abs(Y.basis.T @ xp).max(initial=0.0) > 1e-8 * scale:
        scale = 0.0
    return c0, xp, scale


def _pivot_rows(A: np.ndarray) -> list[int]:
    """The rows that row-pivoted LU of A takes as its pivots, in order."""
    from scipy.linalg.lapack import dgetrf

    rows = list(range(A.shape[0]))
    for i, j in enumerate(dgetrf(A)[1].tolist()):
        rows[i], rows[j] = rows[j], rows[i]
    return rows[:A.shape[1]]


def _sup_exchange(u: np.ndarray, B: np.ndarray, cap: int):
    """Stiefel's exchange (Cheney, Introduction to Approximation Theory, ch.
    2) for min |u - B c|_inf, the simplex method on g = sum_R lambda_k s_k
    e_k, lambda >= 0 summing to 1: a reference R of r + 1 rows, signs s and
    B_R of rank r make K = [B_R, s] nonsingular; K (c, h) = u_R levels e =
    u - B c to s h on R, and K^T g_R = e_{r+1}.  It starts at B's pivot rows
    weighted by |u| and the largest |u| off them, signed by their null
    vector; the largest |e| enters, and where a step leaves h (lambda_k = 0)
    rows enter and leave by smallest index (Bland) until one moves it, an
    entering row's excess over h at least 1e-6 of the largest (smaller ones
    are rounding, as where |u| ties).  A reference that comes back, where
    rounding outweighs the steps (K near singular), ends it with the least
    max |e| seen as the witness.  A zero row of B holds its residual at u_i
    whatever c: the other rows are solved alone, and rho is the larger of
    their distance and the largest such |u_i|, certified by that row's unit
    vector when it is larger."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    m, r = B.shape
    if not (live := B.any(axis=1)).all():
        j = np.flatnonzero(~live)[np.abs(u[~live]).argmax()]
        c, g_live = (_sup_exchange(u[live], B[live], cap) if live.sum() > r and u[live].any()
                     else (np.linalg.lstsq(B[live], u[live])[0], None))  # u fitted exactly on them
        g = np.zeros(m)
        if g_live is not None and np.abs(u[live] - B[live] @ c).max() >= abs(u[j]):
            g[live] = g_live
        else:
            g[j] = 1.0 if u[j] >= 0.0 else -1.0
        return c, g
    a = np.abs(u)
    P = _pivot_rows((a + 1e-3 * a.max())[:, None] * B)
    a[P] = -1.0
    R = np.array([*P, int(a.argmax())])
    lu, piv, _ = dgetrf(B[P])
    sigma = np.append(dgetrs(lu, piv, -B[R[r]], trans=1)[0], 1.0)
    s = np.where(sigma >= 0.0, 1.0, -1.0) * (1.0 if sigma @ u[R] >= 0.0 else -1.0)
    K, rhs = np.column_stack([B[R], s]), np.zeros((r + 1, 2))
    rhs[r] = 1.0
    bland, seen, best = False, set(), (np.inf, None)
    for _ in range(cap):
        lu, piv, _ = dgetrf(K)
        ch = dgetrs(lu, piv, u[R])[0]
        h, e = ch[r], u - B @ ch[:r]
        a = np.abs(e)
        a[R] = h  # |e| = h there, up to the rounding of the solve
        i = int(a.argmax())
        if (top := a[i]) < best[0]:  # h rises, max |e| need not fall
            best = top, ch[:r]
        repeat = False
        if bland:
            i = int(np.argmax(a > h + max(1e-14 * h, 1e-6 * (top - h))))
            repeat = (state := (R.tobytes(), s.tobytes())) in seen
            seen.add(state)
        if a[i] - h <= 1e-14 * h or repeat:
            g = np.zeros(m)
            g[R] = dgetrs(lu, piv, rhs[:, 0], trans=1)[0]
            return (best[1] if repeat else ch[:r]), g
        si = 1.0 if e[i] >= 0.0 else -1.0
        rhs[:r, 1] = si * B[i]
        lam, d = (s[:, None] * dgetrs(lu, piv, rhs, trans=1)[0]).T  # lambda, and its rate
        ratio = np.divide(np.maximum(lam, 0.0), d, out=np.full(r + 1, np.inf), where=d > 1e-12 * d.max())
        k = int(ratio.argmin())
        bland = ratio[k] * (a[i] - h) <= 1e-15 * h
        if bland:
            ties = np.flatnonzero(ratio <= ratio[k] + 1e-15)
            k = int(ties[np.argmin(R[ties])])
        R[k], s[k], K[k, :r], K[k, r] = i, si, B[i], si
    raise SolverError(f"vertex exchange reached its step cap 50 (m + r) = {cap}")


def _l1_exchange(u: np.ndarray, B: np.ndarray, cap: int):
    """Barrodale-Roberts descent (Watson, Approximation Theory and Numerical
    Methods, ch. 3, 4) for min |u - B c|_1, the dual simplex method: a
    vertex solves B_Z c = u_Z on r rows Z, g = s off Z, the signs of e = u -
    B c (kept where |e| <= 1e-13, a zero), and B_Z^T g_Z = -B^T s.  It
    starts at B's pivot rows weighted by 1 / (|u| + 1e-3 max |u|).  A step
    frees the largest |g_k| > 1 and moves c along B_Z delta = -sign(g_k) e_k
    past the rows that cross 0 (zero rows at once) until the slope 1 - |g_k|
    + 2 sum s_i v_i, v = B delta, turns; that row enters Z.  The first step
    of length 0 (zeros beyond r, as for a construction's x) moves u by
    1e-10 entrywise, which parts the zeros, and the walk goes on from there;
    g is then the moved vertex's, and c solves B_Z c = u_Z."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    m, r = B.shape
    a = np.abs(u)
    Z = np.array(_pivot_rows(B / (a + 1e-3 * a.max())[:, None]))
    s, unit = np.ones(m), np.zeros(r)
    s[Z] = 0.0
    v = u
    for _ in range(cap):
        lu, piv, _ = dgetrf(B[Z])
        c = dgetrs(lu, piv, v[Z])[0]
        e = v - B @ c
        nonzero = np.abs(e) > 1e-13
        np.copysign(s, e, out=s, where=nonzero)
        s[Z] = 0.0
        gz = dgetrs(lu, piv, -(B.T @ s), trans=1)[0]
        a = np.abs(gz)
        k = int(a.argmax())
        if a[k] <= 1.0 + 1e-13:
            s[Z] = gz
            return (c if v is u else dgetrs(lu, piv, u[Z])[0]), s
        unit[:] = 0.0
        unit[k] = sk = -1.0 if gz[k] < 0.0 else 1.0
        sv = s * (B @ dgetrs(lu, piv, -unit)[0])  # v_k = -sk: v in units of v_k
        rows = np.flatnonzero(sv > 1e-12)  # crossing, and with a pivot away from 0
        tau = (e * nonzero)[rows] * s[rows] / sv[rows]
        order = np.argsort(tau, kind="stable")
        j = order[np.searchsorted(np.cumsum(2.0 * sv[rows[order]]), a[k] - 1.0)]
        if tau[j] <= 1e-15 and v is u:
            v = u + 1e-10 * np.random.default_rng(m).uniform(0.5, 1.5, m)
            continue
        s[Z[k]], s[rows[j]], Z[k] = sk, 0.0, rows[j]
    raise SolverError(f"vertex exchange reached its step cap 50 (m + r) = {cap}")


def _rho_linprog(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """rho at p in {1, inf}: a vertex of max{g . u : B^T g = 0, |g|_* <= 1},
    u = xp / |xp|_p, by an exchange with one square factorization a step and
    at most 50 (m + r) steps; its g and c bracket rho to rounding."""
    c0, xp, scale = _outside(x, Y, norm)
    if not scale:
        return DistanceResult(0.0, c0, "linear_program")
    exchange = _sup_exchange if norm.is_sup else _l1_exchange
    c, g = (exchange(xp / scale, Y.basis, 50 * (x.size + Y.rank)) if Y.rank
            else (c0, _norming_direction(xp, norm)))  # {0}: g norms xp
    c = c0 + scale * c
    return DistanceResult(_norm(x - Y.basis @ c, norm.p), c, "linear_program", g)


def _annihilator_step(grad: np.ndarray, s: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The d minimizing d . diag(s) d / 2 + grad . d subject to B^T d = 0.
    Row-pivoted LU of [w B, w grad], w = s^(-1/2), puts e = d / w's r heaviest
    rows P first: e_P = -M^T e_F, M = L_F L_P^-1, and Woodbury solves (I + M
    M^T) e_F = the last column's elimination in O(m r^2), never dividing by s_P."""
    from scipy.linalg.lapack import dgetrf, dlaswp

    r, w = B.shape[1], s**-0.5
    lu, swaps, _ = dgetrf(w[:, None] * np.append(B, grad[:, None], axis=1))
    M = lu[r:, :r] @ np.linalg.inv(np.where(np.tri(r, k=-1, dtype=bool), lu[:r, :r], np.eye(r)))
    z = -lu[r, r] * np.append(1.0, lu[r + 1:, r])
    e = z - M @ np.linalg.solve(np.eye(r) + M.T @ M, M.T @ z)
    return w * dlaswp(np.append(-(M.T @ e), e)[:, None], swaps, inc=-1)[:, 0]


def _rho_convex(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """Damped Newton (Boyd & Vandenberghe, Convex Optimization, 9.5, 10.2) on
    the side of min |u - B c|_p^p / p = max {g . u - |g|_q^q / q : B^T g = 0}
    (Rockafellar, Convex Analysis, 31) with the bounded Hessian diag((k - 1)
    |v|^(k-2)), k = max(p, q): v = u - B c for p >= 2, v = g for p < 2, with
    r or g the other side's projection of |v|^(k-1) sign v, until |r|_p -
    g . u / |g|_q <= 1e-13 (1 + rho).  u = xp / |xp|_p as in _rho_linprog.
    A subnormal x, where xp would lose its direction to underflow, runs
    divided by the power of two 2^e that puts max |x| in [1/2, 1), and the
    value and witness scale back; an x with a normal entry keeps its bits."""
    top = float(np.abs(x).max())
    if 0.0 < top < _TINY:
        e = math.frexp(top)[1]
        res = _rho_convex(np.ldexp(x, -e), Y, norm)
        return replace(res, value=math.ldexp(res.value, e),
                       witness_coeffs=np.ldexp(res.witness_coeffs, e))
    p, q, B = norm.p, norm.dual_p, Y.basis
    c0, xp, scale = _outside(x, Y, norm)
    if not scale:
        return DistanceResult(0.0, c0, "convex_descent")
    u, primal = xp / scale, p >= 2.0
    k, lin, v = (p, 0.0 * u, u) if primal else (q, u, u)
    if not primal:  # g: r after 3 reweighted l2 steps (Lawson; |r| floored at
        for _ in range(3):  # 1e-3 max), its norming direction at its best multiple
            a = np.maximum(np.abs(v), 1e-3 * np.abs(v).max()) ** (p - 2.0)
            v = u - B @ np.linalg.solve(B.T @ (a[:, None] * B), B.T @ (a * u))
        v = Y.residual(_norming_direction(v, norm))
        v /= np.abs(v).max()
        v *= (float(v @ u) / np.sum(np.abs(v) ** q)) ** (1.0 / (q - 1.0))
    def objective(w):
        return float(np.sum(np.abs(w) ** k)) / k - float(lin @ w)
    f = objective(v)
    for _ in range(100):
        phi = np.abs(v) ** (k - 1.0) * np.sign(v)
        toward_y = B @ (B.T @ phi)
        g, r = (phi - toward_y, v) if primal else (v, u + toward_y)
        value = np.linalg.norm(r, p)
        gap = value - float(g @ u) / np.linalg.norm(g, q)
        if gap <= 1e-13 * (1.0 + value):
            break
        s = (k - 1.0) * np.abs(v) ** (k - 2.0)
        s = np.maximum(s, 1e-12 * s.max())
        d = (B @ np.linalg.solve(B.T @ (s[:, None] * B), -(B.T @ phi)) if primal
             else _annihilator_step(phi - lin, s, B))
        slope, t = float((phi - lin) @ d), 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a long trial step may overflow
            while not (f_t := objective(v_t := v + t * d)) <= f + t * slope / 4 + 1e-15 * (1 + abs(f)):
                t /= 2
        f, v = f_t, v_t
    if gap > default_tol(norm) * (1.0 + value):
        raise SolverError(f"Newton iteration stopped at certificate gap {gap:.3e}")
    c = c0 + scale * (B.T @ (u - r))
    return DistanceResult(_norm(x - B @ c, norm.p), c, "convex_descent", g)


def rho(x, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """Distance rho(x, Y) with a best-approximant witness."""
    return _rho(as_vector(x, dim=Y.ambient_dim), Y, norm)


def _rho(x: np.ndarray, Y: Subspace, norm: NormSpec) -> DistanceResult:
    """rho on a checked vector: the route dispatch."""
    if norm.p == 2.0:
        return _rho_l2(x, Y)
    if Y.support is not None:
        return _rho_coordinate(x, Y, norm)
    if norm.p == 1.0 or norm.is_sup:
        return _rho_linprog(x, Y, norm)
    return _rho_convex(x, Y, norm)


def best_approximant(x, Y: Subspace, norm: NormSpec) -> np.ndarray:
    """The nearest point of Y to x (one of them, for non-strictly-convex norms)."""
    return rho(x, Y, norm).witness(Y)


def _coordinate_level_end(a: np.ndarray, b: np.ndarray, norm: NormSpec, d: float) -> float | None:
    """Upper end of {t : |a + t b| <= d} at p in {1, inf}, None when empty:
    the level set of rho(x + t q, Y) for Y a coordinate subspace, with a and
    b the entries of x and q off its support.

      * p = inf   |a_i + t b_i| <= d ends at (d - sign(b_i) a_i) / |b_i|
                  and starts at (-d - sign(b_i) a_i) / |b_i|; the set is the
                  intersection, empty if some |a_i| > d has b_i = 0
      * p = 1     f(t) = sum |a_i + t b_i| is convex and linear between the
                  sorted breakpoints t_i = -a_i / b_i, where prefix sums give
                  f and its right slope; the end lies right of the last
                  breakpoint with f <= d, measured from there
    """
    fixed, a, b = np.abs(a[b == 0.0]), a[b != 0.0], b[b != 0.0]
    sa, w = np.sign(b) * a, np.abs(b)  # |a_i + t b_i| = sa_i + t w_i right of t_i
    if norm.is_sup:
        upper = float(np.min((d - sa) / w))
        if np.any(fixed > d) or np.max((-d - sa) / w) > upper:
            return None
        return upper
    order = np.argsort(-a / b)
    a, b, sa, w = a[order], b[order], sa[order], w[order]
    t = -a / b
    slope = 2.0 * np.cumsum(w) - np.sum(w)
    f = np.sum(fixed) + 2.0 * np.cumsum(sa) - np.sum(sa) + t * slope
    if not (below := np.flatnonzero(f <= d)).size:
        return None
    k = below[-1]
    if slope[k] <= 0.0:  # f flat up to rounding: the end is t_k
        return float(t[k])
    return float(t[k] + (d - np.sum(fixed) - np.sum(np.abs(a + t[k] * b))) / slope[k])


def level_endpoint(x, q, Y: Subspace, norm: NormSpec, d: float) -> Endpoint | None:
    """Upper end of {t : rho(x + t q, Y) <= d}; None when empty.

    t -> rho(x + t q, Y) is convex, and coercive for q outside Y, so the set
    is a closed interval and each end is one exact solve:

      * p in {1, inf} on a coordinate subspace, a closed form in the entries
                     of x and q off its support (_coordinate_level_end);
                     otherwise one linear program maximizing t
      * other p      Newton on rho - d, slope g(q) for rho's certificate g,
                     from the outer bound t_min + (d + rho_min) / rho(q, Y),
                     rho_min = rho(x, Y + span q) the minimum, at t_min;
                     p = 2 among them (no construction solves a p = 2 set)

    The end comes with rho(x + t q, Y) and its certificate, from the solve
    that found it.  The lower end is minus the upper end for -q, with the
    same certificate.  The coordinate closed form is scale-free; the linear
    program, the tangent rule and Newton run on x and d divided by 2^ex and
    q by 2^eq, so that max(|xp|_2, d) and |qp|_2 lie in [1/2, 1), and the
    tolerances below are in those units.  A set that misses d by at most rho's accuracy,
    default_tol(norm) * (1 + d), is the point t_min: tied targets put d at
    that minimum, where rounding can leave it just out of reach.  q inside Y
    (the set is empty or all of R), or 100 Newton steps short of
    |rho - d| <= 1e-13 (1 + d), raise SolverError.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    q = as_vector(q, dim=Y.ambient_dim)
    B = Y.basis
    cx = B.T @ x
    xp, qp = x - B @ cx, q - B @ (B.T @ q)
    nx, nq = _norm(xp, 2.0), _norm(qp, 2.0)
    if nq <= 1e-12 * _norm(q, 2.0):
        raise SolverError("level set of a direction inside the subspace is empty or unbounded")
    linear = norm.p == 1.0 or norm.is_sup
    if linear and Y.support is not None:
        a, b = np.delete(xp, Y.support), np.delete(qp, Y.support)
        if (t := _coordinate_level_end(a, b, norm, d)) is not None:
            return Endpoint(t, _rho_coordinate(x + t * q, Y, norm))
    # The rules below are absolute, so they run in the units above; end()
    # scales back (rho's dual direction has no scale).
    ex, eq = math.frexp(max(nx, d))[1], math.frexp(nq)[1]
    x, cx, xp, d = np.ldexp(x, -ex), np.ldexp(cx, -ex), np.ldexp(xp, -ex), math.ldexp(d, -ex)
    q, qp = np.ldexp(q, -eq), np.ldexp(qp, -eq)
    def end(t: float, res: DistanceResult) -> Endpoint:
        return Endpoint(math.ldexp(t, ex - eq), replace(
            res, value=math.ldexp(res.value, ex), witness_coeffs=np.ldexp(res.witness_coeffs, ex)))
    if linear and Y.support is None:
        scale = max(_norm(xp, norm.p), d) or 1.0  # see _lp
        cost = np.append(np.zeros(Y.rank), -1.0)  # maximize t
        res = _lp(xp / scale, np.column_stack([B, -q]), norm, cost, d / scale)
        if res.status != 2:  # 2: infeasible
            if res.status != 0:
                raise SolverError(f"level-set linear program failed: {res.message}")
            t = float(res.x[Y.rank]) * scale
            c = cx + res.x[: Y.rank] * scale
            return end(t, DistanceResult(_norm(x + t * q - B @ c, norm.p), c, "linear_program",
                                         _lp_dual(res, x.size)))
    # The exact routes found the set empty, or missed it by rounding where d
    # is the minimum; other p start here.
    Z = Subspace(np.column_stack([B, qp / math.ldexp(nq, -eq)]))
    low = _rho(x, Z, norm)
    w = low.witness(Z)
    t_min = -float(qp @ w) / float(qp @ qp)
    tangent_tol = default_tol(norm) * (1.0 + d)
    if low.value - d > tangent_tol:
        return None
    if low.value >= d - tangent_tol:
        # x + t_min q - (w + t_min q) = x - w, and w + t_min q lies in Y;
        # low's certificate annihilates Z, which holds Y.
        return end(t_min, replace(low, witness_coeffs=B.T @ (w + t_min * q)))
    if linear:
        t_min = math.ldexp(t_min, ex - eq)
        raise SolverError(f"no end found, yet the level set holds t = {t_min:.9g}")
    t = t_min + (d + low.value) / _rho(q, Y, norm).value
    for _ in range(100):
        res = _rho(x + t * q, Y, norm)
        gap = res.value - d
        if abs(gap) <= 1e-13 * (1.0 + d):
            return end(t, res)
        t -= gap / float(res.dual(Y, norm) @ q)
    raise SolverError(f"level-set Newton iteration stopped at gap {gap:.3e}")
