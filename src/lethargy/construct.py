"""Constructive realization of prescribed best-approximation distances.

Given a strictly nested chain Y_1 c Y_2 c ... and non-increasing targets
d_1 >= d_2 >= ... >= 0, the routines here build an element x with
rho(x, Y_k) = d_k:

  * finite_construct      finitely many targets (zero tail), over unit steps;
  * interpolating_family  elements q with rho(q, Q1) = u_m, rho(q, Q2) = v_m
                          for prescribed u_m >= v_m;
  * construct_prefix      prefix construction over steps of norm
                          u_Np^(j) = 1 + tau_Np / (2^j d_j), one column of the
                          Borodin schedule, recording the per-level
                          coefficients and their bounds;
  * construct_sequence    a ladder of prefixes with pairwise-difference
                          stabilization diagnostics;

plus the tail-domination (Borodin) condition checker and a sampled checker
for the subspace-side condition.  The three modes make one call each to one
core, _realize, for rungs N, N and 1..N_max, so a prefix is the last rung
of its ladder.  The core derives its own steps (_prefix_steps: entry checks,
zero-tail reduction, the one step rule of _unit_step), runs one backward
pass per distinct rung and measures and gates every level of every rung at
its final x: at p = 2 with a closed-form root per level, all rungs measured
at once on a flag frame F (Chain._frame) from one product X F; off p = 2
with one solve per root, whose certificate the measure uses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .distance import _L2_TOL, DistanceResult, Endpoint, SolverError, _rho, level_endpoint, rho
from .functionals import norming_functional  # noqa: F401  (bench/tracing.py patches this binding)
from .spaces import Chain, NormSpec, Subspace, _norm, _norms, as_vector, norm_eval, validate_chain


class TargetError(ValueError):
    """Invalid target sequence (monotonicity, tail, or positivity)."""


class ConstructionError(RuntimeError):
    """The backward construction could not meet its contract."""


# ---------------------------------------------------------------------------
# target sequences and the tail-domination condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSequence:
    """Non-increasing targets d_1 >= d_2 >= ... with a zero or geometric tail."""

    values: tuple[float, ...]
    tail: str = "zero"
    ratio: float | None = None

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise TargetError("target sequence must have at least one value")
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise TargetError("targets must be finite and non-negative")
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-15 * a:  # relative: targets scale freely
                raise TargetError(f"targets must be non-increasing, got {a} < {b}")
        if self.tail not in ("zero", "geometric"):
            raise TargetError(f"unknown tail kind {self.tail!r}")
        if self.tail == "geometric":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise TargetError(f"geometric tail needs ratio in (0, 1), got {self.ratio}")
            if vals[-1] == 0.0:
                raise TargetError("geometric tail cannot continue a zero value")
        elif self.ratio is not None:
            raise TargetError("ratio is only meaningful for a geometric tail")

    def __len__(self):
        return len(self.values)

    def value(self, n: int) -> float:
        """d_n for any n >= 1, continuing past the stored block."""
        if n < 1:
            raise IndexError("targets are 1-indexed")
        if n <= len(self.values):
            return self.values[n - 1]
        if self.tail == "zero":
            return 0.0
        return self.values[-1] * self.ratio ** (n - len(self.values))

    def tail_sum_after(self, n: int) -> float:
        """Exact sum of d_k for k > n (closed form for the geometric part)."""
        if self.tail == "zero":
            return math.fsum(self.values[n:])
        if n >= len(self.values):  # sum_{k>n} d_N r^{k-N} for n >= N
            return self.value(n) * self.ratio / (1.0 - self.ratio)
        return math.fsum(self.values[n:]) + self.values[-1] * self.ratio / (1.0 - self.ratio)

    def is_strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class BorodinReport:
    """Result of the strict tail-domination check d_n > sum_{k>n} d_k."""

    passes: bool
    n0: int | None
    margins: tuple[float, ...]
    tail_margin_factor: float | None = None  # (1 - 2r)/(1 - r) for geometric tails


def check_borodin_condition(d: TargetSequence) -> BorodinReport:
    """Strict tail-domination from some index on, at every positive target.

    Margins are d_n minus the exact tail sum; for geometric tails the
    infinitely many indices beyond the stored block are covered by the
    closed-form margin factor (1 - 2r)/(1 - r).
    """
    margins = tuple(d.value(n) - d.tail_sum_after(n) for n in range(1, len(d) + 1))
    tail_factor = (1.0 - 2.0 * d.ratio) / (1.0 - d.ratio) if d.tail == "geometric" else None
    # smallest n0 with margin > 0 at every later positive target
    last_bad = 0
    for n in range(1, len(d) + 1):
        if d.value(n) > 0 and margins[n - 1] <= 0.0:
            last_bad = n
    passes = tail_factor is None or tail_factor > 0.0
    return BorodinReport(passes=passes, n0=last_bad + 1 if passes else None, margins=margins,
                         tail_margin_factor=tail_factor)


@dataclass(frozen=True)
class SubspaceSample:
    norm_q: float
    rho_q: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class SubspaceConditionReport:
    """Sampled verdict for |q| <= (d_{k-1}/d_k) rho(q, Y_k).

    The underlying condition quantifies over an infinite span; this report
    only ever says "no counterexample found among samples".
    """

    level: int
    ratio: float
    samples: tuple[SubspaceSample, ...]
    counterexample_found: bool

    @property
    def verdict(self) -> str:
        if self.counterexample_found:
            return "counterexample found among samples"
        return "no counterexample found among samples (sampled check only)"


def check_subspace_condition(
    chain: Chain,
    d: TargetSequence,
    q_samples,
    k: int,
) -> SubspaceConditionReport:
    if k < 2:
        raise ValueError("the subspace condition needs k >= 2 (d_{k-1} must exist)")
    dk = d.value(k)
    if dk <= 0:
        raise TargetError("d_k = 0 makes the ratio d_{k-1}/d_k undefined")
    ratio = d.value(k - 1) / dk
    Yk = chain.level(k)
    samples = []
    for q in q_samples:
        q = as_vector(q, dim=chain.ambient_dim)
        nq = norm_eval(q, chain.norm)
        rq = rho(q, Yk, chain.norm).value
        bound = ratio * rq
        holds = nq - bound <= 1e-9 * nq  # relative: the condition scales with q
        samples.append(SubspaceSample(norm_q=nq, rho_q=rq, bound=bound, holds=holds))
    return SubspaceConditionReport(level=k, ratio=ratio, samples=tuple(samples),
                                   counterexample_found=not all(s.holds for s in samples))


# ---------------------------------------------------------------------------
# step vectors and root finding
# ---------------------------------------------------------------------------


def normalize_step(chain: Chain, n: int) -> np.ndarray:
    """A unit vector y in Y_{n+1} \\ Y_n with rho(y, Y_n) = |y| = 1: the
    step of every construction mode, by the one step rule of _unit_step.
    """
    Yn, Ynext = chain.level(n), chain.level(n + 1)
    if Ynext.rank <= Yn.rank:
        raise ConstructionError(f"no direction available above level {n}")
    return _unit_step(Yn, Ynext, chain.norm, chain._extends_at(n))[0]


def _unit_step(Yn: Subspace, Ynext: Subspace, norm: NormSpec, extends: bool
               ) -> tuple[np.ndarray, DistanceResult | None]:
    """normalize_step's y for Yn of lower rank than Ynext, with the certificate
    of rho(y, Yn) = 1.  The one step rule: where Ynext's basis extends Yn's
    (extends, the chain's spaces._extends; so out of {0}) y is its column
    rank(Yn) + 1 at p = 2, with no certificate (p = 2 uses none); otherwise
    that column, or else Ynext's column farthest from Yn, minus its best
    approximant in Yn, normalized and oriented, with that solve's
    certificate, witness 0."""
    if extends:
        z = Ynext.basis[:, Yn.rank]
        if norm.p == 2.0:
            return z.copy(), None  # not a view a caller could write the basis through
    else:
        z = Ynext.basis[:, int(np.argmax(np.linalg.norm(Yn.residual(Ynext.basis), axis=0)))]
    res = _rho(z, Yn, norm)
    y = z - res.witness(Yn)
    ny = _norm(y, norm.p)
    if ny <= 1e-12:
        raise ConstructionError(f"degenerate step out of a rank-{Yn.rank} subspace: "
                                f"residual norm {ny:.3e}")
    y = y / ny
    # deterministic orientation
    sign = 1.0 if y[int(np.argmax(np.abs(y)))] >= 0 else -1.0
    return sign * y, replace(res, value=1.0, witness_coeffs=np.zeros(Yn.rank),
                             dual_direction=sign * res.dual_direction)


def smallest_root(x: np.ndarray, q: np.ndarray, Y: Subspace, norm: NormSpec, target: float) -> Endpoint:
    """The root t of rho(x + t q, Y) = target that every construction takes,
    with its certificate at x + t q: the upper end b of the level set
    {t : rho(x + t q, Y) <= target}, an interval [a, b] (convexity), from
    one level_endpoint solve.  Where the set holds 0, as tail domination
    makes it, b is the intermediate-value root t >= 0.  A set left of 0
    gives b < 0, a negative coefficient; a set right of 0 gives b, its far
    end.  Raises when the set is empty.
    """
    if (b := level_endpoint(x, q, Y, norm, target)) is None:
        raise _below_minimum(target)
    return b


def _below_minimum(target: float) -> ConstructionError:
    return ConstructionError(f"target {target:.9g} below attainable minimum of rho(x + t q, Y)")


# ---------------------------------------------------------------------------
# interpolating families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    q: np.ndarray
    mu: float  # coordinate along the within-Q2 search direction (0 when u == v)


@dataclass(frozen=True)
class InterpolationFamily:
    members: tuple[FamilyMember, ...]
    step_outer: np.ndarray  # unit step out of Q2 (distance 1 to Q2 and Q1)
    step_inner: np.ndarray  # unit direction of Q2 outside Q1


def interpolating_family(
    Q1: Subspace,
    Q2: Subspace,
    Q3: Subspace,
    norm: NormSpec,
    u,
    v,
) -> InterpolationFamily:
    """Members q_m with rho(q_m, Q1) = u_m and rho(q_m, Q2) = v_m.

    Each member is v_m * y + lambda_m * s where y is a unit step out of Q2
    (so the Q2 distance is exactly v_m) and s is a unit direction of Q2
    outside Q1; lambda_m is the root >= 0 of the convex coercive map
    lambda -> rho(v_m y + lambda s, Q1) = u_m (smallest_root): at p = 2,
    y orthogonal to s and Q1, sqrt((u_m - v_m)(u_m + v_m)) (_l2_root),
    otherwise one level-set solve.
    """
    u = [float(t) for t in u]
    v = [float(t) for t in v]
    if len(u) != len(v) or not u:
        raise ValueError("u and v must be non-empty and of equal length")
    for um, vm in zip(u, v):
        if not (math.isfinite(um) and math.isfinite(vm)):
            raise ValueError(f"targets must be finite, got ({um}, {vm})")
        if not (um >= vm >= 0.0):
            raise ValueError(f"targets must satisfy u_m >= v_m >= 0, got ({um}, {vm})")
    chain = Chain(ambient_dim=Q3.ambient_dim, norm=norm, levels=(Q1, Q2, Q3))
    _nested(chain)
    y = _unit_step(Q2, Q3, norm, chain._extended[1])[0]
    s = _unit_step(Q1, Q2, norm, chain._extended[0])[0]
    lams = [_l2_root(um, vm) if norm.p == 2.0 else smallest_root(vm * y, s, Q1, norm, um).t
            for um, vm in zip(u, v)]
    members = [FamilyMember(q=vm * y + lam * s, mu=lam) for vm, lam in zip(v, lams)]
    return InterpolationFamily(members=tuple(members), step_outer=y, step_inner=s)


def _nested(chain: Chain) -> None:
    """The nesting check of every entry point; the core behind them trusts it."""
    nesting = validate_chain(chain)
    if not nesting.passes:
        raise ValueError(f"nesting hypothesis violated: {nesting.failure}")


# ---------------------------------------------------------------------------
# construction traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructOptions:
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class CoefficientBound:
    level: int
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class ConstructionTrace:
    """x, its coefficients, residuals |rho(x, Y_k) - d_k| and certified lower
    bounds (None where rho re-measured the level); the records, achieved and
    coefficient_bounds, are built on first read from _records and _bounds."""

    x: np.ndarray
    coefficients: tuple[float, ...]
    targets: TargetSequence
    residuals: tuple[float, ...]
    lower_bounds: tuple[float | None, ...] = field(default_factory=tuple)
    _records: tuple[DistanceResult, ...] | Callable[[], tuple] = field(default=(), compare=False, repr=False)
    _bounds: tuple[float, ...] = ()

    @cached_property
    def achieved(self) -> tuple[DistanceResult, ...]:
        return self._records if isinstance(self._records, tuple) else self._records()

    @cached_property
    def coefficient_bounds(self) -> tuple[CoefficientBound, ...]:
        return tuple(CoefficientBound(k, lam, b, abs(lam) <= b)
                     for k, (lam, b) in enumerate(zip(self.coefficients, self._bounds), start=1))

    def __getstate__(self):  # pickled with its records built: a thunk does not pickle
        return {**self.__dict__, "_records": self.achieved}

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def certificate_gap(self) -> float | None:
        """Worst upper - lower over the certified levels; None, reading no record, when none is."""
        certified = [(k, lo) for k, lo in enumerate(self.lower_bounds) if lo is not None]
        return max((self.achieved[k].value - lo for k, lo in certified), default=None)


# ---------------------------------------------------------------------------
# the construction core
# ---------------------------------------------------------------------------


def _levels_to_build(chain: Chain, d: TargetSequence, N: int) -> int:
    """Zero-tail reduction: the largest Np <= N with d_Np > 0, by bisection
    on the positive prefix d_1..d_Np (a geometric tail underflows to 0).
    x is then built inside Y_{Np+1}, which the chain must provide."""
    Np, hi = 0, N + 1  # d_Np > 0 (or Np = 0), and d_hi = 0 (or hi = N + 1)
    while hi - Np > 1:
        mid = (Np + hi) // 2
        Np, hi = (mid, hi) if d.value(mid) > 0.0 else (Np, mid)
    if Np > len(chain.levels):
        raise ConstructionError(
            f"chain too short: construction needs level {Np + 1}, chain has {len(chain.levels)}"
        )
    if Np == len(chain.levels) and chain.levels and chain.levels[-1].rank >= chain.ambient_dim:
        raise ConstructionError("top chain level already fills the ambient space")
    return Np


def _measure(x, chain: Chain, k: int, solved: dict):
    """rho(x, Y_k) and its certified lower bound.  A level k not in solved
    holds x, which is built on the levels below it.  Level k in solved was
    solved at x_k, and x - x_k lies in Y_k, so its witness moves to w_k =
    witness + P(x - x_k) and its dual g_k holds: g_k(x - w_k) <= rho(x, Y_k)
    <= |x - w_k| (not g_k(x), which cancels)."""
    Y, norm = chain.level(k), chain.norm
    if k not in solved:
        return DistanceResult(0.0, Y.basis.T @ x, "contained"), 0.0
    xk, res = solved[k]
    c = res.witness_coeffs + Y.basis.T @ (x - xk)
    r = x - Y.basis @ c
    g, v = res.dual(Y, norm), res.dual_direction  # v: a copy per rung, as rungs share passes
    return replace(res, value=_norm(r, norm.p), witness_coeffs=c,
                   dual_direction=None if v is None else v.copy()), 0.0 if g is None else float(g @ r)


def _l2_measure(chain: Chain, X: np.ndarray, n: int):
    """(witness coefficients, residuals) of levels 1..n at p = 2, a row per
    row x of X, and rho, a column per level.  A frame chain takes one product
    C = X F: the residual off F's first j columns is x minus the partial sums
    of c_i f_i, i <= j.  Other chains take one projection per level."""
    if (F := chain._frame) is not None and n:
        ranks = [chain.level(k).rank for k in range(1, n + 1)]
        F = F[:, :ranks[-1]]
        C = X @ F
        R = np.cumsum(np.concatenate([X[:, None, :], -(C[:, :, None] * F.T)], axis=1), axis=1)
        return [(C[:, :r], R[:, r]) for r in ranks], _norms(R, 2.0)[:, ranks]
    pieces = [(C, X - C @ B.T) for B in (chain.level(k).basis for k in range(1, n + 1)) for C in [X @ B]]
    return pieces, _norms(np.reshape([R for _, R in pieces], (n, *X.shape)), 2.0).T


def _realize(chain: Chain, d: TargetSequence, rungs, opts: ConstructOptions | None,
             recentre: bool):
    """The rungs x_N, N in rungs (ascending), with rho(x_N, Y_k) = d_k for k
    <= n = min(N, Np): the traces, and (N, error) per rung that failed.  The
    core derives its steps q_1..q_Np for the last rung (_prefix_steps, with
    the entry checks and Np), and opts defaults to ConstructOptions().
    Rungs past Np share rung Np's pass, not its arrays.  Each distinct n
    runs one backward pass, x = d_n q_n, then k = n-1..1 adds the root
    lambda_k of rho(x + lambda q_k, Y_k) = d_k: at p = 2 in closed form
    (_l2_coefficients), all rungs gated from one measure (_l2_measure), a
    rung's records built on first read; else solved with certificates
    (_pass) that measure the final x into records (_measure) the gate reads.
    Schedule modes record lambda_k against d_k - d_{k+1}(1 - 2^-k).  Levels
    1..min(N, len(chain) + 1) are measured; the 10 tol gate checks both ends."""
    steps = _prefix_steps(chain, d, rungs[-1], recentre)
    opts, norm, Np, m = opts or ConstructOptions(), chain.norm, len(steps), chain.ambient_dim
    ds = [d.value(k) for k in range(1, min(rungs[-1], len(chain.levels) + 1) + 1)]
    ns = sorted({min(N, Np) for N in rungs})
    passes = {}  # n -> (x, lambdas, solved levels), or the error that stopped the pass
    if norm.p == 2.0:
        Q = np.reshape([q for q, _ in steps], (Np, m))
        for n, lam in zip(ns, _l2_coefficients([mu for _, mu in steps], ds[:Np], ns)):
            passes[n] = lam if isinstance(lam, Exception) else (np.asarray(lam) @ Q[:n], lam, None)
    else:
        for n in ns:
            try:
                passes[n] = _pass(chain, steps[:n], ds, recentre)
            except (ConstructionError, SolverError) as exc:
                passes[n] = exc
    built = [N for N in rungs if not isinstance(passes[min(N, Np)], Exception)]
    if norm.p == 2.0 and built:  # every rung measured at once, its |rho - d_k| a row
        X = np.reshape([passes[min(N, Np)][0] for N in built], (len(built), m))
        l2, V = _l2_measure(chain, X, min(built[-1], Np))
        gaps = np.abs(V - ds[:len(l2)]).tolist()
    traces, failures, i = [], [], -1
    caps = [ds[k - 1] - ds[k] * (1.0 - 2.0**-k) + opts.tol for k in range(1, Np)]
    for N in rungs:
        if isinstance(out := passes[n := min(N, Np)], Exception):
            failures.append((N, out))
            continue
        x, lambdas, solved = out
        i += 1  # the rung's row in X
        levels = range(1, min(N, len(chain.levels) + 1) + 1)
        if norm.p == 2.0:  # a row of gaps, no bracket; the levels past n hold x: rho 0, certified by 0
            x, residuals, lower_ends = X[i], tuple(gaps[i][:n]) + (0.0,) * len(levels[n:]), ()
            lower_bounds = (None,) * n + (0.0,) * len(levels[n:])
            achieved = lambda i=i, n=n, x=x, ks=levels[n:]: (*(  # noqa: E731
                DistanceResult(v, C[i], "closed_form_l2", R[i]) for (C, R), v in zip(l2[:n], V[i].tolist())
            ), *(_measure(x, chain, k, {})[0] for k in ks))
        else:
            x = x.copy()  # an array of its own per rung
            achieved, lower_bounds = zip(*[_measure(x, chain, k, solved) for k in levels])
            residuals = tuple(abs(r.value - dk) for r, dk in zip(achieved, ds))
            lower_ends = (abs(lo - dk) for lo, dk in zip(lower_bounds[:n], ds) if lo is not None)
        if (worst := max([*residuals[:n], *lower_ends], default=0.0)) > opts.tol * 10:
            failures.append((N, ConstructionError(
                f"tolerance not met: max residual {worst:.3e} > {opts.tol:.1e}")))
            continue
        bounds = (*caps[:n - 1], ds[n - 1] + opts.tol) if n and not recentre else ()
        traces.append(ConstructionTrace(x=x, coefficients=tuple(lambdas), targets=d, residuals=residuals,
                                        lower_bounds=lower_bounds, _records=achieved, _bounds=bounds))
    return traces, failures


def _rung(chain: Chain, d: TargetSequence, N: int, opts: ConstructOptions | None,
          recentre: bool) -> ConstructionTrace:
    """_realize's one rung x_N, or the rung's error raised."""
    traces, failures = _realize(chain, d, [N], opts, recentre)
    if failures:
        raise failures[0][1]
    return traces[0]


def _pass(chain: Chain, steps, ds, recentre: bool):
    """_realize's pass off p = 2 over n = len(steps) levels: x, lambda, and per
    level (x after its solve, rho there with its certificate; q_n's, scaled,
    at the top).  Each root is smallest_root's upper end.  With recentre x
    first moves to its residual off Y_{k+1}, and a last trim leaves |x| =
    d_1; there a tie d_k <= d_{k+1} takes the exact root 0 with no solve:
    rho(x, Y_k) <= |x| = g_{k+1}(x) for level k+1's projected dual, which
    vanishes on Y_k and so certifies rho(x, Y_k) = |x| at witness 0."""
    norm, n = chain.norm, len(steps)
    lambdas, x, solved = [0.0] * n, np.zeros(chain.ambient_dim), {}
    if n:  # rho(q_n, Y_n) = 1's certificate, scaled: its dual holds for d_n q_n too
        (q, cert), dn = steps[-1], ds[n - 1]
        lambdas[-1], x = dn, dn * q
        solved[n] = (x, replace(cert, value=dn * cert.value, witness_coeffs=dn * cert.witness_coeffs))
    for k in range(n - 1, 0, -1):
        Y, q = chain.level(k), steps[k - 1][0]
        if recentre:
            above = solved[k + 1][1]
            x = x - above.witness(chain.level(k + 1))
            if ds[k - 1] <= ds[k]:
                solved[k] = (x, replace(above, value=_norm(x, norm.p), witness_coeffs=np.zeros(Y.rank),
                                        dual_direction=above.dual(chain.level(k + 1), norm)))
                continue
        root = smallest_root(x, q, Y, norm, ds[k - 1])
        lambdas[k - 1], x = root.t, x + root.t * q
        solved[k] = (x, root.certificate)
    return (x - solved[1][1].witness(chain.level(1)) if recentre and n else x), lambdas, solved


def _l2_coefficients(mus, ds, ns):
    """lambda_1..lambda_n at p = 2 of each rung of n in ns levels over steps
    q_k = f_k + mu_k f_{k-1}, or the rung's error.  The unit steps f_0 out of
    {0} and f_k out of Y_k are orthonormal, so x = sum zeta_j f_j has rho(x,
    Y_k)^2 = sum_{j >= k} zeta_j^2 (Golub and Van Loan, Matrix Computations,
    5.2): with d_{k+1} met, level k's root, the upper end of its level set,
    makes zeta_k = lambda_k + z_k, z_k = lambda_{k+1} mu_{k+1}, the square
    root _l2_root(d_k, d_{k+1}) (finite steps have z = 0)."""
    roots = [_l2_root(a, b) for a, b in zip(ds, ds[1:])]  # None below the attainable minimum
    out = []
    for n in ns:
        lam = [0.0] * (n - 1) + ds[n - 1:n]  # lambda_n = d_n
        z = ds[n - 1] * mus[n - 1] if n else 0.0
        for k in range(n - 2, -1, -1):
            if roots[k] is None:
                lam = _below_minimum(ds[k])
                break
            lam[k] = roots[k] - z
            z = lam[k] * mus[k]
        out.append(lam)
    return out


def _l2_root(a: float, b: float) -> float | None:
    """zeta >= 0 with b^2 + zeta^2 = a^2, the p = 2 root of every level and
    family member: sqrt((a - b)(a + b)) in units of a's power of two.  A b
    above a by at most rho's accuracy, _L2_TOL (1 + a) in those units, gives
    the tangent point 0; by more, None (an empty level set)."""
    f = math.frexp(a)[1]
    a, b = math.ldexp(a, -f), math.ldexp(b, -f)
    if a >= b:
        return math.ldexp(math.sqrt((a - b) * (a + b)), f)
    return 0.0 if b - a <= _L2_TOL * (1.0 + a) else None


# ---------------------------------------------------------------------------
# finite construction
# ---------------------------------------------------------------------------


def finite_construct(
    chain: Chain,
    d: TargetSequence,
    opts: ConstructOptions | None = None,
) -> ConstructionTrace:
    """Element x with rho(x, Y_k) = d_k for all stored k (zero-tail targets).

    Backward intermediate-value construction over the unit steps of
    normalize_step, recentring at every level (see _realize).
    """
    if d.tail != "zero":
        raise TargetError("finite_construct needs a zero-tail target sequence")
    return _rung(chain, d, len(d), opts, recentre=True)


# ---------------------------------------------------------------------------
# prefix construction and stabilization
# ---------------------------------------------------------------------------


def _prefix_steps(chain: Chain, d: TargetSequence, N: int, recentre: bool):
    """Every mode's steps q_j, rho(q_j, Y_j) = 1, j = 1..Np, after its entry
    checks (nesting; Np of N, see _levels_to_build): with recentre (finite
    mode), and out of a rank-0 Y_j, the plain unit step, mu_j = 0; else
    |q_j| = u_Np^(j) = 1 + w_j, w_j = tau_Np / (2^j d_j), schedule column Np.
    q_j = y_j + mu_j s: y_j, the unit step out of Y_j (_unit_step), keeps
    its distance, at witness mu_j s; s, the previous y normalized (a unit
    vector of Y_1 at the first level), pre-loads the distance one level
    down, and mu_j is the root mu >= 0 of |y_j + mu s| = 1 + w_j: at p = 2,
    y_j being orthogonal to s, mu_j = sqrt(w_j (2 + w_j)) (no cancellation
    for small w_j), and a step is (q_j, mu_j); otherwise one level-set solve,
    and a step is (q_j, certificate of rho(q_j, Y_j) = 1)."""
    _nested(chain)
    ds = [d.value(j) for j in range(1, _levels_to_build(chain, d, N) + 1)]
    tau = min((a - b for a, b in zip(ds, ds[1:])), default=ds[0] if ds else 0.0)
    zero, norm = Subspace.zero(chain.ambient_dim), chain.norm
    steps, s = [], None
    for j, dj in enumerate(ds, start=1):
        Yj = chain.level(j)
        y, cert = _unit_step(Yj, chain.level(j + 1), norm, chain._extends_at(j))
        w, mu, q = tau / (2.0**j * dj), 0.0, y
        if Yj.rank and not recentre:
            if s is None:
                s = _unit_step(zero, Yj, norm, True)[0]  # {0}'s empty basis begins every one
            if norm.p == 2.0:
                mu = math.sqrt(w * (2.0 + w))
            else:
                mu = smallest_root(y, s, zero, norm, 1.0 + w).t
                cert = replace(cert, witness_coeffs=cert.witness_coeffs + mu * (Yj.basis.T @ s))
            q = y + mu * s
        steps.append((q, mu if norm.p == 2.0 else cert))
        s = y / _norm(y, norm.p)
    return steps


def construct_prefix(
    chain: Chain,
    d: TargetSequence,
    N: int,
    opts: ConstructOptions | None = None,
) -> ConstructionTrace:
    """Prefix element x_N with rho(x_N, Y_k) = d_k for k = 1..N.

    Uses schedule-derived step families and records every coefficient with
    its theoretical bound d_k - d_{k+1}(1 - 2^-k); bound violations are
    recorded, not raised.  The result is the last rung of
    construct_sequence(chain, d, N).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return _rung(chain, d, N, opts, recentre=False)


@dataclass(frozen=True)
class StabilizationTable:
    """Pairwise |x_N - x_M| for successful prefixes, plus the tail diagnostic."""

    prefixes: tuple[int, ...]
    differences: np.ndarray  # square matrix aligned with prefixes
    max_tail: tuple[float, ...]  # max over M > N of |x_N - x_M|
    tail_non_increasing: bool
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def construct_sequence(
    chain: Chain,
    d: TargetSequence,
    N_max: int,
    opts: ConstructOptions | None = None,
) -> tuple[list[ConstructionTrace], StabilizationTable]:
    """Prefixes x_1..x_{N_max} over shared step families with a difference table.

    Every rung reuses the steps of the longest prefix; the last rung is
    construct_prefix(chain, d, N_max).  A rung that fails is listed in
    failures instead of raising.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    traces, failed = _realize(chain, d, range(1, N_max + 1), opts, recentre=False)
    failures = tuple((N, str(exc)) for N, exc in failed)
    kept = sorted(set(range(1, N_max + 1)).difference(dict(failures)))
    # the table over distinct passes (n = len(coefficients)), spread to the rungs past Np
    n, h = len(traces), len({len(t.coefficients) for t in traces})
    X = np.reshape([t.x for t in traces[:h]], (h, chain.ambient_dim))
    rows = np.minimum(np.arange(n), h - 1)
    i, j = np.triu_indices(h, 1)
    D = np.zeros((h, h))
    D[i, j] = D[j, i] = _norms(X[i] - X[j], chain.norm.p)  # |x_N - x_M| = |x_M - x_N|, bit for bit
    diffs = D[np.ix_(rows, rows)]
    max_tail = tuple(np.triu(diffs, 1).max(axis=1, initial=0.0).tolist())
    body = max_tail[:-1] if n else ()
    slack = 1e-12 * max(body, default=0.0)  # relative, as the tail scales with d
    non_inc = all(a >= b - slack for a, b in zip(body, body[1:]))
    return traces, StabilizationTable(prefixes=tuple(kept), differences=diffs, max_tail=max_tail,
                                      tail_non_increasing=non_inc, failures=failures)
