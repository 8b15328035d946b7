"""Constructive realization of prescribed best-approximation distances.

Given a strictly nested chain Y_1 c Y_2 c ... and non-increasing targets
d_1 >= d_2 >= ... >= 0, the routines here build an element x with
rho(x, Y_k) = d_k:

  * finite_construct      finitely many targets (zero tail), over unit steps;
  * build_schedule        the tau / u / v tables driving the prefix builder;
  * interpolating_family  elements q with rho(q, Q1) = u_m, rho(q, Q2) = v_m
                          for prescribed u_m >= v_m;
  * construct_prefix      schedule-driven prefix construction recording the
                          per-level coefficients and their bounds;
  * construct_sequence    a ladder of prefixes with pairwise-difference
                          stabilization diagnostics;

plus the tail-domination (Borodin) condition checker and a sampled checker
for the subspace-side condition.  All three modes share one core, _realize:
zero-tail reduction, a backward pass with one exact, certified root per
level, the measure of every level at the final x and the residual gate.
They differ only in their step vectors and in whether the pass recentres,
so a prefix is the last rung of its ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distance import DistanceResult, Endpoint, SolverError, best_approximant, level_endpoint, rho
from .functionals import norming_functional  # noqa: F401  (bench/tracing.py patches this binding)
from .spaces import Chain, NormSpec, Subspace, as_vector, contains, norm_eval


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
            if b > a + 1e-15:
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
        stored = math.fsum(self.values[n:]) if n < len(self.values) else 0.0
        if self.tail == "zero":
            return stored
        geo = self.values[-1] * self.ratio / (1.0 - self.ratio)
        if n >= len(self.values):
            # sum_{k>n} d_N r^{k-N} for n >= N
            return self.value(n) * self.ratio / (1.0 - self.ratio)
        return stored + geo

    def last_nonzero(self) -> int:
        """Largest stored index with d_n > 0 (0 when all targets vanish)."""
        for n in range(len(self.values), 0, -1):
            if self.values[n - 1] > 0:
                return n
        return 0

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
    tail_factor = None
    tail_ok = True
    if d.tail == "geometric":
        tail_factor = (1.0 - 2.0 * d.ratio) / (1.0 - d.ratio)
        tail_ok = tail_factor > 0.0
    # smallest n0 with margin > 0 at every later positive target
    last_bad = 0
    for n in range(1, len(d) + 1):
        if d.value(n) > 0 and margins[n - 1] <= 0.0:
            last_bad = n
    if not tail_ok:
        return BorodinReport(passes=False, n0=None, margins=margins, tail_margin_factor=tail_factor)
    n0 = last_bad + 1
    if d.tail == "zero" and n0 > d.last_nonzero():
        # no positive targets remain past n0: vacuously satisfied
        return BorodinReport(passes=True, n0=n0, margins=margins, tail_margin_factor=None)
    return BorodinReport(passes=True, n0=n0, margins=margins, tail_margin_factor=tail_factor)


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
    tol: float = 1e-9,
) -> SubspaceConditionReport:
    if k < 2:
        raise ValueError("the subspace condition needs k >= 2 (d_{k-1} must exist)")
    dk = d.value(k)
    if dk <= 0:
        raise TargetError("d_k = 0 makes the ratio d_{k-1}/d_k undefined")
    ratio = d.value(k - 1) / dk
    Yk = chain.level(k)
    samples = []
    bad = False
    for q in q_samples:
        q = as_vector(q, dim=chain.ambient_dim)
        nq = norm_eval(q, chain.norm)
        rq = rho(q, Yk, chain.norm).value
        bound = ratio * rq
        holds = nq <= bound + tol
        bad = bad or not holds
        samples.append(SubspaceSample(norm_q=nq, rho_q=rq, bound=bound, holds=holds))
    return SubspaceConditionReport(
        level=k, ratio=ratio, samples=tuple(samples), counterexample_found=bad
    )


# ---------------------------------------------------------------------------
# step vectors and root finding
# ---------------------------------------------------------------------------


def normalize_step(chain: Chain, n: int) -> np.ndarray:
    """A unit vector y in Y_{n+1} \\ Y_n with rho(y, Y_n) = |y| = 1.

    Built by subtracting a best approximant: pick a basis direction of
    Y_{n+1} outside Y_n, remove its nearest point of Y_n, normalize.
    """
    Yn = chain.level(n)
    Ynext = chain.level(n + 1)
    if Ynext.rank <= Yn.rank:
        raise ConstructionError(f"no direction available above level {n}")
    resid = Ynext.basis - (Yn.basis @ (Yn.basis.T @ Ynext.basis) if Yn.rank else 0.0)
    col = int(np.argmax(np.linalg.norm(np.atleast_2d(resid), axis=0)))
    z = Ynext.basis[:, col]
    v = best_approximant(z, Yn, chain.norm)
    y = z - v
    ny = norm_eval(y, chain.norm)
    if ny <= 1e-12:
        raise ConstructionError(f"degenerate step at level {n}: residual norm {ny:.3e}")
    y = y / ny
    # deterministic orientation
    i = int(np.argmax(np.abs(y)))
    return y if y[i] >= 0 else -y


def smallest_root(
    x, q, Y: Subspace, norm: NormSpec, target: float, two_sided: bool = True
) -> Endpoint:
    """Root t of rho(x + t q, Y) = target nearest to 0, with its certificate.

    The level set {t : rho(x + t q, Y) <= target} is an interval [a, b]
    (convexity).  When it misses 0 the nearer end is returned; when it holds
    0 the answer is b one-sided, else the end of smaller magnitude (b on
    ties).  The certificate is level_endpoint's, at x + t q.  Raises when the
    set is empty.
    """
    b = level_endpoint(x, q, Y, norm, target, upper=True)
    if b is None:
        raise ConstructionError(
            f"target {target:.9g} below attainable minimum of rho(x + t q, Y)"
        )
    if b.t < 0.0:
        return b
    a = level_endpoint(x, q, Y, norm, target, upper=False)
    if a is None:  # tangent within tolerance on one side only: a single point
        a = b
    if a.t > 0.0:
        return a
    return b if not two_sided or b.t <= -a.t else a


# ---------------------------------------------------------------------------
# interpolating families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    q: np.ndarray
    mu: float  # coordinate along the within-Q2 search direction (0 when u == v)


@dataclass(frozen=True)
class InterpolationFamily:
    z: np.ndarray
    members: tuple[FamilyMember, ...]
    u_targets: tuple[float, ...]
    v_targets: tuple[float, ...]
    step_outer: np.ndarray  # unit step out of Q2 (distance 1 to Q2 and Q1)
    step_inner: np.ndarray  # unit direction of Q2 outside Q1


@dataclass(frozen=True)
class LipschitzReport:
    passes: bool
    worst_slack: float
    pair_count: int


def interpolating_family(
    Q1: Subspace,
    Q2: Subspace,
    Q3: Subspace,
    norm: NormSpec,
    u,
    v,
    within_direction=None,
) -> InterpolationFamily:
    """Members q_m with rho(q_m, Q1) = u_m and rho(q_m, Q2) = v_m.

    Each member is v_m * y + lambda_m * s where y is a unit step out of Q2
    (so the Q2 distance is exactly v_m) and s is a unit direction of Q2
    outside Q1; lambda_m is the smallest root of the convex coercive map
    lambda -> rho(v_m y + lambda s, Q1) = u_m, from one level-set solve.
    """
    u = [float(t) for t in u]
    v = [float(t) for t in v]
    if len(u) != len(v) or not u:
        raise ValueError("u and v must be non-empty and of equal length")
    for um, vm in zip(u, v):
        if not (um >= vm >= 0.0):
            raise ValueError(f"targets must satisfy u_m >= v_m >= 0, got ({um}, {vm})")
    if not (Q1.rank < Q2.rank < Q3.rank):
        raise ValueError("need strictly nested Q1 c Q2 c Q3")
    for small, big in ((Q1, Q2), (Q2, Q3)):
        if small.rank and not all(contains(big, small.basis[:, j]) for j in range(small.rank)):
            raise ValueError("nesting hypothesis violated")

    chain23 = Chain(ambient_dim=Q3.ambient_dim, norm=norm, levels=(Q2, Q3))
    y = normalize_step(chain23, 1)
    if within_direction is not None:
        s = as_vector(within_direction, dim=Q3.ambient_dim)
        if not contains(Q2, s, 1e-8) or contains(Q1, s, 1e-8):
            raise ValueError("within_direction must lie in Q2 outside Q1")
        s = s / norm_eval(s, norm)
    else:
        chain12 = Chain(ambient_dim=Q3.ambient_dim, norm=norm, levels=(Q1, Q2))
        s = normalize_step(chain12, 1)

    z = y + s
    members = []
    for um, vm in zip(u, v):
        lam = smallest_root(vm * y, s, Q1, norm, um, two_sided=False).t
        members.append(FamilyMember(q=vm * y + lam * s, mu=lam))
    return InterpolationFamily(
        z=z,
        members=tuple(members),
        u_targets=tuple(u),
        v_targets=tuple(v),
        step_outer=y,
        step_inner=s,
    )


def lipschitz_check(family: InterpolationFamily, norm: NormSpec, tol: float = 1e-9) -> LipschitzReport:
    """Verify |q_m - q_n| <= (|z| + 2)(max{u_m, u_n} - min{v_m, v_n}) pairwise."""
    members = family.members
    if len(members) < 2:
        return LipschitzReport(passes=True, worst_slack=math.inf, pair_count=0)
    factor = norm_eval(family.z, norm) + 2.0
    worst = math.inf
    count = 0
    for m in range(len(members)):
        for n in range(m + 1, len(members)):
            lhs = norm_eval(members[m].q - members[n].q, norm)
            rhs = factor * (
                max(family.u_targets[m], family.u_targets[n])
                - min(family.v_targets[m], family.v_targets[n])
            )
            worst = min(worst, rhs - lhs)
            count += 1
    return LipschitzReport(passes=worst >= -tol, worst_slack=worst, pair_count=count)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorodinSchedule:
    """tau_j together with the u/v tables, indexed u[j-1, n-1] for j <= n."""

    tau: np.ndarray
    u: np.ndarray
    v: np.ndarray


def build_schedule(d: TargetSequence, N: int) -> BorodinSchedule:
    """tau_1 = d_1, tau_j = min of the consecutive gaps d_{k-1} - d_k up to j;
    u_n^(j) = 1 + tau_n / (2^j d_j), v_n^(j) = 1."""
    vals = [d.value(j) for j in range(1, N + 1)]
    if any(x <= 0 for x in vals):
        raise TargetError("build_schedule needs d_j > 0 for every j <= N")
    tau = np.empty(N)
    tau[0] = vals[0]
    gap_min = math.inf
    for j in range(2, N + 1):
        gap_min = min(gap_min, vals[j - 2] - vals[j - 1])
        tau[j - 1] = gap_min
    u = np.full((N, N), np.nan)
    v = np.full((N, N), np.nan)
    for j in range(1, N + 1):
        for n in range(j, N + 1):
            u[j - 1, n - 1] = 1.0 + tau[n - 1] / (2.0**j * vals[j - 1])
            v[j - 1, n - 1] = 1.0
    return BorodinSchedule(tau=tau, u=u, v=v)


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
    x: np.ndarray
    step_vectors: tuple[np.ndarray, ...]
    coefficients: tuple[float, ...]
    achieved: tuple[DistanceResult, ...]
    targets: TargetSequence
    residuals: tuple[float, ...]
    coefficient_bounds: tuple[CoefficientBound, ...] = field(default_factory=tuple)
    # certified lower bound on rho(x, Y_k) per level (achieved holds the
    # upper one); None where the level was re-measured by rho
    lower_bounds: tuple[float | None, ...] = field(default_factory=tuple)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def certificate_gap(self) -> float | None:
        """Worst upper - lower over the certified levels; None when none is."""
        gaps = [r.value - lo for r, lo in zip(self.achieved, self.lower_bounds) if lo is not None]
        return max(gaps) if gaps else None


# ---------------------------------------------------------------------------
# the construction core
# ---------------------------------------------------------------------------


def _levels_to_build(chain: Chain, d: TargetSequence, N: int) -> int:
    """Zero-tail reduction: the largest Np <= N with d_Np > 0.

    x is then built inside Y_{Np+1}, which the chain must provide.
    """
    Np = N
    while Np > 0 and d.value(Np) <= 0.0:
        Np -= 1
    if Np > len(chain.levels):
        raise ConstructionError(
            f"chain too short: construction needs level {Np + 1}, chain has {len(chain.levels)}"
        )
    if Np == len(chain.levels) and chain.levels and chain.levels[-1].rank >= chain.ambient_dim:
        raise ConstructionError("top chain level already fills the ambient space")
    return Np


def _coefficient_bounds(d: TargetSequence, lambdas, Np: int, tol: float):
    out = []
    for k in range(1, Np + 1):
        if k == Np:
            bound = d.value(k) + tol
        else:
            bound = d.value(k) - d.value(k + 1) * (1.0 - 2.0**-k) + tol
        out.append(CoefficientBound(level=k, value=lambdas[k - 1], bound=bound,
                                    ok=abs(lambdas[k - 1]) <= bound))
    return tuple(out)


def _nearest(x, chain: Chain, k: int, solved: dict) -> np.ndarray:
    """Best approximant of x in Y_k: the witness of level k's solve when
    there is one (x has not moved since it), else a fresh solve."""
    if k in solved:
        return solved[k][1].witness(chain.level(k))
    return best_approximant(x, chain.level(k), chain.norm)


def _measure(x, chain: Chain, k: int, Np: int, solved: dict):
    """rho(x, Y_k) with a certified lower bound (None when re-measured).

    Level k's solve was made at x_k, and x - x_k lies in Y_k, so its
    witness moves to w_k = witness + P(x - x_k) and its dual g_k still holds:
    g_k(x - w_k) <= rho(x, Y_k) <= |x - w_k|.  The lower end is evaluated on
    x - w_k, never as g_k(x), which cancels when rho is small against |x|.
    """
    Y, norm = chain.level(k), chain.norm
    if k > Np:  # x lies in Y_{Np+1}, inside Y_k
        return DistanceResult(0.0, Y.basis.T @ x, 0.0, "contained"), 0.0
    if k not in solved:
        return rho(x, Y, norm), None
    xk, res = solved[k]
    c = res.witness_coeffs + Y.basis.T @ (x - xk)
    r = x - Y.basis @ c
    g = res.dual(Y, norm)
    lower = 0.0 if g is None else float(g @ r)
    return replace(res, value=norm_eval(r, norm), witness_coeffs=c), lower


def _realize(chain: Chain, d: TargetSequence, N: int, steps, opts: ConstructOptions,
             recentre: bool) -> ConstructionTrace:
    """x = sum lambda_k q_k with rho(x, Y_k) = d_k for k <= Np = len(steps).

    Backward pass: x = d_Np q_Np, then for k = Np-1..1 add the root lambda_k
    of rho(x + lambda q_k, Y_k) = d_k.  With recentre (finite mode) x is
    first moved to its best-approximant residual in Y_{k+1}, which keeps the
    distances already achieved, the root is taken one-sided, and a last trim
    in Y_1 leaves |x| = d_1.  Without it (schedule modes) the root is
    two-sided and each coefficient is recorded against its bound
    d_k - d_{k+1}(1 - 2^-k).

    Each root comes with the certificate of its solve, and the top level has
    one rho call before the pass.  Every later change to x lies in Y_k, so
    level k's certificate serves the recentre in Y_k, the trim in Y_1 and the
    measure of level k at the final x (see _measure), with no further solve.
    At p = 2 the certificates go unused: the closed-form rho recentres and
    re-measures at no solve.  Levels 1..min(N, len(chain) + 1) are measured,
    and the 10 tol gate checks both ends of every certified bracket.
    """
    norm = chain.norm
    certify = norm.p != 2.0
    Np = len(steps)
    lambdas = [0.0] * Np
    x = np.zeros(chain.ambient_dim)
    solved = {}  # level -> (x after its solve, rho there with its certificate)
    if Np:
        lambdas[-1] = d.value(Np)
        x = d.value(Np) * steps[-1]
        if certify:
            solved[Np] = (x, rho(x, chain.level(Np), norm))
    for k in range(Np - 1, 0, -1):
        if recentre:
            x = x - _nearest(x, chain, k + 1, solved)
        root = smallest_root(x, steps[k - 1], chain.level(k), norm, d.value(k),
                             two_sided=not recentre)
        lambdas[k - 1] = root.t
        x = x + root.t * steps[k - 1]
        if certify:  # every end off p = 2 carries one
            solved[k] = (x, root.certificate)
    if recentre and Np:
        x = x - _nearest(x, chain, 1, solved)
    top = min(N, len(chain.levels) + 1)
    achieved, lower_bounds = zip(*(_measure(x, chain, k, Np, solved) for k in range(1, top + 1)))
    residuals = tuple(abs(r.value - d.value(k)) for k, r in enumerate(achieved, start=1))
    lower_ends = (abs(lo - d.value(k)) for k, lo in enumerate(lower_bounds[:Np], start=1)
                  if lo is not None)
    worst = max([*residuals[:Np], *lower_ends], default=0.0)
    if worst > opts.tol * 10:
        raise ConstructionError(f"tolerance not met: max residual {worst:.3e} > {opts.tol:.1e}")
    return ConstructionTrace(
        x=x,
        step_vectors=tuple(steps),
        coefficients=tuple(lambdas),
        achieved=achieved,
        targets=d,
        residuals=residuals,
        coefficient_bounds=() if recentre else _coefficient_bounds(d, lambdas, Np, opts.tol),
        lower_bounds=lower_bounds,
    )


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
    Np = _levels_to_build(chain, d, len(d))
    steps = [normalize_step(chain, k) for k in range(1, Np + 1)]
    return _realize(chain, d, len(d), steps, opts or ConstructOptions(), recentre=True)


# ---------------------------------------------------------------------------
# prefix construction and stabilization
# ---------------------------------------------------------------------------


def _prefix_steps(chain: Chain, d: TargetSequence, Np: int):
    """Step families q_j with rho(q_j, Y_j) = 1 and |q_j| = u_Np^(j), j = 1..Np.

    The within-Y_j search direction is chained to the previous level's step,
    so each q_j pre-loads the distance one level down.  A rank-0 Y_j (the
    chain starting at {0}) degenerates to a plain unit step.
    """
    if Np == 0:
        return []
    schedule = build_schedule(d, Np)
    zero = Subspace.zero(chain.ambient_dim)
    steps = []
    prev_y = None
    for j in range(1, Np + 1):
        Yj = chain.level(j)
        Yj1 = chain.level(j + 1)
        if Yj.rank == 0:
            chainj = Chain(ambient_dim=chain.ambient_dim, norm=chain.norm, levels=(Yj, Yj1))
            prev_y = normalize_step(chainj, 1)
            steps.append(prev_y)
        else:
            fam = interpolating_family(
                zero, Yj, Yj1, chain.norm,
                u=[float(schedule.u[j - 1, Np - 1])], v=[1.0], within_direction=prev_y,
            )
            steps.append(fam.members[0].q)
            prev_y = fam.step_outer
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
    steps = _prefix_steps(chain, d, _levels_to_build(chain, d, N))
    return _realize(chain, d, N, steps, opts or ConstructOptions(), recentre=False)


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
    opts = opts or ConstructOptions()
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    Np_max = _levels_to_build(chain, d, N_max)
    steps = _prefix_steps(chain, d, Np_max)
    traces: list[ConstructionTrace] = []
    kept = []
    failures = []
    for N in range(1, N_max + 1):
        try:
            traces.append(_realize(chain, d, N, steps[:min(N, Np_max)], opts, recentre=False))
            kept.append(N)
        except (ConstructionError, SolverError) as exc:
            failures.append((N, str(exc)))
    n = len(traces)
    diffs = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            diffs[i, j] = diffs[j, i] = norm_eval(traces[i].x - traces[j].x, chain.norm)
    max_tail = tuple(
        float(np.max(diffs[i, i + 1 :])) if i + 1 < n else 0.0 for i in range(n)
    )
    body = max_tail[:-1] if n else ()
    non_inc = all(a >= b - 1e-12 for a, b in zip(body, body[1:]))
    return traces, StabilizationTable(
        prefixes=tuple(kept),
        differences=diffs,
        max_tail=max_tail,
        tail_non_increasing=non_inc,
        failures=tuple(failures),
    )
