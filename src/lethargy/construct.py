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
for the subspace-side condition.  The three modes share one step builder,
_prefix_steps (entry checks, zero-tail reduction), and one core, _realize
(a backward pass with one exact root per level, the measure of every level
at the final x, the residual gate); they differ only in whether the pass
recentres, over plain unit steps, so a prefix is the last rung of its
ladder.  Every step follows one rule (_unit_step): the next basis column
where the level above extends the level's basis (the step itself at p = 2),
else the column farthest from the level, solved.  At p = 2 the pass runs on
x's coordinates in the steps' orthonormal frame, and the measure alone
reads a flag frame F (Chain._frame), from one product F^T x.  Off p = 2
each root carries a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distance import DistanceResult, Endpoint, SolverError, _quadratic_ends, _rho, level_endpoint, rho
from .functionals import norming_functional  # noqa: F401  (bench/tracing.py patches this binding)
from .spaces import Chain, NormSpec, Subspace, _extends, _norm, as_vector, norm_eval, validate_chain


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
        stored = math.fsum(self.values[n:]) if n < len(self.values) else 0.0
        if self.tail == "zero":
            return stored
        geo = self.values[-1] * self.ratio / (1.0 - self.ratio)
        if n >= len(self.values):
            # sum_{k>n} d_N r^{k-N} for n >= N
            return self.value(n) * self.ratio / (1.0 - self.ratio)
        return stored + geo

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
    if d.tail == "geometric":
        tail_factor = (1.0 - 2.0 * d.ratio) / (1.0 - d.ratio)
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
    bad = False
    for q in q_samples:
        q = as_vector(q, dim=chain.ambient_dim)
        nq = norm_eval(q, chain.norm)
        rq = rho(q, Yk, chain.norm).value
        bound = ratio * rq
        holds = nq - bound <= 1e-9 * nq  # relative: the condition scales with q
        bad = bad or not holds
        samples.append(SubspaceSample(norm_q=nq, rho_q=rq, bound=bound, holds=holds))
    return SubspaceConditionReport(
        level=k, ratio=ratio, samples=tuple(samples), counterexample_found=bad
    )


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
    return _unit_step(Yn, Ynext, chain.norm)[0]


def _unit_step(Yn: Subspace, Ynext: Subspace, norm: NormSpec
               ) -> tuple[np.ndarray, DistanceResult | None]:
    """normalize_step's y for Yn of lower rank than Ynext, with the certificate
    of rho(y, Yn) = 1.  The one step rule: where Ynext's basis extends Yn's
    (spaces._extends; so out of {0}) y is its column rank(Yn) + 1 at p = 2,
    with no certificate (p = 2 uses none); otherwise that column, or else
    Ynext's column farthest from Yn, minus its best approximant in Yn,
    normalized and oriented, with that solve's certificate, witness 0."""
    if _extends(Yn, Ynext):
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


def _scaled(cert: DistanceResult, a: float, shift=0.0) -> DistanceResult:
    """Certificate of rho(a y + w, Y) = a rho(y, Y) for a >= 0 and w in Y with
    coordinates shift, from that of rho(y, Y): the witness scales and
    shifts, and the dual still holds."""
    return replace(cert, value=a * cert.value, witness_coeffs=a * cert.witness_coeffs + shift)


def smallest_root(
    x: np.ndarray, q: np.ndarray, Y: Subspace, norm: NormSpec, target: float, two_sided: bool = True
) -> Endpoint:
    """Root t of rho(x + t q, Y) = target nearest to 0, with its certificate.

    The level set {t : rho(x + t q, Y) <= target} is an interval [a, b]
    (convexity).  When it misses 0 the nearer end is returned; when it holds
    0 the answer is b one-sided, else the end of smaller magnitude (b on
    ties).  One-sided with |x| < target, 0 lies inside the set, since
    rho(x, Y) <= |x|, so b is returned without solving for a.  Each end is
    a level_endpoint solve, the lower end as minus the upper end for -q, and
    its certificate at x + t q comes along (none at p = 2).  Raises when the
    set is empty.
    """
    b = level_endpoint(x, q, Y, norm, target)
    if b is None:
        raise _below_minimum(target)
    if b.t < 0.0 or (not two_sided and _norm(x, norm.p) < target):
        return b
    a = level_endpoint(x, -q, Y, norm, target)
    # None: tangent within tolerance on one side only, a single point;
    # otherwise the upper end for -q, negated
    a = b if a is None else Endpoint(-a.t, a.certificate)
    return b if _takes_upper(a.t, b.t, two_sided, a.t + b.t) else a


def _takes_upper(a: float, b: float, two_sided: bool, centre: float) -> bool:
    """Whether b is the root nearest 0 of a level set [a, b], centre a number
    of the sign of a + b: the nearer end when the set misses 0; when it holds
    0, b one-sided, else the end of smaller magnitude, b on ties."""
    return b < 0.0 or (a <= 0.0 and (not two_sided or centre <= 0.0))


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
    _nested(Chain(ambient_dim=Q3.ambient_dim, norm=norm, levels=(Q1, Q2, Q3)))
    y = _unit_step(Q2, Q3, norm)[0]
    s = _unit_step(Q1, Q2, norm)[0]
    members = []
    for um, vm in zip(u, v):
        lam = smallest_root(vm * y, s, Q1, norm, um, two_sided=False).t
        members.append(FamilyMember(q=vm * y + lam * s, mu=lam))
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
    x: np.ndarray
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


def _coefficient_bounds(ds, lambdas, Np: int, tol: float):
    """lambda_k against d_k - d_{k+1}(1 - 2^-k), lambda_Np against d_Np; ds = [d_1, d_2, ...]."""
    out = []
    for k in range(1, Np + 1):
        if k == Np:
            bound = ds[k - 1] + tol
        else:
            bound = ds[k - 1] - ds[k] * (1.0 - 2.0**-k) + tol
        out.append(CoefficientBound(level=k, value=lambdas[k - 1], bound=bound,
                                    ok=abs(lambdas[k - 1]) <= bound))
    return tuple(out)


def _measure(x, chain: Chain, k: int, Np: int, solved: dict, frame):
    """rho(x, Y_k) with a certified lower bound (None when re-measured).

    Level k's solve was made at x_k, and x - x_k lies in Y_k, so its
    witness moves to w_k = witness + P(x - x_k) and its dual g_k still holds:
    g_k(x - w_k) <= rho(x, Y_k) <= |x - w_k|.  The lower end is evaluated on
    x - w_k, never as g_k(x), which cancels when rho is small against |x|.
    Unsolved levels are re-measured by rho, or from frame = (c, R), c = F^T x
    and R[:, j] = x - F[:, :j+1] c[:j+1] (see _realize).
    """
    Y, norm = chain.level(k), chain.norm
    if k > Np:  # x lies in Y_{Np+1}, inside Y_k
        return DistanceResult(0.0, Y.basis.T @ x, "contained"), 0.0
    if k not in solved:
        if frame is None:
            return _rho(x, Y, norm), None
        c, R = frame
        r = R[:, Y.rank - 1] if Y.rank else x
        return DistanceResult(_norm(r, 2.0), c[:Y.rank], "closed_form_l2", r), None
    xk, res = solved[k]
    c = res.witness_coeffs + Y.basis.T @ (x - xk)
    r = x - Y.basis @ c
    g = res.dual(Y, norm)
    lower = 0.0 if g is None else float(g @ r)
    return replace(res, value=_norm(r, norm.p), witness_coeffs=c), lower


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

    At p = 2 steps holds (q_k, mu_k) pairs, and _flag_pass runs the pass on
    scalars.  Otherwise it holds (q_k, certificate of rho(q_k, Y_k) = 1)
    pairs, each root comes with the certificate of its solve, and the top
    level takes q_Np's, scaled by d_Np.  Every later change to x lies in
    Y_k, so level k's certificate serves the recentre in Y_k, the trim in Y_1
    and the measure of level k at the final x (see _measure), with no
    further solve.  p = 2 measures at the final x itself: on a frame chain
    from one product c = F^T x, level k's residual being column r_k of
    x - cumsum(F c), otherwise by projection on the chain's own Y_k.  Levels
    1..min(N, len(chain) + 1) are measured, and the 10 tol gate checks both
    ends of every certified bracket.
    """
    norm = chain.norm
    Np = len(steps)
    top = min(N, len(chain.levels) + 1)
    ds = [d.value(k) for k in range(1, top + 1)]  # d_1..d_top, Np <= top
    solved = {}  # level -> (x after its solve, rho there with its certificate)
    if norm.p == 2.0:
        x, lambdas = _flag_pass(chain, steps, ds, recentre)
    else:
        qs = [q for q, _ in steps]
        lambdas = [0.0] * Np
        x = np.zeros(chain.ambient_dim)
        if Np:
            lambdas[-1] = ds[Np - 1]
            x = ds[Np - 1] * qs[-1]
            solved[Np] = (x, _scaled(steps[-1][1], ds[Np - 1]))
        for k in range(Np - 1, 0, -1):
            if recentre:
                x = x - solved[k + 1][1].witness(chain.level(k + 1))
            root = smallest_root(x, qs[k - 1], chain.level(k), norm, ds[k - 1],
                                 two_sided=not recentre)
            lambdas[k - 1] = root.t
            x = x + root.t * qs[k - 1]
            solved[k] = (x, root.certificate)
        if recentre and Np:
            x = x - solved[1][1].witness(chain.level(1))
    F, frame = (chain._frame if norm.p == 2.0 else None), None
    if F is not None:  # every level from one product
        c = F.T @ x
        frame = c, x[:, None] - np.cumsum(F * c, axis=1)
    achieved, lower_bounds = zip(*(_measure(x, chain, k, Np, solved, frame)
                                   for k in range(1, top + 1)))
    residuals = tuple(abs(r.value - dk) for r, dk in zip(achieved, ds))
    lower_ends = (abs(lo - dk) for lo, dk in zip(lower_bounds[:Np], ds) if lo is not None)
    worst = max([*residuals[:Np], *lower_ends], default=0.0)
    if worst > opts.tol * 10:
        raise ConstructionError(f"tolerance not met: max residual {worst:.3e} > {opts.tol:.1e}")
    return ConstructionTrace(
        x=x,
        coefficients=tuple(lambdas),
        achieved=achieved,
        targets=d,
        residuals=residuals,
        coefficient_bounds=() if recentre else _coefficient_bounds(ds, lambdas, Np, opts.tol),
        lower_bounds=lower_bounds,
    )


def _flag_pass(chain: Chain, steps, ds, recentre: bool):
    """_realize's pass at p = 2, on scalars with no projection: x, lambda.

    Each q_k = f_k + mu_k f_{k-1}, f_k = _unit_step(Y_k, Y_{k+1}) and f_0 =
    _unit_step({0}, Y_1) (the next basis columns where bases extend; only the
    measure reads Chain._frame), an orthonormal frame, so x = sum zeta_j f_j
    has rho(x, Y_k)^2 = sum_{j >= k} zeta_j^2 (Golub and Van Loan, Matrix
    Computations, 5.2) and level k's set is {t : (zeta_k + t)^2 + T <= d_k^2},
    T the tail over j > k: one quadratic, whose root adds t to zeta_k and
    t mu_k to zeta_{k-1}.  The quadratic takes a set empty by at most rho's
    accuracy as the point t_min = -zeta_k.  Finite steps have mu = 0,
    so recentring, which zeroes zeta_0..zeta_k, leaves only a one-sided root.
    """
    m = chain.ambient_dim
    if not steps:
        return np.zeros(m), []
    qs, mus = zip(*steps)
    lambdas = [0.0] * len(steps)
    lambdas[-1] = upper = ds[len(steps) - 1]
    z, tail, e = upper * mus[-1], 0.0, 0  # zeta_k, and T in units of 4^e
    for k in range(len(steps) - 1, 0, -1):
        # level k runs in units of 2^f, near d_k: T <= d_k^2 stays in range
        f = math.frexp(ds[k - 1])[1]
        tail = math.ldexp(tail, 2 * (e - f)) + math.ldexp(upper, -f) ** 2  # upper: zeta_(k+1)
        dk, zk, e = math.ldexp(ds[k - 1], -f), math.ldexp(z, -f), f
        ends = _quadratic_ends(math.sqrt(zk * zk + tail), zk, 1.0, dk, m, f)
        if ends is None:
            raise _below_minimum(ds[k - 1])
        # the centre -zeta_k keeps its sign where rounding of the ends would not
        t = ends[1] if _takes_upper(*ends, not recentre, -z) else ends[0]
        lambdas[k - 1] = t
        upper, z = z + t, t * mus[k - 1]
    return np.column_stack(qs) @ lambdas, lambdas


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
    steps = _prefix_steps(chain, d, len(d), recentre=True)
    return _realize(chain, d, len(d), steps, opts or ConstructOptions(), recentre=True)


# ---------------------------------------------------------------------------
# prefix construction and stabilization
# ---------------------------------------------------------------------------


def _prefix_steps(chain: Chain, d: TargetSequence, N: int, recentre: bool):
    """Every mode's steps q_j, rho(q_j, Y_j) = 1, j = 1..Np, after its entry
    checks (nesting; Np of N, see _levels_to_build): with recentre (finite
    mode), and out of a rank-0 Y_j, the plain unit step, mu_j = 0; else
    |q_j| = u_Np^(j) = 1 + w_j, w_j = tau_Np / (2^j d_j), schedule column Np.

    q_j = y_j + mu_j s: y_j is the unit step out of Y_j (_unit_step),
    whose distance q_j keeps, with witness mu_j s; s, the previous level's y
    normalized (a unit vector of Y_1 at the first level), pre-loads the
    distance one level down, and mu_j is the smallest root of
    |y_j + mu s| = 1 + w_j.  At p = 2, with y_j orthogonal to s, that is
    mu_j = sqrt(w_j (2 + w_j)), free of sqrt(u^2 - 1)'s cancellation for
    small w_j, and a step is (q_j, mu_j); otherwise mu_j is one level-set
    solve and a step is (q_j, certificate of rho(q_j, Y_j) = 1).
    """
    _nested(chain)
    ds = [d.value(j) for j in range(1, _levels_to_build(chain, d, N) + 1)]
    tau = min((a - b for a, b in zip(ds, ds[1:])), default=ds[0] if ds else 0.0)
    zero, norm = Subspace.zero(chain.ambient_dim), chain.norm
    steps, s = [], None
    for j, dj in enumerate(ds, start=1):
        Yj = chain.level(j)
        y, cert = _unit_step(Yj, chain.level(j + 1), norm)
        w, mu, q = tau / (2.0**j * dj), 0.0, y
        if Yj.rank and not recentre:
            if s is None:
                s = _unit_step(zero, Yj, norm)[0]
            if norm.p == 2.0:
                mu = math.sqrt(w * (2.0 + w))
            else:
                mu = smallest_root(y, s, zero, norm, 1.0 + w, two_sided=False).t
                cert = _scaled(cert, 1.0, mu * (Yj.basis.T @ s))
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
    steps = _prefix_steps(chain, d, N, recentre=False)
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
    steps = _prefix_steps(chain, d, N_max, recentre=False)
    traces: list[ConstructionTrace] = []
    kept = []
    failures = []
    for N in range(1, N_max + 1):
        try:
            traces.append(_realize(chain, d, N, steps[:N], opts, recentre=False))
            kept.append(N)
        except (ConstructionError, SolverError) as exc:
            failures.append((N, str(exc)))
    n = len(traces)
    diffs = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            diffs[i, j] = diffs[j, i] = _norm(traces[i].x - traces[j].x, chain.norm.p)
    max_tail = tuple(
        float(np.max(diffs[i, i + 1 :])) if i + 1 < n else 0.0 for i in range(n)
    )
    body = max_tail[:-1] if n else ()
    slack = 1e-12 * max(body, default=0.0)  # relative, as the tail scales with d
    non_inc = all(a >= b - slack for a, b in zip(body, body[1:]))
    return traces, StabilizationTable(
        prefixes=tuple(kept),
        differences=diffs,
        max_tail=max_tail,
        tail_non_increasing=non_inc,
        failures=tuple(failures),
    )
