"""Test oracles: brute-force and primal-LP distances, the Borodin schedule
tables, the exact l2 model of a prefix, the p = 2 backward pass on vectors,
and independent checks of norming functionals and interpolating families."""

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import scipy.linalg
import scipy.optimize

from lethargy.construct import ConstructionError, TargetError, _below_minimum
from lethargy.distance import SolverError, best_approximant, rho
from lethargy.spaces import NormSpec, Subspace, as_vector, norm_eval


def rho_oracle(
    x,
    Y: Subspace,
    norm: NormSpec,
    grid_radius: float = 3.0,
    grid_steps: int = 601,
) -> float:
    """Brute-force grid minimum of |x - Bc| over c in [-radius, radius]^rank.

    Upper-bounds the true distance; converges to it as grid_steps grows.
    Restricted to rank <= 3 to keep the grid tractable.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    if Y.rank > 3:
        raise ValueError("rho_oracle supports rank <= 3 only")
    if grid_steps < 10:
        raise ValueError("grid_steps must be >= 10")
    if Y.rank == 0:
        return norm_eval(x, norm)
    axis = np.linspace(-grid_radius, grid_radius, grid_steps)
    mesh = np.meshgrid(*([axis] * (Y.rank - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in mesh], axis=0) if Y.rank > 1 else np.zeros((0, 1))
    best = math.inf
    # chunk over the leading coefficient to keep memory flat on fine grids
    for c0 in axis:
        C = np.vstack([np.full(tail.shape[1], c0), tail])
        R = x[:, None] - Y.basis @ C
        if norm.is_sup:
            vals = np.max(np.abs(R), axis=0)
        else:
            vals = np.sum(np.abs(R) ** norm.p, axis=0) ** (1.0 / norm.p)
        best = min(best, float(np.min(vals)))
    return best


def rho_vertex_oracle(x, Y: Subspace, norm: NormSpec) -> float:
    """Exact rho(x, Y) for p in {1, inf} by vertex enumeration, no LP solver.

    The best approximation problem is a linear program whose optimum sits at
    a vertex (Cheney, Introduction to Approximation Theory, ch. 2):

      * p = 1    r = rank residual entries vanish: solve B_S c = x_S for
                 every r-subset S of the rows
      * p = inf  r + 1 residual entries tie at +-t: solve
                 B_S c + sigma_S t = x_S for every (r + 1)-subset S and sign
                 vector sigma (sigma_1 = +1, since -sigma gives the same c)

    Each nonsingular system gives a candidate c, and rho is the least
    |x - B c| over them.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    if not (norm.p == 1.0 or norm.is_sup):
        raise ValueError("rho_vertex_oracle supports p in {1, inf} only")
    m, r = Y.ambient_dim, Y.rank
    if r == 0:
        return norm_eval(x, norm)
    if r == m:
        return 0.0
    B = Y.basis
    if norm.is_sup:
        rows = np.array(list(itertools.combinations(range(m), r + 1)))
        signs = np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=r)])
        M = np.concatenate([
            np.repeat(B[rows], len(signs), axis=0),
            np.tile(signs, (len(rows), 1))[:, :, None],
        ], axis=2)
        rhs = np.repeat(x[rows], len(signs), axis=0)
    else:
        rows = np.array(list(itertools.combinations(range(m), r)))
        M, rhs = B[rows], x[rows]
    solvable = np.linalg.matrix_rank(M) == M.shape[-1]
    C = np.linalg.solve(M[solvable], rhs[solvable][:, :, None])[:, :r, 0]
    R = x[None, :] - C @ B.T
    vals = np.max(np.abs(R), axis=1) if norm.is_sup else np.sum(np.abs(R), axis=1)
    return float(np.min(vals))


def rho_l1_primal_oracle(x, Y: Subspace) -> float:
    """rho(x, Y) at p = 1 from the primal LP, through scipy's own linprog:
    min sum s over (v, s) with -s <= x - B v <= s, 2m rows and r + m
    columns, on the part of x orthogonal to Y scaled to l1 norm 1.  The
    value is |x - B c| at the LP's coefficients c."""
    x = as_vector(x, dim=Y.ambient_dim)
    B = Y.basis
    m, r = B.shape
    c0 = B.T @ x
    xp = x - B @ c0
    scale = norm_eval(xp, NormSpec(1.0)) or 1.0
    eye = np.eye(m)
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(r), np.ones(m)]),
        A_ub=np.block([[-B, -eye], [B, -eye]]),
        b_ub=np.concatenate([-xp, xp]) / scale,
        bounds=[(None, None)] * r + [(0, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return norm_eval(x - B @ (c0 + res.x[:r] * scale), NormSpec(1.0))


@dataclass(frozen=True)
class BorodinSchedule:
    """tau_j together with the u table, indexed u[j-1, n-1] for j <= n."""

    tau: np.ndarray
    u: np.ndarray


def build_schedule(d, N: int) -> BorodinSchedule:
    """tau_1 = d_1, tau_j = min of the consecutive gaps d_{k-1} - d_k up to j;
    u_n^(j) = 1 + tau_n / (2^j d_j).  The matching v_n^(j) is 1 throughout:
    the distance of construct._prefix_steps's unit steps, which computes
    column Np of this table itself."""
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
    for j in range(1, N + 1):
        for n in range(j, N + 1):
            u[j - 1, n - 1] = 1.0 + tau[n - 1] / (2.0**j * vals[j - 1])
    return BorodinSchedule(tau=tau, u=u)


def l2_schedule_mu(d) -> list[Decimal]:
    """mu_j = sqrt(w_j (2 + w_j)), w_j = tau_n / (2^j d_j), for schedule
    column n = len(d), in 50-digit decimal arithmetic on the float targets
    d = (d_1..d_n): tau_n = d_1 when n = 1, else the least gap d_{k-1} - d_k.
    mu_j is the root of |e_{j+1} + mu e_j|_2 = u_n^(j) = 1 + w_j."""
    with localcontext() as ctx:
        ctx.prec = 50
        D = [Decimal(v) for v in d]
        tau = min((a - b for a, b in zip(D, D[1:])), default=D[0])
        w = [tau / (2**j * dj) for j, dj in enumerate(D, start=1)]
        return [(wj * (2 + wj)).sqrt() for wj in w]


def l2_prefix_coefficients(d, mu) -> list[float]:
    """Coefficients of the l2 prefix x_N = sum lambda_k q_k, in 50-digit
    decimal arithmetic.

    d = (d_1..d_N) are the targets and mu = (mu_1..mu_N) the steps' q_j =
    f_j + mu_j f_{j-1} for an orthonormal flag frame f (f_j = e_{j+1} on a
    coordinate chain), so rho(x, Y_k) is the l2 norm of the frame
    coordinates from k on, and the root at level k only sets coordinate k
    to +-sqrt(d_k^2 - d_{k+1}^2):

        lambda_N = d_N,
        lambda_k = sqrt(d_k^2 - d_{k+1}^2) - mu_{k+1} lambda_{k+1},

    the upper end of level k's set.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        D, M = [Decimal(v) for v in d], [Decimal(v) for v in mu]
        lam = [Decimal(0)] * len(D)
        lam[-1] = D[-1]
        for k in range(len(D) - 1, 0, -1):  # lam[k - 1] is lambda_k
            lam[k - 1] = (D[k - 1] ** 2 - D[k] ** 2).sqrt() - M[k] * lam[k]
        return [float(v) for v in lam]


def norm_attainment_check(f, x, norm: NormSpec, tol: float = 1e-9) -> bool:
    """True iff x witnesses |f(x)| = |f| * |x| up to the relative tolerance."""
    x = as_vector(x, dim=f.dual_vector.size)
    nx = norm_eval(x, norm)
    if nx <= 0 or f.dual_norm_value <= 0:
        raise ValueError("norm_attainment_check needs |x| > 0 and a non-zero functional")
    return abs(f(x)) >= (1.0 - tol) * f.dual_norm_value * nx


def kernel_distance_identity_check(f, x, norm: NormSpec, tol: float = 1e-6) -> bool:
    """Check rho(x, ker f) = |f(x)| / |f| against the distance solver, with
    ker f the full null space of f's dual vector."""
    if float(np.linalg.norm(f.dual_vector)) == 0.0:
        raise ValueError("functional must be non-zero")
    x = as_vector(x, dim=f.dual_vector.size)
    ker = Subspace(scipy.linalg.null_space(f.dual_vector[None, :]), ambient_dim=f.dual_vector.size)
    lhs = rho(x, ker, norm).value
    rhs = abs(f(x)) / f.dual_norm_value
    return abs(lhs - rhs) <= tol


@dataclass(frozen=True)
class LipschitzReport:
    passes: bool
    worst_slack: float
    pair_count: int


def lipschitz_check(family, u, v, norm: NormSpec, tol: float = 1e-9) -> LipschitzReport:
    """Verify |q_m - q_n| <= (|z| + 2)(max{u_m, u_n} - min{v_m, v_n}) pairwise
    for the members q_m of an interpolating family built for targets u, v,
    with z = step_outer + step_inner."""
    members = family.members
    if len(members) < 2:
        return LipschitzReport(passes=True, worst_slack=math.inf, pair_count=0)
    factor = norm_eval(family.step_outer + family.step_inner, norm) + 2.0
    worst = math.inf
    count = 0
    for m in range(len(members)):
        for n in range(m + 1, len(members)):
            lhs = norm_eval(members[m].q - members[n].q, norm)
            rhs = factor * (max(u[m], u[n]) - min(v[m], v[n]))
            worst = min(worst, rhs - lhs)
            count += 1
    return LipschitzReport(passes=worst >= -tol, worst_slack=worst, pair_count=count)


def l2_level_end(x, q, Y: Subspace, d: float) -> float | None:
    """The upper end of {t : |xp + t qp|_2 <= d}, xp and qp the parts of x
    and q orthogonal to Y, None when empty: one projection and the larger
    root of one quadratic in the cancellation-free form, on xp and d divided
    by 2^ex and qp by 2^eq, so that max(|xp|_2, d) and |qp|_2 lie in
    [1/2, 1) (the products under- or overflow long before xp and qp do).
    The lower end is minus this end for -q.  It is t_min = -(xp . qp) /
    (qp . qp) when the discriminant is 0 up to rounding, or when the set
    misses d by at most rho's accuracy s = 1e-10 (1 + d), min_t |xp + t qp|_2
    <= d + s: tied targets put d at that minimum, where rounding can leave
    it just out of reach.  q inside Y raises SolverError."""
    x, q = as_vector(x, dim=Y.ambient_dim), as_vector(q, dim=Y.ambient_dim)
    xp, qp = Y.residual(x), Y.residual(q)
    nx, nq = norm_eval(xp, NormSpec(2.0)), norm_eval(qp, NormSpec(2.0))
    if nq <= 1e-12 * norm_eval(q, NormSpec(2.0)):
        raise SolverError("level set of a direction inside the subspace is empty or unbounded")
    ex, eq = math.frexp(max(nx, d))[1], math.frexp(nq)[1]
    xp, qp, nx, d = np.ldexp(xp, -ex), np.ldexp(qp, -eq), math.ldexp(nx, -ex), math.ldexp(d, -ex)
    ab, bb = float(xp @ qp), float(qp @ qp)
    cc = (nx - d) * (nx + d)
    disc = ab * ab - bb * cc  # bb (d^2 - min_t |xp + t qp|_2^2)
    s = 1e-10 * (1.0 + d)
    # d at the minimum over t, up to the rounding of ab, bb and cc (m eps
    # each), where sqrt(disc) would move t_min by about sqrt(eps), or below
    # it by at most s
    point = (abs(disc) <= 8 * x.size * np.finfo(float).eps * bb * max(nx, d) ** 2
             or 0.0 > disc >= -bb * s * (2.0 * d + s))
    if not (point or disc >= 0.0):
        return None
    if point:
        t = 0.0 - ab / bb  # +0.0 at ab = 0, so the lower end is -0.0
    elif ab < 0.0:
        t = (math.sqrt(disc) - ab) / bb
    else:
        t = -cc / den if (den := ab + math.sqrt(disc)) > 0.0 else 0.0
    return math.ldexp(t, ex - eq)


def l2_vector_pass(chain, steps, ds, recentre):
    """The p = 2 backward pass on vectors, a reference for construct's scalar
    pass with the same signature and result (x, lambda_1..lambda_Np): x =
    d_Np q_Np, then for k = Np-1..1 (x first moved to its residual off
    Y_{k+1} when recentring) the root of rho(x + t q_k, Y_k) = d_k that the
    constructions take, the upper end of its level set (l2_level_end), and
    a last trim off Y_1 when recentring."""
    qs = [q for q, _ in steps]
    Np, norm = len(qs), chain.norm
    lambdas = [0.0] * Np
    x = np.zeros(chain.ambient_dim)
    if Np:
        lambdas[-1] = ds[Np - 1]
        x = ds[Np - 1] * qs[-1]
    for k in range(Np - 1, 0, -1):
        if recentre:
            x = x - best_approximant(x, chain.level(k + 1), norm)
        t = l2_level_end(x, qs[k - 1], chain.level(k), ds[k - 1])
        if t is None:
            raise _below_minimum(ds[k - 1])
        lambdas[k - 1] = t
        x = x + t * qs[k - 1]
    if recentre and Np:
        x = x - best_approximant(x, chain.level(1), norm)
    return x, lambdas


def l2_vector_coefficients(chain, steps, recentre):
    """l2_vector_pass in the place of construct._l2_coefficients(mus, ds, ns)
    for the chain and steps it is called on: each rung of n levels takes the
    vector pass's lambda over steps[:n] (mus unread), or its error."""
    def coefficients(mus, ds, ns):
        out = []
        for n in ns:
            try:
                out.append(l2_vector_pass(chain, steps[:n], ds, recentre)[1])
            except ConstructionError as exc:
                out.append(exc)
        return out
    return coefficients
