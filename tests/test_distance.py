import concurrent.futures
import copy
import math
import threading

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lethargy.distance as distance_module
import lethargy.functionals as functionals_module
import lethargy.scenario as scenario_module
from lethargy.construct import ConstructOptions, TargetSequence, finite_construct
from lethargy.distance import (
    DistanceResult,
    Endpoint,
    SolverError,
    best_approximant,
    default_tol,
    level_endpoint,
    rho,
)
from lethargy.spaces import (Chain, DimensionMismatchError, NormSpec, Subspace, coordinate_chain,
                             norm_eval)
from oracles import l2_level_end, rho_l1_primal_oracle, rho_oracle, rho_vertex_oracle
from test_acceptance import non_hilbert_instances

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]
L2 = NormSpec(2)


def assert_certifies(cert: DistanceResult, x, Y: Subspace, norm: NormSpec, value: float, tol: float):
    """cert's dual g has |g|_* = 1 and g|Y = 0, and g(x - w) and |x - w|
    both equal value within tol, w the witness: a bracket of rho(x, Y)."""
    g = cert.dual(Y, norm)
    assert g is not None
    assert np.max(np.abs(Y.basis.T @ g), initial=0.0) <= 1e-12
    assert norm_eval(g, NormSpec(norm.dual_p)) == pytest.approx(1.0, abs=1e-12)
    r = x - cert.witness(Y)
    assert float(g @ r) == pytest.approx(value, abs=tol)
    assert norm_eval(r, norm) == pytest.approx(value, abs=tol)


def stated_tol(x, Y: Subspace, norm: NormSpec) -> float:
    """The accuracy rho states for its value: 0 on the zero subspace,
    1e-13 max(1, |x|_2) at p = 2 and default_tol(norm) otherwise."""
    if Y.rank == 0:
        return 0.0
    if norm.p == 2.0:
        return 1e-13 * max(1.0, float(np.linalg.norm(x)))
    return default_tol(norm)


def lower_end(x, q, Y: Subspace, norm: NormSpec, d: float):
    """The lower end of {t : rho(x + t q, Y) <= d}: minus the upper end for -q."""
    end = level_endpoint(x, -np.asarray(q, dtype=float), Y, norm, d)
    return None if end is None else Endpoint(-end.t, end.certificate)


def test_rho_l2_projection():
    Y = Subspace(np.array([[1.0], [0.0]]))
    res = rho([1.0, 1.0], Y, NormSpec(2))
    assert res.value == pytest.approx(1.0)
    assert res.witness(Y) == pytest.approx([1.0, 0.0])
    assert res.solver == "closed_form_l2"


def test_rho_sup_lp():
    Y = Subspace(np.array([[1.0], [1.0]]))
    res = rho([1.0, -1.0], Y, NormSpec(math.inf))
    assert res.value == pytest.approx(1.0, abs=1e-8)
    # the optimal coefficient is 0: moving along (1,1) raises one coordinate
    assert norm_eval(res.witness(Y), NormSpec(2)) <= 1e-6


def test_rho_zero_subspace_is_norm():
    Z = Subspace.zero(3)
    for p in P_VALUES:
        x = np.array([1.0, -2.0, 0.5])
        res = rho(x, Z, NormSpec(p))
        assert res.value == pytest.approx(norm_eval(x, NormSpec(p)))
        assert res.solver == ("closed_form_l2" if p == 2 else "coordinate")
        assert res.witness(Z) == pytest.approx([0.0, 0.0, 0.0])


def test_best_approximant_examples():
    Y = Subspace(np.array([[1.0], [0.0]]))
    assert best_approximant([1.0, 1.0], Y, NormSpec(2)) == pytest.approx([1.0, 0.0])
    assert best_approximant([2.0, 0.0, 0.0], Subspace.zero(3), NormSpec(2)) == pytest.approx(
        [0.0, 0.0, 0.0]
    )
    # l1 flat of minimizers: value is 2, witness c*(1,1) with c in [-1,1]
    Yd = Subspace(np.array([[1.0], [1.0]]))
    res = rho([1.0, -1.0], Yd, NormSpec(1))
    assert res.value == pytest.approx(2.0, abs=1e-8)
    y0 = res.witness(Yd)
    assert norm_eval(np.array([1.0, -1.0]) - y0, NormSpec(1)) <= 2.0 + 1e-8


def test_rho_oracle_examples():
    Y = Subspace(np.array([[1.0], [0.0]]))
    assert rho_oracle([1.0, 1.0], Y, NormSpec(2)) == pytest.approx(1.0, abs=0.01)
    Yd = Subspace(np.array([[1.0], [1.0]]))
    assert rho_oracle([1.0, -1.0], Yd, NormSpec(math.inf)) == pytest.approx(1.0, abs=0.01)
    assert rho_oracle([0.0, 0.0], Yd, NormSpec(2)) == 0.0


def test_rho_vertex_oracle_examples():
    Yd = Subspace(np.array([[1.0], [1.0]]))
    assert rho_vertex_oracle([1.0, -1.0], Yd, NormSpec(1)) == pytest.approx(2.0, abs=1e-15)
    assert rho_vertex_oracle([1.0, -1.0], Yd, NormSpec(math.inf)) == pytest.approx(1.0, abs=1e-15)
    assert rho_vertex_oracle([3.0, -4.0], Subspace.zero(2), NormSpec(1)) == 7.0
    assert rho_vertex_oracle([3.0, -4.0], Subspace(np.eye(2)), NormSpec(math.inf)) == 0.0
    with pytest.raises(ValueError):
        rho_vertex_oracle([1.0, 0.0], Yd, NormSpec(2))


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_rho_vertex_oracle_agrees_at_every_rank(p):
    rng = np.random.default_rng(12)
    norm = NormSpec(p)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        r = int(rng.integers(1, dim))
        Y = Subspace(rng.standard_normal((dim, r)))
        x = rng.standard_normal(dim)
        assert rho_vertex_oracle(x, Y, norm) == pytest.approx(rho(x, Y, norm).value, abs=1e-12)


def test_rho_oracle_guards():
    with pytest.raises(ValueError):
        rho_oracle([1.0] * 5, Subspace(np.eye(5)[:, :4]), NormSpec(2))
    with pytest.raises(ValueError):
        rho_oracle([1.0, 0.0], Subspace(np.array([[1.0], [0.0]])), NormSpec(2), grid_steps=5)


@pytest.mark.parametrize("p", P_VALUES)
def test_oracle_agreement_low_rank(p):
    rng = np.random.default_rng(11)
    norm = NormSpec(p)
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        r = int(rng.integers(1, min(2, dim - 1) + 1))
        Y = Subspace(rng.standard_normal((dim, r)))
        x = rng.uniform(-1.5, 1.5, dim)
        v = rho(x, Y, norm).value
        o = rho_oracle(x, Y, norm, grid_radius=4.0, grid_steps=401)
        assert v <= o + 1e-6  # oracle upper-bounds the infimum
        # grid resolution bound: half-spacing per axis times the value's
        # Lipschitz constant in the coefficients (column p-norms)
        spacing = 8.0 / 400.0
        lip = sum(norm_eval(Y.basis[:, j], norm) for j in range(Y.rank))
        assert abs(v - o) <= 0.5 * spacing * lip + 1e-6


def test_witness_certifies_value():
    rng = np.random.default_rng(4)
    for p in P_VALUES:
        norm = NormSpec(p)
        for _ in range(5):
            dim = int(rng.integers(2, 7))
            r = int(rng.integers(1, dim))
            Y = Subspace(rng.standard_normal((dim, r)))
            x = rng.standard_normal(dim)
            res = rho(x, Y, norm)
            assert norm_eval(x - res.witness(Y), norm) <= res.value + max(stated_tol(x, Y, norm), 1e-9)
            assert res.value <= norm_eval(x, norm) + 1e-12


@pytest.mark.parametrize("p", P_VALUES)
def test_rho_certificate_on_every_route(p):
    rng = np.random.default_rng(41)
    norm = NormSpec(p)
    for dim, r in ((4, 0), (4, 1), (6, 3), (9, 5)):
        Y = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
        for scale in (1.0, 1e-6, 1e3):
            x = scale * rng.standard_normal(dim)
            res = rho(x, Y, norm)
            tol = max(stated_tol(x, Y, norm), 1e-12) * max(1.0, res.value)
            assert_certifies(res, x, Y, norm, res.value, tol)


@pytest.mark.parametrize("p", P_VALUES)
def test_rho_of_a_point_in_the_subspace_has_no_certificate(p):
    norm = NormSpec(p)
    Y = Subspace(np.eye(4)[:, :2])
    for x in (np.array([1.0, -2.0, 0.0, 0.0]), np.zeros(4)):
        res = rho(x, Y, norm)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.dual(Y, norm) is None
    assert rho(np.zeros(3), Subspace.zero(3), norm).dual(Subspace.zero(3), norm) is None


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
def test_rho_smooth_route_of_rounding_noise(p):
    # x in Y leaves only rounding in its part outside Y, here all of it inside
    # Y again, and Y may be the whole space: distance 0, no certificate
    norm = NormSpec(p)
    cases = ((Subspace(np.array([[0.0, 0.0], [0.0, -2.0], [-2.0, -1.0]])), [0.0, -3.0, -3.0]),
             (Subspace.full(3), [1.0, 2.0, 3.0]))
    for Y, x in cases:
        res = rho(x, Y, norm)
        assert res.value == 0.0
        assert res.dual(Y, norm) is None


@pytest.mark.parametrize("p", P_VALUES)
def test_rho_outside_the_normal_range(p):
    # at 1e-290 the power sums of p > 1 underflow: rho at p = 1.5 was 0 with
    # no certificate.  rho scales with x, and its certificate holds.
    norm = NormSpec(p)
    Y = Subspace(np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 1.0, -1.0]]).T)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    value = rho(x, Y, norm).value
    for scale in (1e-290, 1e160):
        res = rho(scale * x, Y, norm)
        assert res.value == pytest.approx(scale * value, rel=1e-12)
        assert_certifies(res, scale * x, Y, norm, scale * value, 1e-12 * scale * value)


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 3.0, 6.0])
def test_rho_smooth_route_certificate_gap(p):
    # the damped Newton route stops on its own certificate gap, 1e-13 (1 +
    # rho) on the normalized problem, near p = 1 as well as at larger p
    rng = np.random.default_rng(1)
    norm = NormSpec(p)
    worst = 0.0
    for _ in range(200):
        Y = Subspace(rng.standard_normal((16, int(rng.integers(1, 5)))))
        x = rng.standard_normal(16)
        res = rho(x, Y, norm)
        assert res.solver == "convex_descent"
        g = res.dual(Y, norm)
        worst = max(worst, (res.value - float(g @ (x - res.witness(Y)))) / res.value)
    assert worst <= 1e-12


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
def test_rho_on_subnormal_input_scales_from_the_normal_range(p):
    # x with no normal entry: the smooth route solves at x / 2^e, max |x|
    # in [1/2, 1), so rho and the witness are those of a normal-range x
    # scaled back, to the rounding of the subnormal result
    norm = NormSpec(p)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        Y = Subspace(rng.standard_normal((3, 2)))
        for x in (np.array([1.0, 0.0, 0.0]), rng.standard_normal(3)):
            ref = rho(x, Y, norm)
            for e in (-1074, -1050, -1030):
                res = rho(np.ldexp(x, e), Y, norm)
                assert res.value == pytest.approx(math.ldexp(ref.value, e), rel=1e-12,
                                                  abs=math.ldexp(1.0, -1074))
                assert np.allclose(res.witness_coeffs, np.ldexp(ref.witness_coeffs, e),
                                   rtol=1e-12, atol=math.ldexp(1.0, -1074))


small_vec = st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=6)


@settings(max_examples=60, deadline=None)
@given(small_vec, st.floats(-10, 10), st.sampled_from(P_VALUES), st.integers(0, 10_000))
# tiny x: the LP route must not answer "witness 0" within HiGHS's absolute tolerances
@example(entries=[0.0, 0.0, 5.960464477539063e-08], lam=2.0, p=1.0, seed=0)
# subnormal x: the smooth route must not lose xp's direction to underflow
@example(entries=[5e-324, 0.0, 0.0], lam=0.0, p=1.5, seed=0)
def test_property_homogeneity(entries, lam, p, seed):
    x = np.array(entries)
    dim = x.size
    Y = Subspace(np.random.default_rng(seed).standard_normal((dim, 2)))
    norm = NormSpec(p)
    tol = default_tol(norm)
    lhs = rho(lam * x, Y, norm).value
    rhs = abs(lam) * rho(x, Y, norm).value
    assert abs(lhs - rhs) <= tol * (1 + abs(lam)) + 1e-9 * (1 + abs(lam))


@settings(max_examples=60, deadline=None)
@given(small_vec, st.sampled_from(P_VALUES), st.integers(0, 10_000))
# x + v far from 0 but near Y: rho must stay as accurate as for x itself
@example(entries=[0.0, 4.313918950174063e-07, 0.0], p=1.0, seed=0)
def test_property_translation_invariance(entries, p, seed):
    x = np.array(entries)
    rng = np.random.default_rng(seed)
    Y = Subspace(rng.standard_normal((x.size, 2)))
    v = Y.basis @ rng.uniform(-3, 3, 2)
    norm = NormSpec(p)
    tol = default_tol(norm)
    assert abs(rho(x + v, Y, norm).value - rho(x, Y, norm).value) <= 2 * tol + 1e-8


@settings(max_examples=60, deadline=None)
@given(small_vec, small_vec, st.sampled_from(P_VALUES), st.integers(0, 10_000))
def test_property_subadditivity_and_lipschitz(e1, e2, p, seed):
    n = min(len(e1), len(e2))
    x1, x2 = np.array(e1[:n]), np.array(e2[:n])
    Y = Subspace(np.random.default_rng(seed).standard_normal((n, min(2, n - 1) or 1)))
    norm = NormSpec(p)
    tol = default_tol(norm)
    r1, r2 = rho(x1, Y, norm).value, rho(x2, Y, norm).value
    assert rho(x1 + x2, Y, norm).value <= r1 + r2 + 3 * tol + 1e-8
    assert abs(r1 - r2) <= norm_eval(x1 - x2, norm) + 2 * tol + 1e-8


@pytest.mark.parametrize("p", P_VALUES)
def test_property_chain_monotonicity(p):
    rng = np.random.default_rng(21)
    norm = NormSpec(p)
    chain = coordinate_chain(6, 4, norm)
    tol = default_tol(norm)
    for _ in range(5):
        x = rng.standard_normal(6)
        vals = [rho(x, chain.level(k), norm).value for k in range(1, 5)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 2 * tol + 1e-9


@pytest.mark.parametrize("p", P_VALUES)
def test_property_coercivity(p):
    rng = np.random.default_rng(22)
    norm = NormSpec(p)
    Y = Subspace(rng.standard_normal((5, 2)))
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    ry = rho(y, Y, norm).value
    rx = rho(x, Y, norm).value
    assert ry > 1e-6  # y outside Y almost surely
    for t in (1.0, 10.0, 100.0, -50.0):
        assert rho(x + t * y, Y, norm).value >= abs(t) * ry - rx - 1e-6 * (1 + abs(t))


# -- level-set endpoints ------------------------------------------------------


def level_instance(rng, p, dim=5, rank=2):
    Y = Subspace(rng.standard_normal((dim, rank)))
    x, q = rng.standard_normal(dim), rng.standard_normal(dim)
    return Y, x, q, 1.5 * rho(x, Y, NormSpec(p)).value + 0.1


def test_level_endpoint_l2_is_quadratic_root():
    # the vector pass's quadratic, and level_endpoint's general route with
    # its certificates, find the roots of |xp + t qp|_2^2 = d^2
    rng = np.random.default_rng(31)
    for _ in range(10):
        Y, x, q, d = level_instance(rng, 2.0)
        P = np.eye(5) - Y.basis @ Y.basis.T
        xp, qp = P @ x, P @ q
        roots = np.roots([qp @ qp, 2.0 * (xp @ qp), xp @ xp - d * d]).real
        ends = (-l2_level_end(x, -q, Y, d), l2_level_end(x, q, Y, d))
        assert ends == pytest.approx((roots.min(), roots.max()), rel=1e-12, abs=1e-12)
        lo, hi = lower_end(x, q, Y, L2, d), level_endpoint(x, q, Y, L2, d)
        assert (lo.t, hi.t) == pytest.approx((roots.min(), roots.max()), rel=1e-12, abs=1e-12)
        for end in (lo, hi):
            assert_certifies(end.certificate, x + end.t * q, Y, L2, d, 1e-12)


def l2_level_draws(seed, n=200):
    """(x, q, Y, d): m <= 12, rank 0 to m - 1, d inside, on and below the
    range of t -> rho(x + t q, Y), whose minimum is floor, and coordinate
    cases with signed zeros."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = int(rng.integers(1, 13))
        r = int(rng.integers(0, m))
        Y = Subspace(rng.standard_normal((m, r))) if r else Subspace.zero(m)
        x, q = rng.standard_normal(m), rng.standard_normal(m)
        nx = rho(x, Y, L2).value
        floor = rho(x, Subspace(np.column_stack([Y.basis, q])), L2).value if r < m - 1 else 0.0
        for d in (nx, 1.5 * nx + 0.1, 0.5 * (nx + floor), floor, 0.5 * floor):
            yield x, q, Y, d
    for m, r, d in ((3, 1, 1.0), (3, 1, 0.0), (2, 0, 2.0), (4, 2, 0.5)):
        # x = c e_{r+1} and q = e_{r+2}: xp . qp = 0 exactly, floor = |c|
        e = np.eye(m)
        Y = Subspace(e[:, :r]) if r else Subspace.zero(m)
        for c in (2.0, d, 0.0):
            yield c * e[:, r], e[:, r + 1], Y, d


def test_l2_level_set_ends():
    # the upper end, and the lower end as minus the upper end for -q
    # (signed zeros included); an empty set has neither.
    negative_zeros = 0
    for x, q, Y, d in l2_level_draws(37):
        lower, upper = lower_end(x, q, Y, L2, d), level_endpoint(x, q, Y, L2, d)
        if upper is None or lower is None:  # d below the minimum beyond rho's accuracy: empty
            assert upper is None and lower is None
            continue
        lower, upper = lower.t, upper.t
        negative_zeros += lower == 0.0 and math.copysign(1.0, lower) < 0.0
        assert lower <= upper + 1e-12 * (1.0 + abs(upper))  # tangent sets may cross by rounding
        for t in (lower, upper):
            assert abs(rho(x + t * q, Y, L2).value - d) <= 1e-12 * (1.0 + d)
    assert negative_zeros > 0  # x on the level, |xp| = d, gives signed-zero ends


@pytest.mark.parametrize("s", [1.0, 1e-150, 1e150])
def test_l2_single_point_level_set(s):
    # rank m - 1 leaves x and q one line off Y, so d = 0, the minimum over
    # t, makes the level set the single point t_min, where rho grows
    # linearly.  Both ends sit there to rounding, not to sqrt(eps) (4.1e-8).
    rng = np.random.default_rng(3)
    for i in range(300):
        m = 1 + i % 4
        Y = Subspace(rng.standard_normal((m, m - 1))) if m > 1 else Subspace.zero(1)
        x, q = rng.standard_normal(m), rng.standard_normal(m)
        d = rho(x, Subspace(np.column_stack([Y.basis, q])), L2).value
        lower, upper = (f(s * x, s * q, Y, L2, s * d) for f in (lower_end, level_endpoint))
        assert lower is not None and upper is not None and lower.t == upper.t
        gap = rho(s * x + upper.t * (s * q), Y, L2).value - s * d
        assert gap <= 1e-12 * (s + s * d)


def test_l2_level_set_direction_inside_subspace():
    Y = Subspace(np.eye(4)[:, :2])
    for end in (level_endpoint, lower_end):
        with pytest.raises(SolverError):
            end(np.ones(4), Y.basis @ [1.0, -2.0], Y, L2, 3.0)


@pytest.mark.parametrize("s", [1e-305, 1e-170, 1e-150, 1e150, 1e160, 1e300])
def test_l2_level_set_is_scale_safe(s):
    # x, q and d scaled together leave the vector pass's quadratic ends where
    # they are.  Unscaled, xp . qp, qp . qp and |xp|^2 - d^2 under- or
    # overflow long before xp and qp do: (-0.142, 1.619) at 1e-150, (-inf, 0)
    # at 1e150, an overflow at 1e160, and |qp| = 0 ("direction inside the
    # subspace") at 1e-170.
    Y, x, q, d = level_instance(np.random.default_rng(1), 2.0, dim=6, rank=2)
    ends = [-l2_level_end(x, -q, Y, d), l2_level_end(x, q, Y, d)]
    assert ends == pytest.approx((-0.643, 0.358), abs=1e-3)
    scaled = [-l2_level_end(s * x, -s * q, Y, s * d), l2_level_end(s * x, s * q, Y, s * d)]
    for t, t0 in zip(scaled, ends):
        assert abs(t - t0) <= 2 * np.spacing(abs(t0))


@pytest.mark.parametrize("p", P_VALUES)
def test_level_sets_are_scale_invariant(p):
    # x, q and d scaled together leave the end where it is, and targets
    # scaled together build to the same relative residual.  With absolute
    # tangent and Newton rules and an unscaled LP column, p = 1.5 missed its
    # tolerance at s = 1e-6, the LPs failed at s = 1e-160, Newton ended at
    # t_min there and a ZeroDivisionError escaped at s = 1e-300.
    norm = NormSpec(p)
    Y, x, q, d = level_instance(np.random.default_rng(1), p, dim=6, rank=2)
    end = level_endpoint(x, q, Y, norm, d)
    for s in (1e-160, 1e-300, 1e200):
        scaled = level_endpoint(s * x, s * q, Y, norm, s * d)
        assert scaled.t == pytest.approx(end.t, rel=1e-13)
        if end.certificate is not None:
            assert scaled.certificate.value == pytest.approx(s * end.certificate.value, rel=1e-13)
    A = np.random.default_rng(0).standard_normal((6, 4))
    chain = Chain(6, norm, [Subspace(A[:, :k]) for k in range(1, 5)])
    for s in (1e-6, 1e-9):
        targets = TargetSequence(tuple(s * v for v in (1.0, 0.6, 0.35, 0.2)))
        trace = finite_construct(chain, targets, ConstructOptions(tol=1e-9 * s))
        assert trace.max_residual <= 1e-13 * s


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_level_endpoint_meets_level_and_is_extreme(p):
    rng = np.random.default_rng(32)
    norm = NormSpec(p)
    for _ in range(6):
        Y, x, q, d = level_instance(rng, p)
        lo = lower_end(x, q, Y, norm, d)
        hi = level_endpoint(x, q, Y, norm, d)
        assert lo.t < 0.0 < hi.t  # d > rho(x, Y): 0 lies inside the level set
        for end in (lo, hi):
            t = end.t
            assert rho(x + t * q, Y, norm).value == pytest.approx(d, abs=1e-9)
            assert rho(x + (t + math.copysign(1e-6, t)) * q, Y, norm).value > d
            assert_certifies(end.certificate, x + t * q, Y, norm, d, 1e-9)


@pytest.mark.parametrize("p", P_VALUES)
def test_level_endpoint_empty_and_degenerate(p):
    rng = np.random.default_rng(33)
    norm = NormSpec(p)
    Y, x, q, _ = level_instance(rng, p)
    floor = rho(x, Subspace(np.column_stack([Y.basis, q])), norm).value  # min over t
    assert level_endpoint(x, q, Y, norm, 0.5 * floor) is None
    assert lower_end(x, q, Y, norm, 0.5 * floor) is None
    with pytest.raises(SolverError):
        level_endpoint(x, Y.basis @ [1.0, -2.0], Y, norm, 2.0 * floor)


# Inputs are checked at the public entry points only; the private core takes
# the checked arrays.  Each entry against NaN, a wrong dimension (norm_eval
# takes any) and a list that is not 1-D.
BAD_VECTORS = {"nan": ([1.0, math.nan, 0.5], ValueError),
               "wrong-dim": ([1.0, 0.5], DimensionMismatchError),
               "not-1d": ([[1.0, 0.0, 0.5]], ValueError)}
ENTRY_POINTS = {
    "rho": rho,
    "best_approximant": best_approximant,
    "level_endpoint-x": lambda v, Y, norm: level_endpoint(v, np.eye(3)[:, 2], Y, norm, 0.5),
    "level_endpoint-q": lambda v, Y, norm: level_endpoint(np.eye(3)[:, 2], v, Y, norm, 0.5),
    "norm_eval": lambda v, Y, norm: norm_eval(v, norm),
}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("entry, bad", [(e, b) for e in ENTRY_POINTS for b in BAD_VECTORS
                                        if (e, b) != ("norm_eval", "wrong-dim")])
def test_entry_points_reject_bad_vectors(entry, bad, p):
    vector, error = BAD_VECTORS[bad]
    for Y in (Subspace(np.eye(3)[:, :1]), Subspace(np.array([1.0, 1.0, 0.0]))):
        with pytest.raises(error):
            ENTRY_POINTS[entry](vector, Y, NormSpec(p))


@pytest.mark.parametrize("p", [1.0, 1.2, 2.0, 3.0, math.inf])
def test_level_endpoint_tangent(p):
    # d at the minimum over t, or a rounding error below it: the set is the
    # minimizer (an interval of them for p in {1, inf}), not empty
    rng = np.random.default_rng(34)
    norm = NormSpec(p)
    for _ in range(4):
        Y, x, q, _ = level_instance(rng, p)
        floor = rho(x, Subspace(np.column_stack([Y.basis, q])), norm).value
        for d in (floor, floor * (1.0 - 1e-12)):
            lo = lower_end(x, q, Y, norm, d)
            hi = level_endpoint(x, q, Y, norm, d)
            assert lo is not None and hi is not None
            assert lo.t <= hi.t + 1e-6
            for end in (lo, hi):
                assert rho(x + end.t * q, Y, norm).value == pytest.approx(floor, abs=1e-7)
                if end.certificate is not None:
                    assert_certifies(end.certificate, x + end.t * q, Y, norm, floor, 1e-7)
        assert level_endpoint(x, q, Y, norm, floor - 1e-4) is None


def coordinate_cases(seed, n=60):
    """(norm, Y, x, q) at p in {1, inf}: Y = span{e_i : i in S} from signed
    columns in random order, rank 0 included, and q with zero entries."""
    e = np.eye(4)  # span{e_3, e_1}, the second column sign-flipped
    yield NormSpec(1.0), Subspace(np.column_stack([e[:, 2], -e[:, 0]])), np.arange(1.0, 5.0), e[:, 1] - e[:, 3]
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = int(rng.integers(2, 8))
        S = rng.permutation(m)[: int(rng.integers(0, m))]
        Y = Subspace(np.eye(m)[:, S] * rng.choice([-1.0, 1.0], S.size)) if S.size else Subspace.zero(m)
        x, q = rng.standard_normal(m), rng.standard_normal(m)
        q[rng.random(m) < 0.3] = 0.0
        q[np.setdiff1d(np.arange(m), S)[0]] = 1.0  # q outside Y
        yield NormSpec(1.0 if i % 2 == 0 else math.inf), Y, x, q


def test_coordinate_level_end_on_a_flat_minimum():
    # q = (w, -w) balances the slopes, so sum |x_i + t q_i| is flat at its
    # minimum: with d at that level, rounding can leave the last breakpoint
    # with f <= d on the flat piece, whose right slope is exactly 0
    rng = np.random.default_rng(40)
    zero, hidden = Subspace.zero(4), copy.copy(Subspace.zero(4))
    hidden.support = None
    for _ in range(100):
        w = rng.uniform(0.1, 1.0, 2)
        x, q = rng.standard_normal(4), np.concatenate([w, -w])
        t = np.sort(-x / q)
        d = min(norm_eval(x + s * q, NormSpec(1.0)) for s in (t[:-1] + t[1:]) / 2)
        ends = [f(x, q, zero, NormSpec(1.0), d).t for f in (lower_end, level_endpoint)]
        low, high = sorted(f(x, q, hidden, NormSpec(1.0), d).t for f in (lower_end, level_endpoint))
        for end in ends:
            assert low - 1e-9 <= end <= high + 1e-9
            assert norm_eval(x + end * q, NormSpec(1.0)) <= d * (1.0 + 1e-15)


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_coordinate_certificate_is_scale_safe(p, s):
    # |r|^(p - 1) of the residual itself would overflow at 1e200 (p = 3).
    # The sum^(1/p) of a norm far from 1 costs about ln(sum) ulp.
    norm = NormSpec(p)
    Y = coordinate_chain(5, 2, norm).level(2)
    x = s * np.array([0.3, -1.0, 2.0, -0.5, 1.5])
    res = rho(x, Y, norm)
    assert res.value == pytest.approx(s * norm_eval([2.0, -0.5, 1.5], norm), rel=1e-13)
    assert_certifies(res, x, Y, norm, res.value, 1e-13 * res.value)


def test_coordinate_closed_form_matches_the_lp_route(monkeypatch):
    # On a coordinate subspace rho and both level-set ends are closed forms;
    # with the support hidden the same calls take the LP route
    empty = []  # closed forms that found the set empty
    tangent_fallbacks = 0
    closed_form = distance_module._coordinate_level_end

    def recorded(*args):
        t = closed_form(*args)
        if t is None:
            empty.append(args)
        return t
    monkeypatch.setattr(distance_module, "_coordinate_level_end", recorded)
    for norm, Y, x, q in coordinate_cases(39):
        assert np.array_equal(np.sort(Y.support), np.flatnonzero(Y.basis.any(axis=1)))
        hidden = copy.copy(Y)
        hidden.support = None
        res, ref = rho(x, Y, norm), distance_module._rho_linprog(x, Y, norm)
        assert res.solver == "coordinate"
        assert res.value == pytest.approx(ref.value, rel=1e-12)
        assert_certifies(res, x, Y, norm, res.value, 1e-15 * (1.0 + res.value))
        floor = rho(x, Subspace(np.column_stack([Y.basis, q])), norm).value  # min over t
        for d in (0.5 * floor, floor, 0.5 * (floor + res.value), res.value, 1.5 * res.value + 0.1):
            found_empty = len(empty)
            ends = [f(x, q, Y, norm, d) for f in (lower_end, level_endpoint)]
            found_empty = len(empty) > found_empty
            lps = [f(x, q, hidden, norm, d) for f in (lower_end, level_endpoint)]
            if d < floor * (1.0 - 1e-6):
                assert ends == lps == [None, None]
            elif d > floor * (1.0 + 1e-9):  # an interval, each end a closed form
                for end, lp in zip(ends, lps):
                    # an end is exact to rounding in rho, so in t to that
                    # over rho's slope g(q), which a near-flat piece makes small
                    slope = abs(float(end.certificate.dual(Y, norm) @ q))
                    assert abs(end.t - lp.t) <= 1e-12 * (1.0 + abs(lp.t)) + 1e-14 * (1.0 + d) / slope
                    cert = end.certificate
                    assert cert.value == pytest.approx(d, rel=1e-14, abs=1e-14)
                    assert_certifies(cert, x + end.t * q, Y, norm, cert.value, 1e-15 * (1.0 + d))
            else:
                # d at the minimum over t: the closed form may find the set
                # empty by rounding and take the tangent fallback, which
                # returns one minimizer; the LP, within its tolerance, the
                # ends of a flat minimum.  The one lies within the other.
                low, high = sorted(lp.t for lp in lps)
                slack = 1e-9 * (1.0 + abs(low) + abs(high))
                for end in ends:
                    assert low - slack <= end.t <= high + slack
                tangent_fallbacks += found_empty
    assert len(empty) > 10 and tangent_fallbacks > 0


# -- the LP entry point --------------------------------------------------------


def recorded_lps(monkeypatch, module, run) -> list:
    """The (args, kwargs) of every LP that run() solves through module.linprog."""
    calls = []
    solve = module.linprog
    monkeypatch.setattr(module, "linprog", lambda *a, **kw: calls.append((a, kw)) or solve(*a, **kw))
    run()
    monkeypatch.undo()
    return calls


def level_set_lps():
    # below, at and above the minimum over t: empty, tangent and proper sets
    rng = np.random.default_rng(35)
    for i in range(40):
        norm = NormSpec(1.0 if i % 2 == 0 else math.inf)
        Y, x, q, _ = level_instance(rng, norm.p, dim=int(rng.integers(3, 8)), rank=int(rng.integers(1, 3)))
        floor = rho(x, Subspace(np.column_stack([Y.basis, q])), norm).value
        for d in (0.5 * floor, floor, 1.5 * floor + 0.1):
            level_endpoint(x, q, Y, norm, d)
            lower_end(x, q, Y, norm, d)


def norming_lps():
    rng = np.random.default_rng(36)
    for i in range(24):
        norm = NormSpec(1.0 if i % 2 == 0 else math.inf)
        r = i % 4
        dim = r + int(rng.integers(2, 5))  # x2 outside span[{x1} + Q]
        Q = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
        x1, x2 = rng.standard_normal(dim), rng.standard_normal(dim)
        functionals_module.norming_functional(x1, Q, norm)
        functionals_module.norming_functional(x1, Q, norm, x2=x2)
        # a face of positive dimension takes the LP: x1's largest entries
        # tied (p = inf) or some zero (p = 1), off {0}
        tied = np.sign(x1) if norm.is_sup else np.where(np.arange(dim) % 2 == 0, x1, 0.0)
        functionals_module.norming_functional(tied, Subspace.zero(dim), norm, x2=x2)


def l1_sweep_instances():
    # (Y, x) at the benchmark sweep's sizes: m in {16, 64, 256}, r in {1, 8, 32} below m
    rng = np.random.default_rng(37)
    return [(Subspace(rng.standard_normal((m, r))), rng.standard_normal(m))
            for m in (16, 64, 256) for r in (1, 8, 32) if r < m for _ in range(2)]


def random_basis_criterion_2():
    """Criterion 2's (chain, targets) pairs with each chain's shape and norm
    kept and its basis drawn at random: its coordinate chains take no LP."""
    rng = np.random.default_rng(0)
    out = []
    for chain, d, _ in non_hilbert_instances()[0]:
        M = rng.standard_normal((chain.ambient_dim, len(chain)))
        levels = tuple(Subspace(M[:, :k]) for k in range(1, len(chain) + 1))
        out.append((Chain(chain.ambient_dim, chain.norm, levels), d))
    return out


LP_FAMILIES = ["criterion 2", "level sets", "norming"]


def family_lps(monkeypatch, family) -> list:
    """The (args, kwargs) of every LP that one family solves."""
    instances = random_basis_criterion_2()  # built outside the recording
    module, run = {
        "criterion 2": (distance_module, lambda: [finite_construct(c, d) for c, d in instances]),
        "level sets": (distance_module, level_set_lps),
        "norming": (functionals_module, norming_lps),
    }[family]
    return recorded_lps(monkeypatch, module, run)


def assert_same_lp_result(ours, ref):
    assert ours.status == ref.status
    if ref.status == 0:
        assert np.array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert np.array_equal(ours.row_dual, ref.row_dual)


def scipy_linprog(c, A, row_lo, row_hi, col_lo, col_hi):
    """The same LP through scipy.optimize.linprog, with distance._solver's
    options (presolve off, feasibility tolerances 1e-9): rows
    row_lo = -inf become A_ub, rows row_lo = row_hi become A_eq.  scipy puts
    A_ub's rows first, so every A_ub row must come before every A_eq row."""
    eq = row_lo == row_hi
    assert np.all(eq | ((row_lo == -np.inf) & (row_hi < np.inf)))
    assert not np.any(eq[:-1] & ~eq[1:])
    res = scipy.optimize.linprog(c, A_ub=A[~eq], b_ub=row_hi[~eq], A_eq=A[eq], b_eq=row_hi[eq],
                                 bounds=np.column_stack([col_lo, col_hi]),
                                 method="highs", options={"presolve": False,
                                                          "primal_feasibility_tolerance": 1e-9,
                                                          "dual_feasibility_tolerance": 1e-9})
    row_dual = (np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
                if res.status == 0 else None)
    return distance_module.LPResult(res.status, res.message, res.x, res.fun, row_dual)


@pytest.mark.parametrize("family", LP_FAMILIES)
def test_linprog_matches_scipy_linprog(monkeypatch, family):
    # distance.linprog calls HiGHS directly, presolve off: the same statuses,
    # and at an optimum the same x, objective and row duals as scipy's
    # linprog with presolve off, bit for bit
    statuses = []
    for args, kwargs in family_lps(monkeypatch, family):
        ours = distance_module.linprog(*args, **kwargs)
        assert_same_lp_result(ours, scipy_linprog(*args, **kwargs))
        statuses.append(ours.status)
    assert 0 in statuses
    if family == "level sets":
        assert 2 in statuses  # the empty sets


@pytest.mark.parametrize("family", LP_FAMILIES)
def test_linprog_reused_solver_matches_a_fresh_one(monkeypatch, family):
    # one solver per thread serves every LP: whatever it solved before, in
    # either order and after an infeasible LP, the answer is the one a new
    # solver gives, bit for bit
    calls = family_lps(monkeypatch, family)

    def fresh(args, kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(distance_module, "_local", threading.local())  # no solver yet
            return distance_module.linprog(*args, **kwargs)

    refs = [fresh(args, kwargs) for args, kwargs in calls]
    forward = [distance_module.linprog(*args, **kwargs) for args, kwargs in calls]
    backward = [distance_module.linprog(*args, **kwargs) for args, kwargs in calls[::-1]][::-1]
    for ref, ours, again in zip(refs, forward, backward):
        assert_same_lp_result(ours, ref)
        assert_same_lp_result(again, ref)
    if family == "level sets":
        assert 2 in [ref.status for ref in refs]


def test_rho_in_two_threads_matches_serial():
    # rho keeps no state between calls, and each thread has its own HiGHS
    # solver for the LPs that remain: two threads running rho over the same
    # inputs in opposite orders give the serial results bit for bit
    cases = [(x, Y, NormSpec(p)) for Y, x in l1_sweep_instances() for p in (1.0, math.inf)]
    serial = [rho(x, Y, norm) for x, Y, norm in cases]
    barrier = threading.Barrier(2)

    def run(order):
        barrier.wait()
        results = {i: rho(*cases[i]) for i in order}
        return results, distance_module._solver()

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, order) for order in (range(len(cases)), range(len(cases))[::-1])]
        outcomes = [f.result() for f in futures]
    assert outcomes[0][1] is not outcomes[1][1]
    for results, _ in outcomes:
        for i, ref in enumerate(serial):
            res = results[i]
            assert res.solver == ref.solver
            assert res.value == ref.value
            assert np.array_equal(res.witness_coeffs, ref.witness_coeffs)
            assert np.array_equal(res.dual_direction, ref.dual_direction)


def test_rho_l1_solves_the_annihilator_lp(monkeypatch):
    # rho(x, Y) = max{g . x : B^T g = 0, -1 <= g <= 1}, solved at a vertex
    # by exchange, with no linear program: the value is the primal LP's,
    # and the vertex's g and witness bracket it to rounding
    norm = NormSpec(1.0)
    for Y, x in l1_sweep_instances():
        out = []
        assert recorded_lps(monkeypatch, distance_module, lambda: out.append(rho(x, Y, norm))) == []
        res = out[0]
        assert res.solver == "linear_program"
        assert res.value == pytest.approx(rho_l1_primal_oracle(x, Y), rel=1e-12)
        assert_certifies(res, x, Y, norm, res.value, 1e-13 * res.value)


def near_tied_kernel(p, m, basis):
    """(Y, x, rho): Y = ker f, x = e_1 with f = (1 - 2^-k) at p = 1 and
    f = (2^-k) at p = inf, whose entries tie to 2^-m; rho = |f_1| / |f|_*
    exactly.  Y's basis is f's SVD complement or a QR of [f, I]."""
    k = np.arange(1, m + 1, dtype=float)
    f = 1.0 - 2.0**-k if p == 1.0 else 2.0**-k
    exact = f[0] / norm_eval(f, NormSpec(NormSpec(p).dual_p))
    Y = Subspace(np.linalg.svd(f[None, :])[2][1:].T if basis == "svd"
                 else np.linalg.qr(np.column_stack([f, np.eye(m)[:, :m - 1]]))[0][:, 1:])
    return Y, np.eye(m)[0], exact


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("m", [32, 64, 128])
@pytest.mark.parametrize("basis", ["svd", "qr"])
def test_rho_lp_on_near_tied_kernels(p, m, basis):
    # HiGHS's default 1e-7 tolerances left rho up to 2.3e-7 off here
    norm = NormSpec(p)
    Y, x, exact = near_tied_kernel(p, m, basis)
    res = rho(x, Y, norm)
    assert res.solver == "linear_program"
    assert abs(res.value - exact) <= default_tol(norm) * exact
    g = res.dual(Y, norm)
    assert res.value - float(g @ (x - res.witness(Y))) <= default_tol(norm) * res.value


# -- the vertex exchange at p in {1, inf} ---------------------------------------


def relative_gap(res, x, Y: Subspace, norm: NormSpec) -> float:
    """(|x - w| - g(x - w)) / |x - w| for rho's witness w and certificate g."""
    return (res.value - float(res.dual(Y, norm) @ (x - res.witness(Y)))) / res.value


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_rho_exchange_matches_the_vertex_oracle(p):
    rng = np.random.default_rng(42)
    norm = NormSpec(p)
    for _ in range(60):
        m = int(rng.integers(2, 8))
        Y = Subspace(rng.standard_normal((m, int(rng.integers(1, m)))))
        x = rng.standard_normal(m)
        assert rho(x, Y, norm).value == pytest.approx(rho_vertex_oracle(x, Y, norm), rel=1e-13)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_rho_exchange_certificate_gap(monkeypatch, p):
    # the vertex's g and witness bracket rho to rounding, with no linear
    # program: on the benchmark sweep's draws (m in {16, 64, 256}, r in
    # 1..8) and on the near-tied kernels, where HiGHS's feasibility
    # tolerances left gaps near 1e-9
    norm = NormSpec(p)
    rng = np.random.default_rng(43)
    cases = [(Subspace(rng.standard_normal((m, int(rng.integers(1, 9))))), rng.standard_normal(m))
             for m in (16, 64, 256) for _ in range(20)]
    cases += [near_tied_kernel(p, m, basis)[:2] for m in (32, 64, 128) for basis in ("svd", "qr")]
    out = []
    assert recorded_lps(monkeypatch, distance_module, lambda: out.extend(rho(x, Y, norm) for Y, x in cases)) == []
    assert max(relative_gap(res, x, Y, norm) for res, (Y, x) in zip(out, cases)) <= 1e-13


def degenerate_cases(p):
    """(x, Y) whose vertices are degenerate, or whose bases every exchange
    rule has to survive: coordinate subspaces with the support hidden, the
    polynomial grids (constants in every level), rank m - 1, bases with zero
    rows, x in Y up to rounding, and a finite construction's x (p = 1 leaves
    more than rank zero residuals there)."""
    rng = np.random.default_rng(45)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        S = rng.permutation(m)[: int(rng.integers(1, m))]
        hidden = copy.copy(Subspace(np.eye(m)[:, S] * rng.choice([-1.0, 1.0], S.size)))
        hidden.support = None
        yield rng.standard_normal(m), hidden
    for m, n in ((16, 6), (64, 16)):
        chain = scenario_module._polynomial_grid_chain(n, m, NormSpec(p))
        for Y in chain.levels:
            yield rng.standard_normal(m), Y
            yield np.abs(np.linspace(-1.0, 1.0, m)), Y  # symmetric about the grid's centre
    for m in (3, 8, 17):
        yield rng.standard_normal(m), Subspace(rng.standard_normal((m, m - 1)))
    for m in (6, 12):
        M = rng.standard_normal((m, 3))
        M[::2] = 0.0
        yield rng.standard_normal(m), Subspace(M)
        Y = Subspace(rng.standard_normal((m, 3)))
        yield Y.basis @ rng.standard_normal(3), Y
    M = rng.standard_normal((9, 5))
    chain = Chain(9, NormSpec(p), tuple(Subspace(M[:, :k]) for k in range(1, 6)))
    x = finite_construct(chain, TargetSequence((0.9, 0.6, 0.4, 0.2, 0.1))).x
    for Y in chain.levels:
        yield x, Y


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_rho_exchange_on_degenerate_vertices(p):
    # each ends below its step cap with no warning (RuntimeWarnings are
    # errors here), and certifies its value to rounding
    norm = NormSpec(p)
    for x, Y in degenerate_cases(p):
        res = rho(x, Y, norm)
        assert res.solver == "linear_program"
        assert_certifies(res, x, Y, norm, res.value, 1e-13 * max(1.0, res.value))


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_rho_exchange_in_and_near_the_subspace(p):
    # x = 0 is in Y: rho 0 and no certificate, with no exchange; x = 0 plus
    # rounding noise is a distance of its own, certified like any other
    norm = NormSpec(p)
    Y = Subspace(np.random.default_rng(46).standard_normal((12, 4)))
    res = rho(np.zeros(12), Y, norm)
    assert res.value == 0.0 and res.dual_direction is None
    x = 1e-17 * np.random.default_rng(47).standard_normal(12)
    res = rho(x, Y, norm)
    assert 0.0 < res.value == pytest.approx(rho_vertex_oracle(x, Y, norm), rel=1e-13)
    assert_certifies(res, x, Y, norm, res.value, 1e-13 * res.value)


@pytest.mark.parametrize("exchange", ["_sup_exchange", "_l1_exchange"])
def test_rho_exchange_step_cap_raises(exchange):
    # the cap is a SolverError that names it, never a wrong vertex
    Y = Subspace(np.random.default_rng(48).standard_normal((8, 3)))
    u = Y.residual(np.random.default_rng(49).standard_normal(8))
    with pytest.raises(SolverError, match="step cap 50 \\(m \\+ r\\) = 0"):
        getattr(distance_module, exchange)(u / np.abs(u).max(), Y.basis, 0)


def test_rho_exchange_ends_where_rounding_outweighs_its_steps():
    # Y within 1e-9 of a coordinate subspace and x of entries +-1: the optimal
    # references are ill-conditioned (about 1e9), their residuals carry more
    # rounding than a step gains, and 10 of these 40 draws at p = inf come
    # back to a reference they left.  The exchange ends there, with the
    # least |e| it has seen as the witness, and the bracket stays within
    # rho's stated accuracy instead of running to the step cap.
    gaps = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        Y = Subspace(np.eye(24)[:, rng.permutation(24)[:6]] + 1e-9 * rng.standard_normal((24, 6)))
        x = np.where(rng.random(24) < 0.5, -1.0, 1.0)
        for p in (1.0, math.inf):
            norm = NormSpec(p)
            gaps.append(relative_gap(rho(x, Y, norm), x, Y, norm))
    assert max(gaps) <= default_tol(NormSpec(1.0))
    assert sum(gap > 1e-12 for gap in gaps) >= 4  # the draws that come back


def test_rho_l1_exchange_parts_zeros_far_beyond_the_rank():
    # a 0/1 x on a polynomial grid leaves most residuals 0 at the start and
    # at the optimum: smallest-index steps of length 0 ran to the step cap
    # on 97 of these 240 distances (walking over the zeros' vertices); with
    # u moved by 1e-10 at the first such step each ends, and certifies its
    # value to rounding (the primal LP oracle's own tolerance is looser)
    norm = NormSpec(1.0)
    chain = scenario_module._polynomial_grid_chain(8, 64, norm)
    for seed in range(30):
        x = (np.random.default_rng(seed).random(64) < 0.3).astype(float)
        for Y in chain.levels:
            res = rho(x, Y, norm)
            assert res.value == pytest.approx(rho_l1_primal_oracle(x, Y), rel=1e-9)
            assert relative_gap(res, x, Y, norm) <= 1e-13


def test_rho_sup_exchange_on_sparse_bases_with_tied_x():
    # four in five basis entries 0 (about 8% zero rows) and x of integer
    # entries: a zero row holds its residual at u_i whatever c, and many |u_i|
    # tie with h.  A reference can then carry all its weight on a zero row
    # while its levelled c is far from optimal, and rows tied with h up to
    # rounding would take the smallest index ahead of rows 0.4 above it.
    # Without the zero-row split 6 of these 600 ran to the step cap; without
    # the 1e-6 entering bound 3 of them ended 0.2 to 0.4 |x| off.
    norm = NormSpec(math.inf)
    gaps = []
    for seed in range(600):
        rng = np.random.default_rng(seed)
        Y = Subspace(rng.standard_normal((128, 11)) * (rng.random((128, 11)) < 0.2))
        x = rng.integers(-2, 3, 128).astype(float)
        gaps.append(relative_gap(rho(x, Y, norm), x, Y, norm))
    assert max(gaps) <= 1e-10
