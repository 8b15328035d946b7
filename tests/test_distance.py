import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lethargy.distance as distance_module
import lethargy.functionals as functionals_module
from lethargy.construct import finite_construct
from lethargy.distance import (
    DistanceResult,
    SolverError,
    best_approximant,
    default_tol,
    level_endpoint,
    rho,
)
from lethargy.spaces import NormSpec, Subspace, coordinate_chain, norm_eval
from oracles import rho_oracle, rho_vertex_oracle
from test_acceptance import non_hilbert_instances

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]


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
        assert res.solver == "zero_subspace"
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
            assert norm_eval(x - res.witness(Y), norm) <= res.value + max(res.achieved_tol, 1e-9)
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
            tol = max(res.achieved_tol, 1e-12) * max(1.0, res.value)
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


small_vec = st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=6)


@settings(max_examples=60, deadline=None)
@given(small_vec, st.floats(-10, 10), st.sampled_from(P_VALUES), st.integers(0, 10_000))
# tiny x: the LP route must not answer "witness 0" within HiGHS's absolute tolerances
@example(entries=[0.0, 0.0, 5.960464477539063e-08], lam=2.0, p=1.0, seed=0)
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
    rng = np.random.default_rng(31)
    for _ in range(10):
        Y, x, q, d = level_instance(rng, 2.0)
        P = np.eye(5) - Y.basis @ Y.basis.T
        xp, qp = P @ x, P @ q
        roots = np.roots([qp @ qp, 2.0 * (xp @ qp), xp @ xp - d * d]).real
        lo = level_endpoint(x, q, Y, NormSpec(2), d, upper=False)
        hi = level_endpoint(x, q, Y, NormSpec(2), d, upper=True)
        assert lo.certificate is None and hi.certificate is None  # the quadratic solves for t only
        assert (lo.t, hi.t) == pytest.approx((roots.min(), roots.max()), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_level_endpoint_meets_level_and_is_extreme(p):
    rng = np.random.default_rng(32)
    norm = NormSpec(p)
    for _ in range(6):
        Y, x, q, d = level_instance(rng, p)
        lo = level_endpoint(x, q, Y, norm, d, upper=False)
        hi = level_endpoint(x, q, Y, norm, d, upper=True)
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
    for upper in (True, False):
        assert level_endpoint(x, q, Y, norm, 0.5 * floor, upper) is None
    with pytest.raises(SolverError):
        level_endpoint(x, Y.basis @ [1.0, -2.0], Y, norm, 2.0 * floor, upper=True)


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
            lo = level_endpoint(x, q, Y, norm, d, upper=False)
            hi = level_endpoint(x, q, Y, norm, d, upper=True)
            assert lo is not None and hi is not None
            assert lo.t <= hi.t + 1e-6
            for end in (lo, hi):
                assert rho(x + end.t * q, Y, norm).value == pytest.approx(floor, abs=1e-7)
                if end.certificate is not None:
                    assert_certifies(end.certificate, x + end.t * q, Y, norm, floor, 1e-7)
        assert level_endpoint(x, q, Y, norm, floor - 1e-4, upper=True) is None


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
            for upper in (True, False):
                level_endpoint(x, q, Y, norm, d, upper)


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


@pytest.mark.parametrize("family", ["criterion 2", "level sets", "norming"])
def test_linprog_matches_scipy_linprog(monkeypatch, family):
    # distance.linprog calls HiGHS directly: the same statuses, and at an
    # optimum the same x, objective and row duals as scipy's linprog, bit for bit
    instances, _ = non_hilbert_instances()  # built and cached outside the recording
    module, run = {
        "criterion 2": (distance_module, lambda: [finite_construct(c, d) for c, d, _ in instances]),
        "level sets": (distance_module, level_set_lps),
        "norming": (functionals_module, norming_lps),
    }[family]
    calls = recorded_lps(monkeypatch, module, run)
    if family == "norming":  # bounds as an (n, 2) array, and as a list of pairs
        calls += [(a, {**kw, "bounds": [tuple(b) for b in kw["bounds"]]}) for a, kw in calls]
    statuses = []
    for args, kwargs in calls:
        ours = distance_module.linprog(*args, **kwargs)
        ref = scipy.optimize.linprog(*args, method="highs", **kwargs)
        assert ours.status == ref.status
        statuses.append(ours.status)
        if ref.status == 0:
            assert np.array_equal(ours.x, ref.x)
            assert ours.fun == ref.fun
            assert np.array_equal(ours.ineqlin.marginals, ref.ineqlin.marginals)
    assert 0 in statuses
    if family == "level sets":
        assert 2 in statuses  # the empty sets
