import math
from pathlib import Path

import numpy as np
import pytest

from lethargy.functionals import (
    FunctionalError,
    kernel_distance_identity_check,
    limit_expression,
    limit_value,
    norm_attainment_check,
    norming_functional,
)
from lethargy.distance import rho
from lethargy.spaces import NormSpec, Subspace

L2 = NormSpec(2)
DATA = Path(__file__).parent / "data"


def test_limit_expression_values():
    Z = Subspace.zero(2)
    g10 = limit_expression([0.0, 1.0], [1.0, 0.0], Z, L2, 10.0)
    assert g10 == pytest.approx(10.0 - math.sqrt(101.0))
    # collinear: exact from a >= 2 on
    for a in (2.0, 5.0, 40.0):
        assert limit_expression([2.0, 0.0], [1.0, 0.0], Z, L2, a) == pytest.approx(2.0)
    # g(a) = a - sqrt(a^2 + 1) ~ -1/(2a): slow convergence to 0 from below
    assert limit_expression([0.0, 1.0], [1.0, 0.0], Z, L2, 1000.0) == pytest.approx(-5.0e-4, abs=1e-9)
    assert limit_expression([0.0, 1.0], [1.0, 0.0], Z, L2, 1.0e6) == pytest.approx(-5.0e-7, abs=1e-9)


def test_limit_expression_rejects_x1_in_Q():
    Q = Subspace(np.array([[1.0], [0.0]]))
    with pytest.raises(FunctionalError):
        limit_expression([0.0, 1.0], [2.0, 0.0], Q, L2, 1.0)


def test_limit_value_examples():
    Z = Subspace.zero(2)
    assert limit_value([0.0, 1.0], [1.0, 0.0], Z, L2) == pytest.approx(0.0, abs=1e-6)
    assert limit_value([3.0, 1.0], [1.0, 0.0], Z, L2) == pytest.approx(3.0, abs=1e-6)
    Q = Subspace(np.array([[0.0], [0.0], [1.0]]))
    assert limit_value([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], Q, L2) == pytest.approx(0.0, abs=1e-6)


def _check_limit(x2, x1, Q, norm, grid):
    """g(a) is non-decreasing and bounded, its limit is exact, and the
    pinned norming functional attains it."""
    bound = rho(x2, Q, norm).value / rho(x1, Q, norm).value
    vals = [limit_expression(x2, x1, Q, norm, a) for a in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-8
    for v in vals:
        assert abs(v) <= bound + 1e-8
    L = limit_value(x2, x1, Q, norm)
    assert max(vals) - 1e-8 <= L <= bound + 1e-8
    f = norming_functional(x1, Q, norm, x2=x2)
    d = f.dual_vector
    assert f(x2) == pytest.approx(L, abs=1e-9)
    assert np.linalg.norm(Q.basis.T @ d) <= 1e-12 * np.linalg.norm(d)
    assert f(x1) == pytest.approx(1.0, abs=1e-12)


def test_limit_monotone_and_bounded():
    rng = np.random.default_rng(9)
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
    for p in (2.0, 1.0, 1.5, 3.0, math.inf):
        norm = NormSpec(p)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            r = int(rng.integers(0, dim - 1))
            Q = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
            x1 = rng.standard_normal(dim)
            x2 = rng.standard_normal(dim)
            if rho(x1, Q, norm).value < 1e-6:
                continue
            _check_limit(x2, x1, Q, norm, grid)
    # one large smooth case: the face is one point, so this takes milliseconds
    Q = Subspace(rng.standard_normal((256, 5)))
    _check_limit(rng.standard_normal(256), rng.standard_normal(256), Q, NormSpec(3), grid)


def test_limit_value_does_not_stop_early():
    """The p = 1 sweep input that ended a doubling search too early.

    tests/data/sweep_seed10_input175.npz holds raw, x1 and x2 of
    bench.workloads.build_sweep(10, 176, workdir)[175] (m = 256, rank 7):
    a search that stopped once one doubling of a changed g(a) by less than
    1e-8 returned -0.04444, below g(100) = -0.03983, and its norming
    functional was off the norming identity by 6e-5.
    """
    data = np.load(DATA / "sweep_seed10_input175.npz")
    Q, x1, x2 = Subspace(data["raw"]), data["x1"], data["x2"]
    norm = NormSpec(1)
    L = limit_value(x2, x1, Q, norm)
    for a in (1e2, 1e3):
        assert L >= limit_expression(x2, x1, Q, norm, a) - 1e-9
    assert L == pytest.approx(-0.0388760457, abs=1e-8)
    f = norming_functional(x1, Q, norm, x2=x2)
    assert abs(f.dual_norm_value * rho(x1, Q, norm).value - 1.0) <= 1e-7


NEAR_TIES = {
    # two faces of the dual ball 1e-9 apart, far inside HiGHS's 1e-7
    # tolerances: the face comes from the witness residual, not from an LP
    "sup-zero": (NormSpec(math.inf), Subspace.zero(2), [1.0, 1.0 - 1e-9], [1.0, 0.0], 1.0),
    "sup-e3": (NormSpec(math.inf), Subspace(np.array([[0.0], [0.0], [1.0]])),
               [1.0, 1.0 - 1e-9, 5.0], [1.0, 0.0, 0.3], 1.0),
    "l1-zero": (NormSpec(1), Subspace.zero(2), [1.0, 1e-9], [0.0, 1.0], 1.0 / (1.0 + 1e-9)),
}


@pytest.mark.parametrize("case", NEAR_TIES)
def test_limit_on_near_tied_faces(case):
    norm, Q, x1, x2, exact = NEAR_TIES[case]
    assert limit_value(x2, x1, Q, norm) == pytest.approx(exact, abs=1e-12)
    assert norming_functional(x1, Q, norm, x2=x2)(x2) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_norming_functional_solve_count(monkeypatch, p):
    # rho's certificate is the functional without x2; one LP over its face
    # pins f(x2).  rho's own LP goes through lethargy.distance.linprog.
    import lethargy.functionals as functionals_module

    calls = []
    linprog = functionals_module.linprog
    monkeypatch.setattr(functionals_module, "linprog",
                        lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    rng = np.random.default_rng(4)
    Q = Subspace(rng.standard_normal((8, 3)))
    x1, x2 = rng.standard_normal(8), rng.standard_normal(8)
    norming_functional(x1, Q, NormSpec(p))
    assert len(calls) == 0
    norming_functional(x1, Q, NormSpec(p), x2=x2)
    assert len(calls) == 1


def test_norming_functional_basic():
    f = norming_functional([1.0, 0.0], Subspace.zero(2), L2)
    assert f.dual_vector == pytest.approx([1.0, 0.0])
    assert f.dual_norm_value == pytest.approx(1.0)
    assert f([1.0, 0.0]) == pytest.approx(1.0)


def test_norming_functional_with_x2():
    f = norming_functional([1.0, 0.0], Subspace.zero(2), L2, x2=[0.0, 1.0])
    assert f([0.0, 1.0]) == pytest.approx(0.0, abs=1e-6)
    assert f.dual_vector == pytest.approx([1.0, 0.0], abs=1e-6)


def test_norming_functional_with_Q():
    Q = Subspace(np.array([[1.0], [1.0], [0.0]]))
    f = norming_functional([1.0, 0.0, 0.0], Q, L2)
    assert abs(f(Q.basis[:, 0])) <= 1e-10
    assert f([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert f.dual_norm_value == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_norming_functional_preconditions():
    Q = Subspace(np.array([[1.0], [0.0]]))
    with pytest.raises(FunctionalError):
        norming_functional([2.0, 0.0], Q, L2)  # x1 inside Q
    with pytest.raises(FunctionalError):
        # x2 in span{x1, Q}
        norming_functional([0.0, 1.0], Q, L2, x2=[1.0, 2.0])


def test_norm_attainment_check_examples():
    f = norming_functional([1.0, 0.0], Subspace.zero(2), L2)
    assert norm_attainment_check(f, [1.0, 0.0], L2)
    assert not norm_attainment_check(f, [0.0, 1.0], L2)
    f2 = norming_functional([0.5, 0.5], Subspace.zero(2), L2)
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert norm_attainment_check(f2, x, L2)


def test_kernel_identity_examples():
    f = norming_functional([1.0, 0.0], Subspace.zero(2), L2)
    assert kernel_distance_identity_check(f, [2.0, 5.0], L2)
    assert kernel_distance_identity_check(f, [0.0, 7.0], L2)
    f1 = norming_functional([0.5, 0.5], Subspace.zero(2), NormSpec(1))
    assert kernel_distance_identity_check(f1, [1.0, 0.0], NormSpec(1))


def test_interval_inequalities_around_limit():
    # For q in Q and any alpha:
    #   -|q + alpha*x1 + x2|/rho(x1,Q) - alpha <= L <= |q + alpha*x1 + x2|/rho(x1,Q) - alpha
    rng = np.random.default_rng(13)
    for _ in range(10):
        dim = int(rng.integers(3, 7))
        r = int(rng.integers(1, dim - 1))
        Q = Subspace(rng.standard_normal((dim, r)))
        x1 = rng.standard_normal(dim)
        x2 = rng.standard_normal(dim)
        rho1 = rho(x1, Q, L2).value
        if rho1 < 1e-6:
            continue
        L = limit_value(x2, x1, Q, L2)
        for _ in range(5):
            q = Q.basis @ rng.uniform(-2, 2, r)
            alpha = float(rng.uniform(-3, 3))
            s = float(np.linalg.norm(q + alpha * x1 + x2)) / rho1
            assert -s - alpha - 1e-6 <= L <= s - alpha + 1e-6
