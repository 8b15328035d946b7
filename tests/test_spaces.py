import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy.spaces import (
    Chain,
    DimensionMismatchError,
    NormSpec,
    Subspace,
    _extends,
    _flag_chain,
    as_vector,
    contains,
    coordinate_chain,
    _norm,
    _norms,
    norm_eval,
    validate_chain,
)

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]


def test_norm_eval_examples():
    assert norm_eval([3.0, 4.0], NormSpec(2)) == pytest.approx(5.0)
    assert norm_eval([1.0, -1.0], NormSpec(math.inf)) == pytest.approx(1.0)
    assert norm_eval([1.0, -1.0, 2.0], NormSpec(1)) == pytest.approx(4.0)


def test_norm_eval_zero_iff_zero():
    assert norm_eval([0.0, 0.0], NormSpec(3)) == 0.0
    assert norm_eval([0.0, 1e-30], NormSpec(3)) > 0.0


@pytest.mark.parametrize("p", P_VALUES)
def test_norm_eval_outside_the_normal_range(p):
    # sum |x_i|^p underflows (1e-290 at p = 1.5 and 1e-170 at p = 2 gave 0)
    # or overflows (1e150 at p = 3, 1e160 at p = 2) while |x|_p is a normal
    # number: the norm still scales with x, with no RuntimeWarning (an error
    # under this suite's filter)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    norm = NormSpec(p)
    for scale in (1e-300, 1e-290, 1e-170, 1e150, 1e160, 1e300):
        assert norm_eval(scale * x, norm) == pytest.approx(scale * norm_eval(x, norm), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_norm_of_a_non_finite_entry_ends(p):
    # the core's _norm takes unchecked vectors: an inf or nan entry makes the
    # power sum leave the normal range, and dividing by max |x_i| = inf or
    # nan would recurse without end; the norm is inf, or nan, at once
    assert _norm(np.array([np.inf, 1.0]), p) == math.inf
    assert _norm(np.array([-np.inf, 0.0]), p) == math.inf
    assert math.isnan(_norm(np.array([np.nan, 1.0]), p))


def test_norms_scale_each_row_on_its_own():
    # at p = 2 each row's squares are summed in units of its own largest
    # entry's power of two: a row 1e-400 times the largest entry of the array
    # once underflowed to 0 (1e-200 read 0 next to 1e200); rows from 1e-300
    # to 1e300, and all-zero rows, agree with _norm with no warning
    middle = _norms(np.array([[1e200, 1.0], [1e-200, 2e-200], [3.0, 4.0]]), 2.0)[1]
    assert middle == pytest.approx(_norm(np.array([1e-200, 2e-200]), 2.0), rel=1e-15, abs=0.0)
    rng = np.random.default_rng(9)
    X = np.concatenate([rng.standard_normal((61, 7)) * 10.0 ** np.linspace(-300, 300, 61)[:, None],
                        np.zeros((3, 7))])
    X[::5, ::2] = 0.0
    for rows in (X, X.reshape(4, 16, 7)):
        out = _norms(rows, 2.0)
        ref = np.reshape([_norm(r, 2.0) for r in rows.reshape(-1, 7)], out.shape)
        assert np.all(np.abs(out - ref) <= 1e-15 * ref) and not out.flat[-1]


def test_norm_eval_in_range_is_numpys():
    # the range guard leaves every value whose power sum is a normal number
    # bit for bit np.linalg.norm's
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-30, 30)
        for p in (*P_VALUES, 1.1, 6.0):
            assert norm_eval(x, NormSpec(p)) == float(np.linalg.norm(x, ord=None if p == 2.0 else p))


def test_norm_spec_rejects_bad_exponent():
    with pytest.raises(ValueError):
        NormSpec(0.5)


def test_dual_exponents():
    assert NormSpec(2).dual_p == 2.0
    assert NormSpec(1).dual_p == math.inf
    assert NormSpec(math.inf).dual_p == 1.0
    assert NormSpec(1.5).dual_p == pytest.approx(3.0)


vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(vectors, st.floats(-100, 100), st.sampled_from(P_VALUES))
def test_norm_homogeneity(entries, lam, p):
    x = np.array(entries)
    norm = NormSpec(p)
    lhs = norm_eval(lam * x, norm)
    rhs = abs(lam) * norm_eval(x, norm)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(vectors, st.sampled_from(P_VALUES), st.randoms(use_true_random=False))
def test_norm_triangle_inequality(entries, p, rnd):
    x = np.array(entries)
    y = np.array([rnd.uniform(-1e6, 1e6) for _ in entries])
    norm = NormSpec(p)
    s = norm_eval(x, norm) + norm_eval(y, norm)
    assert norm_eval(x + y, norm) <= s * (1 + 1e-12) + 1e-12


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], dim=3)


def test_subspace_rejects_dependent_columns():
    with pytest.raises(ValueError, match="dependent"):
        Subspace(np.array([[1.0, 2.0], [0.0, 0.0]]))
    # more columns than rows: at most 2 of the 3 are independent
    with pytest.raises(ValueError, match=r"dependent \(numerical rank 2 < 3\)"):
        Subspace(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))


def test_zero_subspace():
    Z = Subspace.zero(3)
    assert Z.rank == 0
    for empty in ([], np.array([])):  # an empty basis, list or array, is {0}
        E = Subspace(empty, ambient_dim=3)
        assert (E.ambient_dim, E.rank, E.basis.shape) == (3, 0, (3, 0))
    assert contains(Z, [0.0, 0.0, 0.0])
    assert not contains(Z, [1.0, 0.0, 0.0])


def test_contains_examples():
    Y = Subspace(np.array([[1.0], [0.0]]))
    assert contains(Y, [2.0, 0.0], 1e-9)
    assert not contains(Y, [0.0, 1.0], 1e-9)


def test_contains_basis_columns():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = rng.standard_normal((6, 3))
        Y = Subspace(B)
        for j in range(3):
            assert contains(Y, B[:, j])


def test_orthonormalization_is_deterministic():
    B = np.random.default_rng(5).standard_normal((5, 2))
    a = Subspace(B).basis
    b = Subspace(B.copy()).basis
    assert np.array_equal(a, b)
    # sign convention: dominant entry of every column is non-negative
    for j in range(a.shape[1]):
        assert a[np.argmax(np.abs(a[:, j])), j] >= 0


def test_validate_chain_pass():
    chain = coordinate_chain(3, 2, NormSpec(2))
    rep = validate_chain(chain)
    assert rep.passes
    assert rep.failure is None
    assert [Y.rank for Y in chain.levels] == [1, 2]


def test_validate_chain_not_nested():
    e = np.eye(2)
    chain = Chain(2, NormSpec(2), (Subspace(e[:, :1]), Subspace(e[:, 1:])))
    rep = validate_chain(chain)
    assert not rep.passes
    assert "not nested" in rep.failure
    # the message names the first pair that fails
    e = np.eye(3)
    chain = Chain(3, NormSpec(2), (Subspace(e[:, :1]), Subspace(e[:, :2]), Subspace(e[:, 2:])))
    assert validate_chain(chain).failure == "levels 2 -> 3: not nested"


def test_validate_chain_not_strict():
    b = np.array([[1.0], [0.0]])
    chain = Chain(2, NormSpec(2), (Subspace(b), Subspace(2.0 * b)))
    rep = validate_chain(chain)
    assert not rep.passes
    assert "not strict" in rep.failure


def test_extends_is_a_bitwise_prefix_of_the_basis():
    F = Subspace(np.random.default_rng(0).standard_normal((5, 3))).basis
    lo, hi = _flag_chain(F, (1, 3), NormSpec(2)).levels
    assert _extends(lo, hi) and _extends(Subspace.zero(5), hi) and _extends(hi, hi)
    assert not _extends(hi, lo)
    # the same span, factored on its own, does not extend lo
    assert not _extends(lo, Subspace(F[:, ::-1]))
    # one bit off in lo's column is no extension
    nudged = F.copy()
    nudged[0, 0] = np.nextafter(F[0, 0], 2.0)
    assert not _extends(lo, _flag_chain(nudged, (3,), NormSpec(2)).levels[0])


def test_flag_chains_are_nested_without_a_residual(monkeypatch):
    # levels that extend each other are nested by construction: validate_chain
    # takes no residual product on a coordinate chain
    calls = []
    real = Subspace.residual
    monkeypatch.setattr(Subspace, "residual", lambda Y, x: calls.append(Y.rank) or real(Y, x))
    assert validate_chain(coordinate_chain(9, 6, NormSpec(2))).passes
    assert calls == []
    # a repeated flag level extends the one below and still is not strict
    F = np.eye(4)[:, :3]
    assert validate_chain(_flag_chain(F, (1, 2, 2, 3), NormSpec(2))).failure == "levels 2 -> 3: not strict"
    # a pair that does not extend takes the residual check, and fails it
    e = np.eye(3)
    chain = Chain(3, NormSpec(1), (Subspace(e[:, :1]), Subspace(e[:, 1:])))
    assert validate_chain(chain).failure == "levels 1 -> 2: not nested"
    assert calls == [2]


def test_coordinate_chain_bases_are_the_svds():
    # coordinate_chain takes the identity columns with no SVD: they are what
    # Subspace's SVD and sign convention give, bit for bit
    for m in range(2, 41):
        for k, Y in enumerate(coordinate_chain(m, m - 1, NormSpec(2)).levels, start=1):
            ref = Subspace(np.eye(m)[:, :k])
            assert (Y.rank, Y.basis.shape) == (ref.rank, ref.basis.shape) == (k, (m, k))
            assert Y.basis.tobytes() == ref.basis.tobytes(), (m, k)


def test_chain_level_indexing():
    chain = coordinate_chain(4, 2, NormSpec(2))
    assert chain.level(1).rank == 1
    assert chain.level(3).rank == 4  # one past the end: full ambient space
    with pytest.raises(IndexError):
        chain.level(4)
    with pytest.raises(IndexError):
        chain.level(0)


def test_chain_ambient_mismatch():
    with pytest.raises(DimensionMismatchError):
        Chain(3, NormSpec(2), (Subspace(np.eye(2)[:, :1]),))
