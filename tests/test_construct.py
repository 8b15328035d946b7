import math

import numpy as np
import pytest

import lethargy.construct as construct_module
from lethargy.construct import (
    BorodinSchedule,
    ConstructionError,
    ConstructOptions,
    TargetError,
    TargetSequence,
    build_schedule,
    check_borodin_condition,
    check_subspace_condition,
    construct_prefix,
    construct_sequence,
    finite_construct,
    interpolating_family,
    lipschitz_check,
    normalize_step,
    smallest_root,
)
from lethargy.distance import default_tol, rho
from lethargy.spaces import Chain, NormSpec, Subspace, contains, coordinate_chain, norm_eval
from oracles import l2_prefix_coefficients

L2 = NormSpec(2)


def closed_form_witness(d: TargetSequence, dim: int) -> np.ndarray:
    """Coordinate-chain l2 witness: x = sum sqrt(d_k^2 - d_{k+1}^2) e_{k+1}."""
    vals = list(d.values) + [0.0]
    x = np.zeros(dim)
    for k in range(len(d)):
        x[k + 1] = math.sqrt(max(vals[k] ** 2 - vals[k + 1] ** 2, 0.0))
    return x


# -- target sequences -------------------------------------------------------


def test_targets_reject_increasing():
    with pytest.raises(TargetError, match="non-increasing"):
        TargetSequence((0.1, 0.5))


def test_targets_reject_bad_tail():
    with pytest.raises(TargetError):
        TargetSequence((1.0,), tail="geometric", ratio=1.5)
    with pytest.raises(TargetError):
        TargetSequence((1.0,), tail="nope")
    with pytest.raises(TargetError):
        TargetSequence((1.0, 0.0), tail="geometric", ratio=0.5)


def test_targets_extension_and_tail_sum():
    d = TargetSequence((1.0, 0.5), tail="geometric", ratio=0.5)
    assert d.value(4) == pytest.approx(0.125)
    assert d.tail_sum_after(2) == pytest.approx(0.5)  # 0.25 + 0.125 + ...
    z = TargetSequence((1.0, 0.5))
    assert z.value(3) == 0.0
    assert z.tail_sum_after(1) == pytest.approx(0.5)


# -- tail-domination condition ---------------------------------------------


def test_borodin_geometric_half_fails_exactly():
    d = TargetSequence((0.5, 0.25, 0.125), tail="geometric", ratio=0.5)
    rep = check_borodin_condition(d)
    assert not rep.passes
    assert rep.n0 is None
    assert all(m == 0.0 for m in rep.margins)


def test_borodin_geometric_two_point_five_passes():
    r = 1.0 / 2.5
    d = TargetSequence((0.4,), tail="geometric", ratio=r)
    rep = check_borodin_condition(d)
    assert rep.passes
    assert rep.tail_margin_factor == pytest.approx(1.0 - r / (1.0 - r))
    assert rep.tail_margin_factor == pytest.approx(1.0 / 3.0)


def test_borodin_zero_tail_example():
    rep = check_borodin_condition(TargetSequence((1.0, 0.3, 0.1)))
    assert rep.passes
    assert rep.n0 == 1
    assert rep.margins == pytest.approx((0.6, 0.2, 0.1))


# -- subspace-side condition ------------------------------------------------


def test_subspace_condition_orthogonal_holds():
    chain = coordinate_chain(4, 2, L2)
    d = TargetSequence((1.0, 0.5))
    e3 = np.eye(4)[:, 2]
    rep = check_subspace_condition(chain, d, [e3], k=2)
    assert not rep.counterexample_found
    assert "no counterexample" in rep.verdict
    assert "sampled" in rep.verdict


def test_subspace_condition_flags_member_of_Yk():
    chain = coordinate_chain(4, 2, L2)
    d = TargetSequence((1.0, 0.5))
    q = np.eye(4)[:, 0]  # inside Y_2: rho = 0 but |q| = 1
    rep = check_subspace_condition(chain, d, [q], k=2)
    assert rep.counterexample_found


def test_subspace_condition_ratio_two_violated():
    chain = Chain(2, L2, (Subspace(np.array([[1.0], [0.0]])),))
    d = TargetSequence((1.0, 0.5))  # ratio 2
    rep = check_subspace_condition(chain, d, [np.array([1.0, 0.5])], k=2)
    # |q| = sqrt(1.25) > 2 * rho(q, span{e1}) = 1
    assert rep.counterexample_found


def test_subspace_condition_guards():
    chain = coordinate_chain(4, 2, L2)
    with pytest.raises(ValueError):
        check_subspace_condition(chain, TargetSequence((1.0, 0.5)), [], k=1)
    with pytest.raises(TargetError):
        check_subspace_condition(chain, TargetSequence((1.0, 0.0)), [], k=2)


# -- step vectors ------------------------------------------------------------


def test_normalize_step_coordinate():
    chain = coordinate_chain(3, 2, L2)
    y = normalize_step(chain, 1)
    assert y == pytest.approx(np.eye(3)[:, 1])


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_normalize_step_removes_projection(p):
    norm = NormSpec(p)
    Y1 = Subspace(np.array([[1.0], [0.0]]))
    chain = Chain(2, norm, (Y1,))
    y = normalize_step(chain, 1)  # level 2 is the full plane
    assert abs(y[1]) == pytest.approx(1.0, abs=1e-8)
    assert abs(y[0]) <= 1e-8


def test_normalize_step_contract_random():
    rng = np.random.default_rng(17)
    for p in (1.0, 2.0, math.inf):
        norm = NormSpec(p)
        M = rng.standard_normal((6, 4))
        chain = Chain(6, norm, (Subspace(M[:, :2]), Subspace(M[:, :4])))
        y = normalize_step(chain, 1)
        assert norm_eval(y, norm) == pytest.approx(1.0, abs=1e-9)
        assert rho(y, chain.level(1), norm).value == pytest.approx(1.0, abs=1e-6)
        assert contains(chain.level(2), y, 1e-8)


def test_smallest_root_rules():
    # rho(a e2 + t e2, span{e1}) = |a + t|: level set [-a - 0.5, -a + 0.5]
    Y, e2 = Subspace(np.eye(3)[:, :1]), np.eye(3)[:, 1]
    for a, one_sided, two_sided in (
        (0.3, 0.2, 0.2),
        (-0.3, 0.8, -0.2),
        (0.0, 0.5, 0.5),  # tie: the upper end
        (1.0, -0.5, -0.5),  # set left of 0: its upper end
        (-1.0, 0.5, 0.5),  # set right of 0: its lower end
    ):
        for two, expect in ((False, one_sided), (True, two_sided)):
            t = smallest_root(a * e2, e2, Y, L2, 0.5, two_sided=two).t
            assert t == pytest.approx(expect, abs=1e-15)
    with pytest.raises(ConstructionError, match="below attainable minimum"):
        smallest_root(np.eye(3)[:, 2], e2, Y, L2, 0.5)


# -- interpolating families --------------------------------------------------


def triple(dim=4):
    e = np.eye(dim)
    return Subspace(e[:, :1]), Subspace(e[:, :2]), Subspace(e[:, :3])


def test_family_equal_targets():
    Q1, Q2, Q3 = triple()
    fam = interpolating_family(Q1, Q2, Q3, L2, u=[1.0], v=[1.0])
    q = fam.members[0].q
    assert rho(q, Q1, L2).value == pytest.approx(1.0, abs=1e-6)
    assert rho(q, Q2, L2).value == pytest.approx(1.0, abs=1e-6)
    assert fam.members[0].mu == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("p, dim, seed", [(2.0, 6, 6), (1.2, 5, 8), (1.2, 7, 11), (3.0, 6, 6)])
def test_family_equal_targets_random_basis(p, dim, seed):
    norm = NormSpec(p)
    M = np.random.default_rng(seed).standard_normal((dim, 3))
    Q1, Q2, Q3 = (Subspace(M[:, :k]) for k in (1, 2, 3))
    fam = interpolating_family(Q1, Q2, Q3, norm, u=[1.3, 0.8], v=[1.3, 0.8])
    for member, target in zip(fam.members, (1.3, 0.8)):
        assert rho(member.q, Q1, norm).value == pytest.approx(target, abs=1e-6)
        assert rho(member.q, Q2, norm).value == pytest.approx(target, abs=1e-6)


def test_family_split_targets():
    Q1, Q2, Q3 = triple()
    fam = interpolating_family(Q1, Q2, Q3, L2, u=[1.25], v=[1.0])
    q = fam.members[0].q
    assert rho(q, Q1, L2).value == pytest.approx(1.25, abs=1e-6)
    assert rho(q, Q2, L2).value == pytest.approx(1.0, abs=1e-6)


def test_family_degenerate_v_zero():
    Q1, Q2, Q3 = triple()
    fam = interpolating_family(Q1, Q2, Q3, L2, u=[1.0], v=[0.0])
    q = fam.members[0].q
    assert contains(Q2, q, 1e-8)
    assert rho(q, Q1, L2).value == pytest.approx(1.0, abs=1e-6)


def test_family_validation():
    Q1, Q2, Q3 = triple()
    with pytest.raises(ValueError):
        interpolating_family(Q1, Q2, Q3, L2, u=[0.5], v=[1.0])  # u < v
    with pytest.raises(ValueError):
        interpolating_family(Q2, Q1, Q3, L2, u=[1.0], v=[1.0])  # not nested


def test_lipschitz_check_pairs_and_vacuous():
    Q1, Q2, Q3 = triple()
    fam = interpolating_family(Q1, Q2, Q3, L2, u=[1.25, 1.1], v=[1.0, 1.0])
    rep = lipschitz_check(fam, L2)
    assert rep.passes and rep.pair_count == 1
    # measured difference never exceeds (|z| + 2) * 0.25
    bound = (norm_eval(fam.z, L2) + 2.0) * 0.25
    q0, q1 = fam.members[0].q, fam.members[1].q
    assert norm_eval(q0 - q1, L2) <= bound
    single = interpolating_family(Q1, Q2, Q3, L2, u=[1.0], v=[1.0])
    assert lipschitz_check(single, L2).passes


# -- finite construction -----------------------------------------------------


def test_finite_construct_hilbert_example():
    chain = coordinate_chain(3, 2, L2)
    d = TargetSequence((0.5, 0.2))
    tr = finite_construct(chain, d)
    assert tr.max_residual <= 1e-6
    star = closed_form_witness(d, 3)
    for k in (1, 2):
        assert rho(star, chain.level(k), L2).value == pytest.approx(d.value(k), abs=1e-12)
    assert norm_eval(tr.x, L2) == pytest.approx(norm_eval(star, L2), abs=1e-5)


def test_finite_construct_tied_targets():
    chain = coordinate_chain(5, 3, L2)
    tr = finite_construct(chain, TargetSequence((0.4, 0.4, 0.4)))
    assert tr.max_residual <= 1e-6


def random_chain(seed: int, dim: int, n_levels: int, norm: NormSpec) -> Chain:
    M = np.random.default_rng(seed).standard_normal((dim, n_levels))
    return Chain(dim, norm, tuple(Subspace(M[:, :k]) for k in range(1, n_levels + 1)))


# Tied targets make the target the exact minimum of the root map: the level
# set is one point, which rounding can leave just out of reach.  Coordinate
# chains keep the arithmetic exact; these random bases do not.
@pytest.mark.parametrize(
    "p, dim, seed", [(2.0, 7, 1), (2.0, 7, 2), (1.2, 5, 0), (1.2, 6, 1), (3.0, 7, 1)]
)
def test_finite_construct_tied_targets_random_basis(p, dim, seed):
    chain = random_chain(seed, dim, dim - 2, NormSpec(p))
    tr = finite_construct(chain, TargetSequence((0.7, 0.7, 0.4, 0.4)[: dim - 2]))
    assert tr.max_residual <= 1e-6


@pytest.mark.parametrize("p, seed", [(2.0, 0), (2.0, 5), (3.0, 0)])
def test_construct_prefix_tied_targets_random_basis(p, seed):
    chain = random_chain(seed, 7, 5, NormSpec(p))
    d = TargetSequence((1.0, 0.6, 0.6, 0.3))
    tr = construct_prefix(chain, d, 4, ConstructOptions(tol=1e-8))
    assert tr.max_residual <= 1e-7


def test_finite_construct_all_zero():
    chain = coordinate_chain(3, 2, L2)
    tr = finite_construct(chain, TargetSequence((0.0, 0.0)))
    assert tr.x == pytest.approx(np.zeros(3))
    assert all(r.value == 0.0 for r in tr.achieved)


def test_finite_construct_zero_tail_inside_level():
    chain = coordinate_chain(6, 5, L2)
    tr = finite_construct(chain, TargetSequence((1.0, 0.3, 0.1, 0.0, 0.0)))
    assert tr.max_residual <= 1e-6
    assert contains(chain.level(4), tr.x, 1e-6)  # built inside Y_4


def test_finite_construct_norm_bound():
    chain = coordinate_chain(5, 3, L2)
    d = TargetSequence((0.9, 0.5, 0.1))
    tr = finite_construct(chain, d)
    assert norm_eval(tr.x, L2) <= 0.9 + 1.0 + 1e-6


def test_finite_construct_rejects_geometric_tail():
    chain = coordinate_chain(3, 2, L2)
    with pytest.raises(TargetError):
        finite_construct(chain, TargetSequence((1.0,), tail="geometric", ratio=0.4))


def test_finite_construct_zero_subspace_start():
    # Y_1 = {0}: distance to Y_1 is the norm itself
    levels = (Subspace.zero(3), Subspace(np.eye(3)[:, :1]))
    chain = Chain(3, L2, levels)
    tr = finite_construct(chain, TargetSequence((0.7, 0.2)))
    assert tr.max_residual <= 1e-6
    assert norm_eval(tr.x, L2) == pytest.approx(0.7, abs=1e-6)


@pytest.mark.parametrize("p", [1.0, math.inf, 3.0])
def test_finite_construct_non_hilbert(p):
    norm = NormSpec(p)
    chain = coordinate_chain(5, 3, norm)
    tr = finite_construct(chain, TargetSequence((0.8, 0.45, 0.2)))
    assert tr.max_residual <= 1e-5


# -- schedules ----------------------------------------------------------------


def test_build_schedule_example():
    sched = build_schedule(TargetSequence((1.0, 0.3, 0.1)), 3)
    assert isinstance(sched, BorodinSchedule)
    assert sched.tau == pytest.approx([1.0, 0.7, 0.2])
    assert np.nanmin(sched.u - sched.v) >= 0.0
    assert np.all(sched.v[~np.isnan(sched.v)] == 1.0)


def test_build_schedule_ties_give_zero_tau():
    sched = build_schedule(TargetSequence((0.5, 0.5, 0.5)), 3)
    assert sched.tau[1:] == pytest.approx([0.0, 0.0])
    # u = v = 1 once tau hits 0
    assert sched.u[0, 1] == pytest.approx(1.0)


def test_build_schedule_geometric_third():
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    sched = build_schedule(d, 4)
    assert sched.tau == pytest.approx([1.0, 2.0 / 3.0, 2.0 / 9.0, 2.0 / 27.0])
    for j in range(1, 5):
        for n in range(j, 5):
            expect = 1.0 + sched.tau[n - 1] * 3.0 ** (j - 1) / 2.0**j
            assert sched.u[j - 1, n - 1] == pytest.approx(expect)


def test_build_schedule_rejects_zero_entry():
    with pytest.raises(TargetError):
        build_schedule(TargetSequence((1.0, 0.0)), 2)


# -- prefix and sequence ------------------------------------------------------


def test_construct_prefix_single_level():
    chain = coordinate_chain(3, 1, L2)
    tr = construct_prefix(chain, TargetSequence((0.75,)), 1)
    assert tr.max_residual <= 1e-6
    assert tr.coefficients == pytest.approx((0.75,))


def test_construct_prefix_hilbert_closed_form():
    chain = coordinate_chain(4, 2, L2)
    d = TargetSequence((0.5, 0.2))
    tr = construct_prefix(chain, d, 2)
    assert tr.max_residual <= 1e-6
    # the closed-form witness realizes the same distances analytically
    star = closed_form_witness(d, 4)
    for k in (1, 2):
        assert rho(star, chain.level(k), L2).value == pytest.approx(d.value(k), abs=1e-12)
        assert rho(tr.x, chain.level(k), L2).value == pytest.approx(d.value(k), abs=1e-6)


def test_construct_prefix_zero_tail_reduction():
    chain = coordinate_chain(6, 4, L2)
    tr = construct_prefix(chain, TargetSequence((1.0, 0.4, 0.0, 0.0)), 4)
    assert tr.max_residual <= 1e-6
    assert contains(chain.level(3), tr.x, 1e-6)


def test_construct_prefix_records_bounds():
    chain = coordinate_chain(6, 4, L2)
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    tr = construct_prefix(chain, d, 3)
    assert len(tr.coefficient_bounds) == 3
    assert abs(tr.coefficients[-1] - d.value(3)) <= 1e-12


def test_construct_prefix_solves_each_step_once(monkeypatch):
    # one unit step per level plus the first level's within-Y_1 direction
    calls = []
    real = construct_module.normalize_step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct_module, "normalize_step", counted)
    chain = coordinate_chain(7, 6, NormSpec(1))
    construct_prefix(chain, TargetSequence((1.0,), "geometric", 1.0 / 3.0), 5)
    assert len(calls) == 6


def test_construct_sequence_zero_tail_stabilizes_exactly():
    chain = coordinate_chain(6, 4, L2)
    traces, table = construct_sequence(chain, TargetSequence((1.0, 0.4, 0.0, 0.0)), 4)
    assert not table.failures
    # prefixes 2, 3, 4 coincide once the targets hit zero
    i2 = table.prefixes.index(2)
    assert table.differences[i2, i2 + 1 :] == pytest.approx(0.0, abs=1e-12)


def test_construct_sequence_single_prefix():
    chain = coordinate_chain(3, 1, L2)
    traces, table = construct_sequence(chain, TargetSequence((0.5,)), 1)
    assert table.prefixes == (1,)
    assert table.tail_non_increasing


def test_construct_sequence_geometric_non_increasing():
    chain = coordinate_chain(8, 6, L2)
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    traces, table = construct_sequence(chain, d, 5)
    assert not table.failures
    assert table.tail_non_increasing
    for t in traces:
        assert t.max_residual <= 1e-6


def test_construct_sequence_long_geometric_tail_non_increasing():
    # root noise at the tolerance level used to break the 1e-12 monotonicity check
    d = TargetSequence((1.0,), "geometric", 0.25)
    _, table = construct_sequence(coordinate_chain(18, 16, L2), d, 16, ConstructOptions(tol=1e-8))
    assert not table.failures
    assert table.tail_non_increasing


def test_chain_too_short_reported():
    chain = coordinate_chain(3, 1, L2)
    with pytest.raises(ConstructionError, match="chain too short"):
        finite_construct(chain, TargetSequence((0.5, 0.2, 0.1)))


def certified_levels(tr, chain: Chain) -> int:
    """Check that every certified level's bracket [lower, upper] holds an
    independent rho(x, Y_k); return how many levels are certified."""
    count = 0
    for k, (res, lower) in enumerate(zip(tr.achieved, tr.lower_bounds), start=1):
        if lower is None:
            continue
        fresh = rho(tr.x, chain.level(k), chain.norm).value
        slack = default_tol(chain.norm) * max(1.0, fresh)
        assert lower - slack <= fresh <= res.value + slack
        assert lower <= res.value + 1e-14
        count += 1
    return count


@pytest.mark.parametrize("basis", ["coordinate", "random"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_certified_levels_bracket_rho(p, basis):
    norm = NormSpec(p)
    chain = coordinate_chain(6, 4, norm) if basis == "coordinate" else random_chain(5, 6, 4, norm)
    d = TargetSequence((0.9, 0.5, 0.3, 0.1))
    tr = finite_construct(chain, d)
    # p = 2 re-measures every level in closed form instead
    assert certified_levels(tr, chain) == (0 if p == 2.0 else 4)
    assert (tr.certificate_gap is None) == (p == 2.0)
    pre = construct_prefix(chain, TargetSequence((0.9, 0.5, 0.3)), 3)
    assert certified_levels(pre, chain) == (0 if p == 2.0 else 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_certificate_of_a_tiny_distance(p, seed):
    # rho(x, Y_3) = 1e-8 while |x| = 1: the lower end g(x - w) stays exact
    # where g(x) would cancel
    norm = NormSpec(p)
    chain = random_chain(seed, 8, 3, norm)
    d = TargetSequence((1.0, 0.3, 1e-8))
    tr = finite_construct(chain, d, ConstructOptions(tol=1e-12))
    assert norm_eval(tr.x, norm) == pytest.approx(1.0)
    assert tr.lower_bounds[2] == pytest.approx(1e-8, rel=1e-6)
    assert tr.achieved[2].value == pytest.approx(1e-8, rel=1e-6)
    assert certified_levels(tr, chain) == 3


def test_finite_construct_reuses_its_solves(monkeypatch):
    # 4 unit steps, the top level's rho, and 2 level-set ends for each of the
    # 3 roots; recentres, the trim and the measures reuse those certificates
    import lethargy.distance as distance_module

    calls = []
    linprog = distance_module.linprog
    monkeypatch.setattr(distance_module, "linprog",
                        lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    tr = finite_construct(coordinate_chain(6, 4, NormSpec(1)), TargetSequence((0.9, 0.5, 0.3, 0.1)))
    assert tr.max_residual <= 1e-12
    assert len(calls) == 11


def test_all_zero_targets_measure_every_level():
    # the same levels are measured whether or not any target is positive
    chain = coordinate_chain(3, 1, L2)
    d = TargetSequence((0.0, 0.0))
    traces, _ = construct_sequence(chain, d, 2)
    for tr in (finite_construct(chain, d), construct_prefix(chain, d, 2), traces[-1]):
        assert len(tr.achieved) == 2
        assert tr.x == pytest.approx(np.zeros(3))
    assert len(construct_prefix(chain, TargetSequence((0.5, 0.0)), 2).achieved) == 2


PREFIX_TARGETS = {
    "geometric": TargetSequence((1.0,), "geometric", 1.0 / 3.0),
    "zero-tail": TargetSequence((1.0, 0.4, 0.1, 0.0, 0.0)),
    "tied": TargetSequence((1.0, 0.6, 0.6, 0.3, 0.3)),
}


@pytest.mark.parametrize("targets", sorted(PREFIX_TARGETS))
@pytest.mark.parametrize("basis", ["coordinate", "random"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_prefix_is_last_rung_of_its_ladder(p, basis, targets):
    norm = NormSpec(p)
    chain = coordinate_chain(7, 6, norm) if basis == "coordinate" else random_chain(3, 7, 6, norm)
    d = PREFIX_TARGETS[targets]
    for N in range(1, 6):
        pre = construct_prefix(chain, d, N)
        traces, table = construct_sequence(chain, d, N)
        assert table.prefixes[-1] == N
        last = traces[-1]
        assert np.array_equal(pre.x, last.x)
        assert pre.coefficients == last.coefficients
        assert pre.coefficient_bounds == last.coefficient_bounds


# Criterion 8's chain: l2, Y_k = span{e_1..e_k}, d_k = r^(k-1).  The prefix
# there is exactly the scalar recursion of oracles.l2_prefix_coefficients.


@pytest.mark.parametrize("ratio", [0.1, 0.25, 1.0 / 3.0, 0.4, 0.45])
def test_l2_prefix_matches_its_exact_model(ratio):
    chain = coordinate_chain(12, 10, L2)
    d = TargetSequence((1.0,), tail="geometric", ratio=ratio)
    for N in range(2, 9):
        tr = construct_prefix(chain, d, N, ConstructOptions(tol=1e-8))
        u = build_schedule(d, N).u[:, N - 1]
        model = l2_prefix_coefficients([d.value(j) for j in range(1, N + 1)], u)
        assert np.max(np.abs(np.array(tr.coefficients) - model)) <= 1e-12


def test_criterion_8_bound_is_unreachable_at_level_N_minus_1():
    """|lambda_{N-1}| >= sqrt(d_{N-1}^2 - d_N^2) - mu_N d_N.  Since tau never
    increases, the entries u_n^(N) = 1 + tau_n / (2^N d_N) of every column
    n >= N are at most u_N^(N), so mu_N <= sqrt(u_N^(N)^2 - 1).  That lower
    bound already exceeds the recorded bound d_{N-1} - d_N(1 - 2^(1-N)) for
    N = 4..8: no schedule column meets it."""
    chain = coordinate_chain(12, 10, L2)
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    sched = build_schedule(d, 8)
    for N in range(4, 9):
        dN1, dN = d.value(N - 1), d.value(N)
        u_top = sched.u[N - 1, N - 1]
        assert np.max(sched.u[N - 1, N - 1:]) == u_top
        lower = math.sqrt(dN1**2 - dN**2) - math.sqrt(u_top**2 - 1.0) * dN
        recorded = dN1 - dN * (1.0 - 2.0 ** (1 - N))
        assert lower > recorded
        lam = construct_prefix(chain, d, N, ConstructOptions(tol=1e-8)).coefficients[N - 2]
        assert abs(lam) >= lower - 1e-12
        if N == 4:
            assert (lower, recorded) == pytest.approx((0.0857, 0.0787), abs=5e-5)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_construct_options_reject_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        ConstructOptions(tol=tol)

