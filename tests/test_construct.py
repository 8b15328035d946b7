import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lethargy.construct as construct_module
from lethargy.construct import (
    CoefficientBound,
    ConstructionError,
    ConstructOptions,
    TargetError,
    TargetSequence,
    check_borodin_condition,
    check_subspace_condition,
    construct_prefix,
    construct_sequence,
    finite_construct,
    interpolating_family,
    normalize_step,
    smallest_root,
)
import lethargy.spaces as spaces_module
from lethargy.distance import SolverError, default_tol, rho
from lethargy.scenario import parse_scenario
from lethargy.spaces import (Chain, NormSpec, Subspace, _norms, contains,
                             coordinate_chain, norm_eval, validate_chain)
from oracles import (BorodinSchedule, build_schedule, l2_prefix_coefficients, l2_schedule_mu,
                     l2_vector_coefficients, l2_vector_pass, lipschitz_check)

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
    # the slack is relative: an absolute 1e-15 let 1e-20 < 2e-20 in
    with pytest.raises(TargetError, match="non-increasing"):
        TargetSequence((1e-20, 2e-20))


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


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12, 1e-300])
def test_membership_verdicts_are_scale_free(s):
    # a counterexample to the subspace condition and a vector off Y stay so
    # at every scale; absolute slacks (1e-9, tol * max(1, |x|)) passed both
    # once |q| or |x| fell below them
    chain = coordinate_chain(4, 2, L2)
    d = TargetSequence((1.0, 0.5))
    rep = check_subspace_condition(chain, d, [s * np.array([1.0, 1.0, 0.1, 0.0]),
                                              s * np.eye(4)[:, 2]], k=2)
    assert [sample.holds for sample in rep.samples] == [False, True]
    Y, e = Subspace(np.eye(3)[:, :1]), np.eye(3)
    assert not contains(Y, s * e[:, 1]) and not contains(Y, s * 1e-9 * e[:, 1] + s * e[:, 0])
    assert contains(Y, s * e[:, 0]) and contains(Y, np.zeros(3))


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


def test_normalize_step_needs_a_strictly_larger_level():
    # normalize_step is the one entry point whose chain nothing validates
    Y = Subspace(np.eye(3)[:, :2])
    chain = Chain(3, L2, (Y, Subspace(np.eye(3)[:, 1::-1])))
    with pytest.raises(ConstructionError, match="no direction available above level 1"):
        normalize_step(chain, 1)


def test_smallest_root_rules(monkeypatch):
    # rho(a e2 + t e2, span{e1}) = |a + t| at every p: level set [-a - 0.5, -a + 0.5],
    # and the root is its upper end, from one solve, wherever the set lies
    Y, e2 = Subspace(np.eye(3)[:, :1]), np.eye(3)[:, 1]
    ends = []
    real = construct_module.level_endpoint
    monkeypatch.setattr(construct_module, "level_endpoint",
                        lambda *a, **kw: ends.append(1) or real(*a, **kw))
    for norm in (NormSpec(1), NormSpec(math.inf)):
        for a, upper in (
            (0.3, 0.2),
            (-0.3, 0.8),
            (0.0, 0.5),  # 0 at the centre
            (1.0, -0.5),  # set left of 0: a negative root
            (-1.0, 1.5),  # set right of 0: its far end
            (0.5, 0.0),  # |x| == target: 0 is the upper end
        ):
            ends.clear()
            assert smallest_root(a * e2, e2, Y, norm, 0.5).t == pytest.approx(upper, abs=1e-15)
            assert len(ends) == 1
        with pytest.raises(ConstructionError, match="below attainable minimum"):
            smallest_root(np.eye(3)[:, 2], e2, Y, norm, 0.5)


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


@pytest.mark.parametrize("build", [
    lambda chain, d: finite_construct(chain, d),
    lambda chain, d: construct_prefix(chain, d, 2),
    lambda chain, d: construct_sequence(chain, d, 2),
], ids=["finite", "prefix", "sequence"])
def test_construction_entries_check_the_chains_nesting(build):
    # one check at the entry, naming the chain's own levels (the families
    # inside take the chain as checked); the verdict is cached on the chain
    e = np.eye(4)
    chain = Chain(4, L2, (Subspace(e[:, :1]), Subspace(e[:, 1:3])))
    with pytest.raises(ValueError) as info:
        build(chain, TargetSequence((0.5, 0.2)))
    assert str(info.value) == "nesting hypothesis violated: levels 1 -> 2: not nested"
    assert validate_chain(chain) is validate_chain(chain)


def test_lipschitz_check_pairs_and_vacuous():
    Q1, Q2, Q3 = triple()
    fam = interpolating_family(Q1, Q2, Q3, L2, u=[1.25, 1.1], v=[1.0, 1.0])
    rep = lipschitz_check(fam, [1.25, 1.1], [1.0, 1.0], L2)
    assert rep.passes and rep.pair_count == 1
    # measured difference never exceeds (|z| + 2) * 0.25
    bound = (norm_eval(fam.step_outer + fam.step_inner, L2) + 2.0) * 0.25
    q0, q1 = fam.members[0].q, fam.members[1].q
    assert norm_eval(q0 - q1, L2) <= bound
    single = interpolating_family(Q1, Q2, Q3, L2, u=[1.0], v=[1.0])
    assert lipschitz_check(single, [1.0], [1.0], L2).passes


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


def baseline_corpus(p: float):
    """The general-p corpus: per seed 0..39, levels spanned by the first
    1..5 columns of one 8 x 5 standard normal draw and 5 descending targets
    uniform in [0.05, 1]."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 5))
        d = TargetSequence(tuple(sorted(rng.uniform(0.05, 1.0, 5), reverse=True)))
        yield seed, Chain(8, NormSpec(p), tuple(Subspace(M[:, :k]) for k in range(1, 6))), d


@pytest.mark.parametrize("p", [1.05, 1.1])
def test_baseline_corpus_builds_near_p_1(p):
    # near p = 1 the lp norm is almost an l1 norm; exact certificates keep
    # every level of every chain inside the 10 tol gate
    failures = []
    for seed, chain, d in baseline_corpus(p):
        try:
            finite_construct(chain, d)
        except ConstructionError as err:
            failures.append((seed, str(err)))
    assert not failures


# -- schedules ----------------------------------------------------------------


def test_build_schedule_example():
    sched = build_schedule(TargetSequence((1.0, 0.3, 0.1)), 3)
    assert isinstance(sched, BorodinSchedule)
    assert sched.tau == pytest.approx([1.0, 0.7, 0.2])
    assert np.nanmin(sched.u) >= 1.0  # u >= v = 1


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
    real = construct_module._unit_step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construct_module, "_unit_step", counted)
    chain = coordinate_chain(7, 6, NormSpec(1))
    construct_prefix(chain, TargetSequence((1.0,), "geometric", 1.0 / 3.0), 5)
    assert len(calls) == 6


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_prefix_over_a_zero_first_level(p):
    # Y_1 = {0}: level 1 takes a plain unit step, and rho(x, Y_1) = |x|
    norm = NormSpec(p)
    A = np.random.default_rng(1).standard_normal((6, 3))
    chain = Chain(6, norm, (Subspace.zero(6), *(Subspace(A[:, :k]) for k in (1, 2, 3))))
    d = TargetSequence((1.0,), "geometric", 0.3)
    tr = construct_prefix(chain, d, 4)
    assert tr.max_residual <= 1e-13
    assert norm_eval(tr.x, norm) == pytest.approx(d.value(1), abs=1e-13)
    traces, table = construct_sequence(chain, d, 4)
    assert table.prefixes == (1, 2, 3, 4) and not table.failures
    assert max(t.max_residual for t in traces) <= 1e-13
    assert np.array_equal(traces[-1].x, tr.x)


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


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_ladders_off_p2_stabilize_with_positive_coefficients(p, seed):
    # under tail domination every root is the upper end of its level set,
    # which holds 0: every coefficient is positive and the tail falls
    M = np.random.default_rng(seed).standard_normal((14, 13))
    chain = Chain(14, NormSpec(p), [Subspace(M[:, :k]) for k in range(1, 13)])
    d = TargetSequence((1.0,), "geometric", 0.3)
    traces, table = construct_sequence(chain, d, 12, ConstructOptions(tol=1e-7))
    assert table.failures == () and len(traces) == 12
    assert table.tail_non_increasing
    assert all(lam > 0.0 for t in traces for lam in t.coefficients)


@pytest.mark.parametrize("d1, tol", [(1.0, 1e-7), (1e-13, 1e-20)])
def test_stabilization_verdict_is_scale_free(d1, tol):
    # targets past tail domination (ratio 0.7): the tail rises by 0.126 d_1
    # at the third rung; an absolute 1e-12 slack hid that once d_1 was small
    # enough
    M = np.random.default_rng(4).standard_normal((9, 7))
    chain = Chain(9, NormSpec(math.inf), [Subspace(M[:, :k]) for k in range(1, 8)])
    d = TargetSequence((d1,), "geometric", 0.7)
    _, table = construct_sequence(chain, d, 6, ConstructOptions(tol=tol))
    assert not table.failures
    assert table.max_tail[2] - table.max_tail[1] == pytest.approx(0.12624 * d1, rel=1e-3, abs=0)
    assert not table.tail_non_increasing


def test_chain_too_short_reported():
    chain = coordinate_chain(3, 1, L2)
    with pytest.raises(ConstructionError, match="chain too short"):
        finite_construct(chain, TargetSequence((0.5, 0.2, 0.1)))


def test_zero_tail_reduction_bisects(monkeypatch):
    # the positive targets are d_1..d_Np, so Np is found in about 40 reads of
    # d_n at N = 10^12: for a zero tail, and for a geometric tail that
    # underflows to 0 past n = 1074
    reads = []
    real = TargetSequence.value

    def value(self, n):
        reads.append(n)
        assert len(reads) <= 10**4, "zero-tail reduction scans N"
        return real(self, n)

    monkeypatch.setattr(TargetSequence, "value", value)
    chain = coordinate_chain(4, 2, L2)
    assert construct_module._levels_to_build(chain, TargetSequence((0.5, 0.2)), 10**12) == 2
    with pytest.raises(ConstructionError, match="needs level 1075, chain has 2$"):
        construct_module._levels_to_build(chain, TargetSequence((0.5, 0.2), "geometric", 0.5), 10**12)


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


def counted_lps(monkeypatch) -> list:
    """Every LP solved through distance.linprog from now on, one entry each."""
    import lethargy.distance as distance_module

    calls = []
    linprog = distance_module.linprog
    monkeypatch.setattr(distance_module, "linprog",
                        lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    return calls


def test_finite_construct_reuses_its_solves(monkeypatch):
    # the upper end of each of the 3 roots (the 4 unit steps' rho
    # is a vertex exchange, no LP); the top level scales its step's
    # certificate, and recentres, the trim and the measures reuse the
    # certificates.  A coordinate chain takes no LP.
    d = TargetSequence((0.9, 0.5, 0.3, 0.1))
    calls = counted_lps(monkeypatch)
    tr = finite_construct(random_chain(0, 6, 4, NormSpec(1)), d)
    assert tr.max_residual <= 1e-12
    assert len(calls) == 3
    calls.clear()
    tr = finite_construct(coordinate_chain(6, 4, NormSpec(1)), d)
    assert tr.max_residual <= 1e-12
    assert not calls


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_schedule_modes_solve_counts(monkeypatch, p):
    # the steps take no LP: the 5 unit steps' rho is a vertex exchange, the
    # direction in Y_1 leaves {0} with none, and so do the family roots,
    # level sets on {0}; each rung then solves the upper end of each of its
    # N - 1 roots, and none at its top.  A coordinate chain takes no LP.
    d = TargetSequence((1.0,), "geometric", 1.0 / 3.0)
    calls = counted_lps(monkeypatch)
    chain = random_chain(0, 7, 6, NormSpec(p))
    construct_prefix(chain, d, 5)
    assert len(calls) == 4
    calls.clear()
    _, table = construct_sequence(chain, d, 5)
    assert not table.failures
    assert len(calls) == 0 + 1 + 2 + 3 + 4
    calls.clear()
    chain = coordinate_chain(7, 6, NormSpec(p))
    construct_prefix(chain, d, 5)
    _, table = construct_sequence(chain, d, 5)
    assert not table.failures
    assert not calls


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
        ds = [d.value(j) for j in range(1, N + 1)]
        model = l2_prefix_coefficients(ds, l2_schedule_mu(ds))
        assert np.max(np.abs(np.array(tr.coefficients) - model)) <= 1e-12


def test_l2_ladder_matches_its_exact_model():
    """Criterion 8, part 2: every rung of construct_sequence(chain, d, 9) is
    the model x_N = sum lambda_k (e_{k+1} + mu_k e_k), with the shared
    steps' mu_k = sqrt(w_k (2 + w_k)) from schedule column 9.  The criterion's
    closed form assumes orthogonal steps (mu = 0); the model's max_tail
    exceeds it by 1.86e-6 at N = 1, past the criterion's 1e-6 slack, so the
    steps the schedule takes, not solver error, make part 2 fail."""
    chain = coordinate_chain(12, 10, L2)
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    traces, table = construct_sequence(chain, d, 9, ConstructOptions(tol=1e-8))
    assert table.prefixes == tuple(range(1, 10))
    mu = np.array(l2_schedule_mu([d.value(j) for j in range(1, 10)]), dtype=float)
    models = []
    for N, trace in enumerate(traces, start=1):
        lam = l2_prefix_coefficients([d.value(j) for j in range(1, N + 1)], mu[:N])
        x = np.zeros(12)
        x[1:N + 1] += lam
        x[:N] += np.multiply(lam, mu[:N])
        assert np.max(np.abs(trace.x - x)) <= 1e-14
        models.append(x)
    tails = [max(np.linalg.norm(x - y) for y in models[i + 1:]) for i, x in enumerate(models[:-1])]
    assert np.max(np.abs(np.subtract(table.max_tail[:-1], tails))) <= 1e-16
    excess = []
    for N, tail in enumerate(tails[:3], start=1):
        dN, dN1 = d.value(N), d.value(N + 1)
        closed_form = math.sqrt((dN - math.sqrt(dN * dN - dN1 * dN1)) ** 2 + dN1 * dN1)
        excess.append(tail - closed_form)
    assert excess == pytest.approx([1.86e-6, 2.99e-10, 7.24e-14], rel=0.01)


@pytest.mark.parametrize("kind", ["coordinate", "random"])
@pytest.mark.parametrize("ratio", [0.3, 0.45])
def test_prefix_steps_take_mu_from_the_schedule_gap(ratio, kind):
    # mu_j = sqrt(w_j (2 + w_j)), not sqrt(u^2 - 1) from the rounded u = 1 + w_j:
    # w_1 is about 1e-12 at N = 24, where u kept 4 digits of it and lambda
    # moved by up to 1.3e-11 off the exact model.
    d = TargetSequence((1.0,), tail="geometric", ratio=ratio)
    for N in (9, 16, 24, 100):
        if kind == "coordinate":
            chain = coordinate_chain(N + 2, N + 1, L2)
        else:
            chain = random_chain(N, N + 3, N + 1, L2)
        ds = [d.value(j) for j in range(1, N + 1)]
        model = l2_prefix_coefficients(ds, l2_schedule_mu(ds))
        lam = construct_prefix(chain, d, N, ConstructOptions(tol=1e-8)).coefficients
        assert np.max(np.abs(np.subtract(lam, model))) <= 1e-15


def l2_draw(seed: int, ranks, mode: str, scale: float):
    """A random explicit p = 2 chain of the given level ranks ({0} for rank
    0) with targets for mode: zero-tail targets, one of them tied and some
    zeros, for finite; a geometric tail for sequence."""
    rng = np.random.default_rng(seed)
    m = ranks[-1] + 2
    A = rng.standard_normal((m, ranks[-1]))
    chain = Chain(m, L2, tuple(Subspace(A[:, :r]) if r else Subspace.zero(m) for r in ranks))
    vals = sorted(rng.uniform(0.05, 1.0, len(ranks)), reverse=True)
    if mode == "finite":
        vals[1] = vals[0]
        zeros = seed % 3
        vals[len(vals) - zeros:] = [0.0] * zeros
        return chain, TargetSequence(tuple(scale * v for v in vals))
    ratio = float(rng.uniform(0.2, 0.45))
    return chain, TargetSequence((scale * vals[0],), tail="geometric", ratio=ratio)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([(1, 3, 4, 5), (0, 1, 2, 4), (2, 3, 5, 6, 7), (0, 2, 3)]),
       st.sampled_from(["finite", "sequence"]),
       st.sampled_from([1.0, 1e-7, 1e5, 1e-160, 1e300]))
def test_l2_coefficients_match_the_vector_pass(seed, ranks, mode, scale):
    # the closed form against the projections it replaces (oracles.l2_vector_pass),
    # over rank jumps above 1, chains from {0}, ties and zero tails
    chain, d = l2_draw(seed, ranks, mode, scale)
    opts = ConstructOptions(tol=1e-10 * scale)

    def run():
        if mode == "finite":
            try:
                return [finite_construct(chain, d, opts)], ()
            except ConstructionError as exc:
                return [], ((len(d), str(exc)),)
        traces, table = construct_sequence(chain, d, len(ranks), opts)
        return traces, table.failures
    traces, failures = run()
    steps = construct_module._prefix_steps(chain, d, len(ranks), recentre=mode == "finite")
    with mock.patch.object(construct_module, "_l2_coefficients",
                           l2_vector_coefficients(chain, steps, mode == "finite")):
        reference, ref_failures = run()
    assert [n for n, _ in failures] == [n for n, _ in ref_failures]
    for trace, ref in zip(traces, reference, strict=True):
        lam_gap = np.abs(np.subtract(trace.coefficients, ref.coefficients))
        assert np.max(lam_gap, initial=0.0) <= 1e-12 * scale
        assert np.max(np.abs(trace.x - ref.x)) <= 1e-12 * scale


def test_l2_coefficients_take_a_tangent_set_as_its_point():
    # a level set empty by less than rho's accuracy is the point t_min, as
    # level_endpoint takes it on the vector path; beyond that, it is empty
    # (schedule steps, mu = 1/4 and 1/2; finite steps, mu = 0)
    chain = coordinate_chain(4, 3, L2)
    e = np.eye(4)
    for mu, recentre in (((0.25, 0.5), False), ((0.0, 0.0), True)):
        steps = [(e[:, 1] + mu[0] * e[:, 0], mu[0]), (e[:, 2] + mu[1] * e[:, 1], mu[1])]
        for gap in (1e-12, 1e-8):
            args = list(mu), [1.0, 1.0 + gap], [2]
            runs = construct_module._l2_coefficients, l2_vector_coefficients(chain, steps, recentre)
            if gap > 1e-10:
                for run in runs:
                    [err] = run(*args)
                    assert isinstance(err, ConstructionError)
                    assert "below attainable minimum" in str(err)
                continue
            [lam], [ref_lam] = (run(*args) for run in runs)
            assert lam == pytest.approx(ref_lam, abs=1e-15) and lam[0] == -mu[1] * (1.0 + gap)
            ref_x = l2_vector_pass(chain, steps, args[1], recentre)[0]
            assert np.max(np.abs(np.asarray(lam) @ np.array([q for q, _ in steps]) - ref_x)) <= 1e-15


@pytest.mark.parametrize("eps", [1e-13, 1e-11])
def test_loosely_nested_chain_keeps_its_residuals(eps):
    # levels nested only to about eps: the scalar pass assumes the steps'
    # frame, the measure at the final x does not, so the residuals stay
    # those of the projections (1.46 eps and 1.13 eps with them)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 6))
    chain = Chain(8, L2, tuple(Subspace(A[:, :k] + eps * rng.standard_normal((8, k)))
                               for k in range(1, 7)))
    opts = ConstructOptions(tol=1e-9)
    traces, table = construct_sequence(chain, TargetSequence((1.0,), tail="geometric", ratio=0.3),
                                       6, opts)
    assert table.failures == () and max(t.max_residual for t in traces) <= 1.5 * eps
    trace = finite_construct(chain, TargetSequence((1.0, 0.6, 0.35, 0.2, 0.1, 0.05)), opts)
    assert trace.max_residual <= 1.2 * eps


def test_l2_constructions_solve_no_level_set(monkeypatch):
    # the p = 2 constructions and families run on scalars: no root solve
    def forbidden(*args, **kwargs):
        raise AssertionError("a p = 2 construction called a vector root solve")
    for name in ("smallest_root", "level_endpoint"):
        monkeypatch.setattr(construct_module, name, forbidden)
    for chain in (coordinate_chain(8, 6, L2), random_chain(4, 8, 6, L2)):
        finite_construct(chain, TargetSequence((1.0, 0.6, 0.6, 0.2, 0.0)))
        construct_prefix(chain, TargetSequence((1.0,), tail="geometric", ratio=0.3), 5)
        construct_sequence(chain, TargetSequence((1.0,), tail="geometric", ratio=0.3), 5)
        Q1, Q2, Q3 = (chain.level(k) for k in (1, 2, 3))
        interpolating_family(Q1, Q2, Q3, L2, [1.3, 1.0, 0.5], [1.0, 1.0, 0.0])


def l2_ladder_doc(A: np.ndarray, ratio: float, tol: float) -> dict:
    """A p = 2 ladder scenario on explicit levels Y_k = span of A's first k
    columns, written as the benchmark writes them: each level's vector list
    extends the one below."""
    m, n = A.shape
    return {"version": "1", "ambient_dim": m, "norm_p": 2, "mode": "sequence", "N_max": n,
            "tolerance": tol, "targets": {"values": [1.0], "tail": "geometric", "ratio": ratio},
            "chain": {"levels": [A[:, :k].T.tolist() for k in range(1, n + 1)]}}


@pytest.mark.parametrize("seed", range(20))
def test_frame_path_equals_the_per_level_path(seed):
    # the parsed chain is one flag frame (one QR, steps read off it, one
    # product per rung); the same spans as separately factored levels take
    # the per-level path (unit steps solved, levels measured by projection)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 20))
    A = rng.standard_normal((n + int(rng.integers(1, 5)), n))
    scn = parse_scenario(l2_ladder_doc(A, 0.3, 1e-8))
    per_level = Chain(A.shape[0], L2, [Subspace(A[:, :k]) for k in range(1, n + 1)])
    assert scn.chain._frame is not None and per_level._frame is None
    opts = ConstructOptions(tol=1e-8)
    (frame, t1), (level, t2) = (construct_sequence(c, scn.targets, n, opts)
                                for c in (scn.chain, per_level))
    assert t1.failures == t2.failures == () and len(frame) == len(level) == n
    d1 = scn.targets.value(1)
    for a, b in zip(frame, level):
        assert max(abs(r.value - s.value) for r, s in zip(a.achieved, b.achieved)) <= 1e-15 * d1
        assert np.max(np.abs(a.x - b.x)) <= 1e-15


def trace_arrays(trace):
    """The arrays a trace holds: x, and each level's witness and dual direction."""
    return [trace.x, *(a for r in trace.achieved for a in (r.witness_coeffs, r.dual_direction)
                       if a is not None)]


def test_rungs_past_the_last_positive_target_reuse_its_pass():
    # a zero tail: every rung past Np = 3 builds the same 3 levels, so it
    # takes rung Np's pass (no further root) and its x bit for bit, in arrays
    # of its own; only the measure reaches its further, contained levels
    chain = random_chain(2, 7, 5, NormSpec(1.0))
    d = TargetSequence((1.0, 0.55, 0.2))
    runs = []
    for N_max in (3, 13):
        with mock.patch.object(construct_module, "smallest_root",
                               wraps=construct_module.smallest_root) as root:
            runs.append((construct_sequence(chain, d, N_max), root.call_count))
    ((short, _), few), ((traces, table), many) = runs
    assert few == many > 0 and table.prefixes == tuple(range(1, 14))
    assert [t.coefficients for t in traces[:3]] == [t.coefficients for t in short]
    for N, t in enumerate(traces[3:], start=4):
        assert np.array_equal(t.x, traces[2].x) and t.coefficients == traces[2].coefficients
        assert len(t.achieved) == min(N, len(chain.levels) + 1)
    assert not table.differences[2:, 2:].any() and table.max_tail[2:] == (0.0,) * 11
    assert_no_shared_memory(traces)


def assert_no_shared_memory(traces):
    """No array a trace holds shares memory with one of another trace, so a
    caller writing into one trace leaves every other as it was."""
    for i, a in enumerate(traces):
        for b in traces[i + 1:]:
            assert not any(np.shares_memory(u, v) for u in trace_arrays(a) for v in trace_arrays(b))


L2_LADDERS = {  # targets and N_max: a geometric tail, and a zero tail past Np = 4
    "geometric": (TargetSequence((1.0,), tail="geometric", ratio=0.3), 6),
    "zero-tail": (TargetSequence((1.0, 0.45, 0.2, 0.08)), 7),
}


@pytest.mark.parametrize("targets", sorted(L2_LADDERS))
@pytest.mark.parametrize("basis", ["coordinate", "frame", "svd"])
def test_l2_records_built_on_read_are_the_eager_ones(basis, targets):
    # at p = 2 every record is built on first read and is, bit for bit, the
    # one the eager loop built from the single measure of all the rungs' x
    # (_l2_measure over their rows): the closed form up to each rung's n,
    # then the contained levels past Np at rho 0, certified by 0.  Bounds are
    # CoefficientBound(k, lambda_k, b_k, |lambda_k| <= b_k), and each record
    # is one tuple on every read.  Chains: a coordinate frame, an ingested
    # (one-QR) frame and separately SVD-factored levels (no frame).
    A = np.random.default_rng(7).standard_normal((9, 6))
    chain = {"coordinate": coordinate_chain(9, 6, L2),
             "frame": parse_scenario(l2_ladder_doc(A, 0.3, 1e-8)).chain,
             "svd": Chain(9, L2, tuple(Subspace(A[:, :k]) for k in range(1, 7)))}[basis]
    assert (chain._frame is None) == (basis == "svd")
    (d, N_max), opts = L2_LADDERS[targets], ConstructOptions(tol=1e-8)
    traces, table = construct_sequence(chain, d, N_max, opts)
    assert table.failures == () and len(traces) == N_max
    ns = [len(t.coefficients) for t in traces]
    assert ns == [min(N, 4 if targets == "zero-tail" else 6) for N in range(1, N_max + 1)]
    l2, V = construct_module._l2_measure(chain, np.array([t.x for t in traces]), max(ns))
    for i, (t, n) in enumerate(zip(traces, ns)):
        assert t.achieved is t.achieved and len(t.achieved) == i + 1
        for k, (r, lower, residual) in enumerate(zip(t.achieved, t.lower_bounds, t.residuals, strict=True)):
            Y = chain.level(k + 1)
            if k < n:
                (C, R), v = l2[k], V[i, k]
                assert (r.value, r.solver, lower) == (v, "closed_form_l2", None) and type(r.value) is float
                assert np.array_equal(r.witness_coeffs, C[i]) and np.array_equal(r.dual_direction, R[i])
                assert r.value == pytest.approx(rho(t.x, Y, L2).value, rel=1e-14, abs=1e-15)
            else:
                assert (r.value, r.solver, r.dual_direction, lower) == (0.0, "contained", None, 0.0)
                assert np.array_equal(r.witness_coeffs, Y.basis.T @ t.x)
            assert residual == abs(r.value - d.value(k + 1))
        b = [d.value(k) - d.value(k + 1) * (1.0 - 2.0**-k) + opts.tol for k in range(1, n)]
        expected = tuple(CoefficientBound(k, lam, bk, abs(lam) <= bk)
                         for k, (lam, bk) in enumerate(zip(t.coefficients, b + [d.value(n) + opts.tol]), 1))
        assert t.coefficient_bounds is t.coefficient_bounds and t.coefficient_bounds == expected
    assert_no_shared_memory(traces)
    # a trace pickles with its records built, as its thunk would not
    fresh, _ = construct_sequence(chain, d, N_max, opts)
    restored = pickle.loads(pickle.dumps(fresh[-1]))
    assert isinstance(restored._records, tuple) and np.array_equal(restored.x, traces[-1].x)
    for r, s in zip(restored.achieved, traces[-1].achieved, strict=True):
        assert (r.value, r.solver) == (s.value, s.solver) and np.array_equal(r.witness_coeffs, s.witness_coeffs)
    assert restored.coefficient_bounds == traces[-1].coefficient_bounds


@pytest.mark.parametrize("basis", ["coordinate", "explicit"])
def test_l2_ladder_scales_exactly(basis):
    # targets and tolerance times 2^+-500: x, the coefficients, every measured
    # level (frame product, cumulative residuals, their norms in power-of-two
    # units) and the difference table scale exactly, with no warning
    A = np.random.default_rng(11).standard_normal((10, 8))
    chain = (coordinate_chain(10, 8, L2) if basis == "coordinate"
             else parse_scenario(l2_ladder_doc(A, 0.3, 1e-8)).chain)
    assert chain._frame is not None

    def ladder(s):
        d = TargetSequence((s,), tail="geometric", ratio=0.3)
        return construct_sequence(chain, d, 8, ConstructOptions(tol=1e-9 * s))
    ref, ref_table = ladder(1.0)
    assert ref_table.failures == ()
    for s in (2.0**500, 2.0**-500):
        traces, table = ladder(s)
        assert table.prefixes == ref_table.prefixes
        assert np.array_equal(table.differences, s * ref_table.differences)
        assert table.max_tail == tuple(s * v for v in ref_table.max_tail)
        for t, r in zip(traces, ref, strict=True):
            assert np.array_equal(t.x, s * r.x)
            assert t.coefficients == tuple(s * c for c in r.coefficients)
            assert t.residuals == tuple(s * v for v in r.residuals)
            for a, b in zip(t.achieved, r.achieved, strict=True):
                assert a.value == s * b.value and np.array_equal(a.witness_coeffs, s * b.witness_coeffs)
                assert a.dual_direction is None or np.array_equal(a.dual_direction, s * b.dual_direction)


def test_frame_chain_solves_only_its_top_step(monkeypatch):
    # at p = 2 a step out of a level whose basis the next one extends is
    # that basis's next column, and a flag frame measures every level from
    # F^T x: no rho on the coordinate chain, whose top level the identity
    # basis of R^m extends, and one, out of the rank-6 top level into R^m,
    # on the ingested chain, whose QR frame R^m's basis does not extend
    ranks = []
    real = construct_module._rho
    monkeypatch.setattr(construct_module, "_rho",
                        lambda x, Y, norm: ranks.append(Y.rank) or real(x, Y, norm))
    A = np.random.default_rng(5).standard_normal((9, 6))
    d = TargetSequence((1.0,), tail="geometric", ratio=0.3)
    for chain, solved in ((coordinate_chain(9, 6, L2), []),
                          (parse_scenario(l2_ladder_doc(A, 0.3, 1e-8)).chain, [6])):
        ranks.clear()
        construct_sequence(chain, d, 6)
        assert ranks == solved


def test_each_level_pair_is_compared_once(monkeypatch):
    # the nesting check, the p = 2 frame and the unit steps read one
    # comparison per adjacent pair, cached on the chain; the step above the
    # top level reads its basis against the identity's, building no full space
    calls = []
    real = spaces_module._extends
    monkeypatch.setattr(spaces_module, "_extends", lambda lo, hi: calls.append((lo.rank, hi.rank)) or real(lo, hi))
    d = TargetSequence((1.0,), tail="geometric", ratio=0.3)
    chain = coordinate_chain(9, 6, L2)
    construct_sequence(chain, d, 5)
    assert chain._frame is not None and validate_chain(chain).passes
    assert calls == [(k, k + 1) for k in range(1, 6)]
    calls.clear()
    chain = coordinate_chain(9, 6, L2)
    construct_sequence(chain, d, 6)
    assert calls == [(k, k + 1) for k in range(1, 6)]
    assert chain._extends_at(6) and not random_chain(0, 9, 6, L2)._extends_at(6)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_stabilization_table_mirrors_one_triangle(p):
    # the table measures |x_N - x_M| for N < M and mirrors it: the same bits
    # as the full matrix of differences
    chain = random_chain(5, 9, 7, NormSpec(p))
    traces, table = construct_sequence(chain, TargetSequence((1.0,), "geometric", 0.35), 7)
    assert not table.failures
    X = np.array([t.x for t in traces])
    assert np.array_equal(table.differences, _norms(X[:, None, :] - X[None, :, :], p))


def test_ingested_ladder_is_nested_without_a_residual(monkeypatch):
    # the p = 2 frame's levels extend each other: nested by construction
    calls = []
    real = Subspace.residual
    monkeypatch.setattr(Subspace, "residual", lambda Y, x: calls.append(Y.rank) or real(Y, x))
    A = np.random.default_rng(3).standard_normal((12, 9))
    chain = parse_scenario(l2_ladder_doc(A, 0.3, 1e-8)).chain
    assert chain._frame is not None and validate_chain(chain).passes
    assert calls == []


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_prefix_is_continuous_in_the_basis(p):
    # bases 1e-15 apart: the step out of {0} is Y_1's first basis column, not
    # the column of largest residual, where rounding picks among norms all 1.
    # p = inf is left out: x moves by 2.33 there with the LP's choice of
    # vertex (ROADMAP items 3 and 12)
    A = np.random.default_rng(1).standard_normal((8, 5))
    d = TargetSequence((1.0,), "geometric", 1.0 / 3.0)
    xs = []
    for seed in range(60):
        E = A * (1.0 + 1e-15 * np.random.default_rng(seed).standard_normal(A.shape))
        chain = Chain(8, NormSpec(p), tuple(Subspace(E[:, :k]) for k in (2, 3, 4, 5)))
        xs.append(construct_prefix(chain, d, 4).x)
    assert max(np.max(np.abs(x - xs[0])) for x in xs) <= 1e-12


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



def test_a_pass_that_raises_fails_its_rung_alone():
    # off p = 2 the pass for n = 4 is the only one to solve level 3; a solver
    # error there fails rung 4 with the solver's message, every other rung
    # builds as in the unpatched ladder, and construct_prefix raises it
    chain = random_chain(2, 7, 5, NormSpec(1.0))
    d = TargetSequence((1.0,), tail="geometric", ratio=0.3)
    full, full_table = construct_sequence(chain, d, 4)
    real = construct_module.smallest_root

    def root(x, q, Y, *args, **kwargs):
        if Y is chain.level(3):
            raise SolverError("level-set linear program failed: injected")
        return real(x, q, Y, *args, **kwargs)
    with mock.patch.object(construct_module, "smallest_root", root):
        traces, table = construct_sequence(chain, d, 4)
        with pytest.raises(SolverError, match="^level-set linear program failed: injected$"):
            construct_prefix(chain, d, 4)
    assert table.failures == ((4, "level-set linear program failed: injected"),)
    assert table.prefixes == (1, 2, 3) and len(traces) == 3
    for t, ref in zip(traces, full):
        assert np.array_equal(t.x, ref.x) and t.coefficients == ref.coefficients
    assert np.array_equal(table.differences, full_table.differences[:3, :3])


def test_an_l2_rung_whose_coefficients_fail_is_left_out():
    # at p = 2 an error in place of rung 2's coefficients fails that rung
    # alone: the table spans the other rungs' distinct passes (n = 1 and 3,
    # rungs 4 and 5 repeating rung 3's x), and construct_prefix raises it
    chain = random_chain(4, 8, 6, L2)
    d = TargetSequence((1.0, 0.5, 0.2))
    full, full_table = construct_sequence(chain, d, 5)
    real = construct_module._l2_coefficients
    error = ConstructionError("injected failure of rung 2")

    def coefficients(mus, ds, ns):
        return [error if n == 2 else lam for n, lam in zip(ns, real(mus, ds, ns))]
    with mock.patch.object(construct_module, "_l2_coefficients", coefficients):
        traces, table = construct_sequence(chain, d, 5)
        with pytest.raises(ConstructionError) as exc:
            construct_prefix(chain, d, 2)
    assert exc.value is error
    assert table.failures == ((2, "injected failure of rung 2"),) and table.prefixes == (1, 3, 4, 5)
    kept = [0, 2, 3, 4]
    for t, ref in zip(traces, [full[i] for i in kept], strict=True):
        assert np.array_equal(t.x, ref.x) and t.coefficients == ref.coefficients
    assert np.array_equal(table.differences, full_table.differences[np.ix_(kept, kept)])
    assert table.max_tail == tuple(np.triu(table.differences, 1).max(axis=1, initial=0.0).tolist())
