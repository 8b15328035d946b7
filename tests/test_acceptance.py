"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion before
asserting, so the verdicts survive in captured output either way.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from lethargy import cli
from lethargy.construct import (
    ConstructOptions,
    TargetSequence,
    check_borodin_condition,
    construct_prefix,
    construct_sequence,
    finite_construct,
    interpolating_family,
)
from lethargy.distance import default_tol, rho
from lethargy.functionals import limit_expression, limit_value, norming_functional
from lethargy.scenario import emit_machine, load_scenario, parse_report, run
from lethargy.spaces import NormSpec, Subspace, coordinate_chain, norm_eval
from oracles import kernel_distance_identity_check, lipschitz_check, rho_vertex_oracle


def verdict(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


def strictly_decreasing_targets(rng, n, lo=0.01, hi=1.0):
    vals = np.sort(rng.uniform(lo, hi, n))[::-1]
    while np.any(np.diff(vals) >= -1e-4):  # enforce genuine strict gaps
        vals = np.sort(rng.uniform(lo, hi, n))[::-1]
    return TargetSequence(tuple(vals))


def closed_form_witness(d, dim):
    vals = list(d.values) + [0.0]
    x = np.zeros(dim)
    for k in range(len(d)):
        x[k + 1] = math.sqrt(max(vals[k] ** 2 - vals[k + 1] ** 2, 0.0))
    return x


@functools.lru_cache(maxsize=1)
def hilbert_instances():
    """Criterion 1 corpus: (chain, d, trace) with elapsed seconds."""
    rng = np.random.default_rng(101)
    out = []
    t0 = time.perf_counter()
    for _ in range(100):
        dim = int(rng.integers(3, 17))
        n = int(rng.integers(1, min(8, dim - 1) + 1))
        chain = coordinate_chain(dim, n, NormSpec(2))
        d = strictly_decreasing_targets(rng, n)
        out.append((chain, d, finite_construct(chain, d)))
    return out, time.perf_counter() - t0


@functools.lru_cache(maxsize=1)
def non_hilbert_instances():
    """Criterion 2 corpus for p in {1, inf}."""
    rng = np.random.default_rng(202)
    out = []
    t0 = time.perf_counter()
    for i in range(50):
        p = 1.0 if i % 2 == 0 else math.inf
        norm = NormSpec(p)
        dim = int(rng.integers(3, 9))
        n = int(rng.integers(1, min(5, dim - 1) + 1))
        chain = coordinate_chain(dim, n, norm)
        d = strictly_decreasing_targets(rng, n)
        out.append((chain, d, finite_construct(chain, d)))
    return out, time.perf_counter() - t0


def test_criterion_1_hilbert_oracle_equivalence():
    instances, elapsed = hilbert_instances()
    worst = 0.0
    worst_oracle = 0.0
    for chain, d, tr in instances:
        worst = max(worst, tr.max_residual)
        star = closed_form_witness(d, chain.ambient_dim)
        for k in range(1, len(d) + 1):
            # the closed-form witness realizes d_k analytically; the solver
            # must agree with that analytic value
            worst_oracle = max(
                worst_oracle, abs(rho(star, chain.level(k), chain.norm).value - d.value(k))
            )
    ok = worst <= 1e-6 and worst_oracle <= 1e-8 and elapsed < 5.0
    assert verdict(
        1, "Hilbert oracle equivalence", ok,
        f"max residual {worst:.2e}, oracle gap {worst_oracle:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_non_hilbert_construction():
    instances, elapsed = non_hilbert_instances()
    worst = max(tr.max_residual for _, _, tr in instances)
    worst_lp = 0.0
    for chain, d, tr in instances:
        for k in range(1, len(d) + 1):
            # the exact vertex oracle shares no code with the LP solver
            Y = chain.level(k)
            v = rho(tr.x, Y, chain.norm).value
            worst_lp = max(worst_lp, abs(v - rho_vertex_oracle(tr.x, Y, chain.norm)))
    ok = worst <= 1e-5 and worst_lp <= 1e-12 and elapsed < 30.0
    assert verdict(
        2, "non-Hilbert construction", ok,
        f"max residual {worst:.2e}, LP-vs-oracle {worst_lp:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_norm_bound():
    h, _ = hilbert_instances()
    nh, _ = non_hilbert_instances()
    worst_excess = -math.inf
    for chain, d, tr in h + nh:
        excess = norm_eval(tr.x, chain.norm) - (d.value(1) + 1.0)
        worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-6
    assert verdict(3, "norm bound |x| <= d_1 + 1", ok, f"worst excess {worst_excess:.2e}")


def test_criterion_4_borodin_exactness():
    half = check_borodin_condition(
        TargetSequence((0.5, 0.25, 0.125, 0.0625), tail="geometric", ratio=0.5)
    )
    ok = not half.passes and all(abs(m) <= 1e-15 for m in half.margins)
    detail = [f"r=1/2 margins max {max(abs(m) for m in half.margins):.1e}"]
    for eps in (0.1, 0.5, 1.0):
        r = 1.0 / (2.0 + eps)
        d1 = 1.0 / (2.0 + eps)
        d = TargetSequence((d1, d1 * r, d1 * r * r), tail="geometric", ratio=r)
        rep = check_borodin_condition(d)
        factor = 1.0 - r / (1.0 - r)
        margins_ok = all(
            abs(m - d.value(n) * factor) <= 1e-12 for n, m in enumerate(rep.margins, start=1)
        )
        ok = ok and rep.passes and margins_ok
        detail.append(f"eps={eps} pass={rep.passes}")
    assert verdict(4, "tail-domination checker exactness", ok, "; ".join(detail))


def test_criterion_5_norming_functional_contract():
    rng = np.random.default_rng(303)
    norm = NormSpec(2)
    worst_q = worst_x1 = worst_norm = 0.0
    kernel_ok = True
    count = 0
    while count < 100:
        dim = int(rng.integers(2, 11))
        r = int(rng.integers(0, dim - 1))
        Q = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
        x1 = rng.standard_normal(dim)
        if rho(x1, Q, norm).value < 1e-3:
            continue
        count += 1
        f = norming_functional(x1, Q, norm)
        if Q.rank:
            worst_q = max(worst_q, max(abs(f(Q.basis[:, j])) for j in range(Q.rank)))
        worst_x1 = max(worst_x1, abs(f(x1) - 1.0))
        worst_norm = max(worst_norm, abs(f.dual_norm_value * rho(x1, Q, norm).value - 1.0))
        for _ in range(3):
            kernel_ok = kernel_ok and kernel_distance_identity_check(
                f, rng.standard_normal(dim), norm, 1e-6
            )
    ok = worst_q <= 1e-8 and worst_x1 <= 1e-8 and worst_norm <= 1e-6 and kernel_ok
    assert verdict(
        5, "norming functional contract", ok,
        f"f|Q {worst_q:.1e}, f(x1)-1 {worst_x1:.1e}, |f|rho-1 {worst_norm:.1e}, kernel {kernel_ok}",
    )


def test_criterion_6_limit_formula():
    rng = np.random.default_rng(404)
    norm = NormSpec(2)
    mono_ok = bounded_ok = True
    count = 0
    while count < 100:
        dim = int(rng.integers(2, 8))
        r = int(rng.integers(0, dim - 1))
        Q = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
        x1 = rng.standard_normal(dim)
        x2 = rng.standard_normal(dim)
        rho1 = rho(x1, Q, norm).value
        if rho1 < 1e-3:
            continue
        count += 1
        bound = rho(x2, Q, norm).value / rho1
        grid = np.sort(rng.uniform(0.0, 50.0, 6))
        vals = [limit_expression(x2, x1, Q, norm, a) for a in grid]
        mono_ok = mono_ok and all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
        bounded_ok = bounded_ok and all(abs(v) <= bound + 1e-8 for v in vals)
    # closed-form families: collinear (limit = c) and orthogonal (limit = 0)
    closed_ok = True
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        r = int(rng.integers(0, dim - 1))
        Q = Subspace(rng.standard_normal((dim, r))) if r else Subspace.zero(dim)
        x1 = Q.residual(rng.standard_normal(dim))
        if np.linalg.norm(x1) < 1e-3:
            continue
        c = float(rng.uniform(-3.0, 3.0))
        q = Q.basis @ rng.uniform(-2, 2, r) if r else np.zeros(dim)
        closed_ok = closed_ok and abs(limit_value(c * x1 + q, x1, Q, norm) - c) <= 1e-6
        # orthogonal family: x2 perpendicular to both x1 and Q
        span = Subspace(np.column_stack([Q.basis, x1]) if r else x1[:, None])
        x2 = span.residual(rng.standard_normal(dim))
        if np.linalg.norm(x2) > 1e-3:
            closed_ok = closed_ok and abs(limit_value(x2, x1, Q, norm)) <= 1e-6
    ok = mono_ok and bounded_ok and closed_ok
    assert verdict(
        6, "limit formula", ok,
        f"monotone {mono_ok}, bounded {bounded_ok}, closed forms {closed_ok}",
    )


def test_criterion_7_interpolating_family():
    rng = np.random.default_rng(505)
    worst_resid = 0.0
    worst_slack = math.inf
    for i in range(50):
        p = [1.0, 2.0, math.inf][i % 3]
        norm = NormSpec(p)
        dim = int(rng.integers(4, 8))
        r1 = int(rng.integers(0, dim - 2))
        r2 = int(rng.integers(r1 + 1, dim - 1))
        r3 = int(rng.integers(r2 + 1, dim))
        M = rng.standard_normal((dim, r3))
        Q3 = Subspace(M)
        Q2 = Subspace(M[:, :r2])
        Q1 = Subspace(M[:, :r1]) if r1 else Subspace.zero(dim)
        n_m = int(rng.integers(2, 4))
        v = rng.uniform(0.3, 1.0, n_m)
        u = v + rng.uniform(0.4, 1.2, n_m)
        fam = interpolating_family(Q1, Q2, Q3, norm, u=list(u), v=list(v))
        for member, um, vm in zip(fam.members, u, v):
            worst_resid = max(
                worst_resid,
                abs(rho(member.q, Q1, norm).value - um),
                abs(rho(member.q, Q2, norm).value - vm),
            )
        worst_slack = min(worst_slack, lipschitz_check(fam, u, v, norm).worst_slack)
    ok = worst_resid <= 1e-5 and worst_slack >= 0.0
    assert verdict(
        7, "interpolating family", ok,
        f"max distance error {worst_resid:.2e}, min Lipschitz slack {worst_slack:.2e}",
    )


def test_criterion_8_prefix_bounds_and_stabilization():
    chain = coordinate_chain(12, 10, NormSpec(2))
    d = TargetSequence((1.0,), tail="geometric", ratio=1.0 / 3.0)
    opts = ConstructOptions(tol=1e-8)
    # part 1: per-level coefficient bounds on prefixes up to N = 8
    violations = []
    for N in range(2, 9):
        tr = construct_prefix(chain, d, N, opts)
        for b in tr.coefficient_bounds:
            if b.level < N and abs(b.value) > b.bound - opts.tol + 1e-6:
                violations.append((N, b.level, round(b.value, 4), round(b.bound, 4)))
    bounds_ok = not violations
    # part 2: stabilization ladder with the analytic Hilbert tail bound,
    # |x_N - x_M| = sqrt((d_N - sqrt(d_N^2 - d_{N+1}^2))^2 + d_{N+1}^2) for the
    # closed-form witnesses (identical for every M > N by telescoping)
    traces, table = construct_sequence(chain, d, 9, opts)
    tail_ok = not table.failures and table.tail_non_increasing
    for i, N in enumerate(table.prefixes[:-1]):
        if N > 8:
            continue
        dN, dN1 = d.value(N), d.value(N + 1)
        analytic = math.sqrt((dN - math.sqrt(dN * dN - dN1 * dN1)) ** 2 + dN1 * dN1)
        tail_ok = tail_ok and table.max_tail[i] <= analytic + 1e-6
    ok = bounds_ok and tail_ok
    assert verdict(
        8, "prefix coefficient bounds and stabilization", ok,
        f"bound violations {violations[:4]}{'...' if len(violations) > 4 else ''}, "
        f"stabilization ok {tail_ok}",
    )


def test_criterion_9_distance_property_suite():
    rng = np.random.default_rng(606)
    assertions = 0
    failures = []
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        norm = NormSpec(p)
        tol = default_tol(norm)
        for _ in range(18):
            dim = int(rng.integers(3, 7))
            n_levels = int(rng.integers(2, dim))
            chain = coordinate_chain(dim, n_levels - 1, norm) if n_levels - 1 >= 1 else None
            r = int(rng.integers(1, dim))
            Y = Subspace(rng.standard_normal((dim, r)))
            x = rng.uniform(-2, 2, dim)
            x2 = rng.uniform(-2, 2, dim)
            lam = float(rng.uniform(-5, 5))
            rx = rho(x, Y, norm).value
            rx2 = rho(x2, Y, norm).value
            # homogeneity
            if abs(rho(lam * x, Y, norm).value - abs(lam) * rx) > tol * (1 + abs(lam)) + 1e-8:
                failures.append((p, "homogeneity"))
            assertions += 1
            # translation invariance
            v = Y.basis @ rng.uniform(-2, 2, r)
            if abs(rho(x + v, Y, norm).value - rx) > 2 * tol + 1e-8:
                failures.append((p, "translation"))
            assertions += 1
            # subadditivity
            if rho(x + x2, Y, norm).value > rx + rx2 + 3 * tol + 1e-8:
                failures.append((p, "subadditivity"))
            assertions += 1
            # 1-Lipschitz
            if abs(rx - rx2) > norm_eval(x - x2, norm) + 2 * tol + 1e-8:
                failures.append((p, "lipschitz"))
            assertions += 1
            # chain monotonicity
            if chain is not None:
                vals = [rho(x, chain.level(k), norm).value for k in range(1, len(chain) + 1)]
                if any(b > a + 2 * tol + 1e-9 for a, b in zip(vals, vals[1:])):
                    failures.append((p, "monotonicity"))
                assertions += 1
            # coercivity lower bound
            y = rng.standard_normal(dim)
            ry = rho(y, Y, norm).value
            if ry > 1e-6:
                t = float(rng.uniform(2, 50)) * rng.choice([-1.0, 1.0])
                if rho(x + t * y, Y, norm).value < abs(t) * ry - rx - 1e-6 * (1 + abs(t)):
                    failures.append((p, "coercivity"))
                assertions += 1
    ok = assertions >= 500 and not failures
    assert verdict(
        9, "distance property suite", ok,
        f"{assertions} assertions, failures {failures[:3]}",
    )


def test_criterion_10_cli_determinism_round_trip(capsys):
    names = cli.list_bundled()
    ok = True
    details = []
    for name in names:
        expected = 1 if name.endswith("-xfail") else 0
        code_a = cli.main(["demo", name, "--format", "machine"])
        out_a = capsys.readouterr().out
        code_b = cli.main(["demo", name, "--format", "machine"])
        out_b = capsys.readouterr().out
        scn = load_scenario(cli.bundled_scenario_path(name))
        rep = run(scn)
        round_trip = parse_report(emit_machine(rep)) == rep
        this_ok = code_a == expected and code_a == code_b and out_a == out_b and round_trip
        ok = ok and this_ok
        if not this_ok:
            details.append(f"{name}: exit {code_a}/{code_b} expected {expected}, rt {round_trip}")
    assert verdict(
        10, "CLI determinism and round-trip", ok,
        f"{len(names)} scenarios" + ("; " + "; ".join(details) if details else ""),
    )
