import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import lethargy.construct as construct_module
from lethargy import Chain, ConstructOptions, NormSpec, Subspace, TargetSequence, finite_construct

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reflexivity_study.py"
spec = importlib.util.spec_from_file_location("reflexivity_study", SCRIPT)
study = importlib.util.module_from_spec(spec)
spec.loader.exec_module(study)

MS = (8, 16, 32, 64)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_residuals_do_not_settle_on_c0_and_l1(p):
    # f attains its norm on no element of c0 or l1: r_m and r_2m stay about
    # rho apart (2 rho at p = 1, rho at p = inf) however large m is
    steps = study.residual_steps(p, MS)
    assert min(steps) >= 0.99, steps


def test_residuals_converge_on_l2():
    # r_m = f_1 f / |f|^2 with f = (2^-k): the step to r_2m is the tail 2^-m
    steps = study.residual_steps(2.0, MS)
    for m, step in zip(MS, steps):
        assert step <= 1.01 * 2.0**-m + 1e-14, (m, steps)
    assert steps[-1] <= 1e-12


def test_residuals_converge_on_l1_5():
    # l_1.5 is reflexive too: with exact witnesses the r_m settle as on l2
    steps = study.residual_steps(1.5, MS)
    assert max(steps[1:]) <= 1e-9, steps


LETHARGY_MS = (8, 16, 32)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lethargy_elements_converge_on_reflexive_lp(p):
    # |x_m| = rho(x_m, ker f) = 1: f attains its norm at the lethargy
    # element, and on a reflexive space the x_m settle as m grows
    steps = study.lethargy_steps(p, LETHARGY_MS)
    assert all(a > b for a, b in zip(steps, steps[1:])), steps
    assert steps[-1] < 1e-4, steps
    if p == 1.5:  # the tied root is exactly 0: the step falls to rounding (1.5e-16)
        assert steps[-1] <= 1e-14, steps


@pytest.mark.parametrize("m", LETHARGY_MS)
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_tied_level_takes_the_exact_root_0(p, m):
    # d_1 = d_2 = 1: after the recentre rho(x, {0}) = |x| = rho(x, ker f) = 1
    # already, so lambda_1 is 0 itself, with no solve (a level-set solve
    # there lands anywhere in its own noise, since 1 is the minimum over t)
    chain = Chain(m, NormSpec(p), (Subspace.zero(m), study.kernel(p, m)))
    with mock.patch.object(construct_module, "smallest_root",
                           wraps=construct_module.smallest_root) as root:
        trace = finite_construct(chain, TargetSequence((1.0, 1.0)), ConstructOptions(tol=1e-9))
    assert trace.coefficients[0] == 0.0 and root.call_count == 0
    # level 2's dual certifies level 1 too: the same bracket, to rounding
    assert trace.max_residual <= 1e-9
    assert trace.lower_bounds[0] == pytest.approx(trace.lower_bounds[1], rel=0, abs=1e-15)


def test_lethargy_elements_do_not_settle_on_l1():
    steps = study.lethargy_steps(1.0, LETHARGY_MS)
    assert min(steps) >= 1.5, steps


def test_lethargy_elements_do_not_settle_on_c0():
    assert study.lethargy_steps(math.inf, (8,)) == pytest.approx([1.0], rel=1e-6)


def test_lethargy_elements_on_c0_past_m_16():
    # f's entries tie to 2^-m: the 10 tol gate needs rho's LP to its 1e-9
    # feasibility tolerances (HiGHS's default 1e-7 leaves rho 1.7e-8 off)
    steps = study.lethargy_steps(math.inf, (16, 32))
    assert min(steps) >= 0.99, steps


def test_study_prints_both_tables():
    # the command line at m = 8: p = 1.5 steps 2^-16 in both tables, p = inf 1
    root = SCRIPT.parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(SCRIPT), "--p", "1.5", "inf", "--m", "8"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines.count("|x_m - x_2m|_p, lethargy elements on {0} c ker f, targets (1, 1)") == 1
    rows = [line.split() for line in lines if line[:1].isdigit() or line.startswith("inf")]
    assert [line.split() for line in lines if line.startswith("p ")] == [["p", "m", "=", "8"]] * 2
    assert rows == [["1.5", "1.526e-05"], ["inf", "1.000e+00"]] * 2
