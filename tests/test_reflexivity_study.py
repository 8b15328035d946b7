import importlib.util
import math
from pathlib import Path

import pytest

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
