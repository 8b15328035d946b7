"""The public API is pinned: a change to lethargy.__all__ edits this list
and says why."""

import numpy as np
import pytest

import lethargy
import lethargy.cli

PUBLIC_API = [
    "BorodinReport", "Chain", "ChainValidation", "ConstructOptions",
    "ConstructionError", "ConstructionTrace", "DimensionMismatchError", "DistanceResult",
    "Functional", "FunctionalError", "InterpolationFamily", "NormSpec", "Report", "Scenario",
    "ScenarioError", "SolverError", "StabilizationTable", "Subspace", "TargetError",
    "TargetSequence", "as_vector", "best_approximant", "check_borodin_condition",
    "check_subspace_condition", "construct_prefix", "construct_sequence", "contains",
    "coordinate_chain", "dual_norm", "emit", "finite_construct", "interpolating_family",
    "limit_value", "load_scenario", "norm_eval", "normalize_step", "norming_functional",
    "parse_scenario", "rho", "run", "validate_chain",
]


def test_public_api_is_pinned():
    assert sorted(lethargy.__all__) == PUBLIC_API
    assert all(hasattr(lethargy, name) for name in PUBLIC_API)


def _bad_demo_seed():
    return lethargy.cli.main(["demo", "geometric-third-prefix", "--seed", "x"])


_L2 = lethargy.NormSpec(2.0)
_CHAIN = lethargy.coordinate_chain(4, 2, _L2)
_TARGETS = lethargy.TargetSequence((1.0, 0.5))
_Q1, _Q2, _Q3 = (_CHAIN.level(k) for k in (1, 2, 3))


@pytest.mark.parametrize("call, error, match", [
    (lambda: lethargy.construct_prefix(_CHAIN, _TARGETS, 0), ValueError, "N must be >= 1"),
    (lambda: lethargy.construct_sequence(_CHAIN, _TARGETS, 0), ValueError, "N_max must be >= 1"),
    (lambda: lethargy.interpolating_family(_Q1, _Q2, _Q3, _L2, [1.0], [0.5, 0.2]),
     ValueError, "equal length"),
    (lambda: lethargy.interpolating_family(_Q1, _Q2, _Q3, _L2, [np.inf], [1.0]),
     ValueError, "must be finite"),
    (lambda: lethargy.TargetSequence((1.0,), ratio=0.5), lethargy.TargetError,
     "only meaningful for a geometric tail"),
    (lambda: _TARGETS.value(0), IndexError, "1-indexed"),
    (lambda: lethargy.Subspace(None), ValueError, "explicit ambient_dim"),
    (lambda: lethargy.Subspace(np.array([[1.0], [np.nan]])), ValueError, "must be finite"),
    (lambda: lethargy.as_vector([]), ValueError, "positive dimension"),
    (lambda: lethargy.coordinate_chain(3, 3, _L2), ValueError, "n_levels < ambient_dim"),
    (_bad_demo_seed, SystemExit, "2"),
], ids=["construct_prefix N=0", "construct_sequence N_max=0", "interpolating_family u, v",
        "interpolating_family u = inf", "TargetSequence ratio", "TargetSequence.value(0)", "Subspace(None)",
        "Subspace non-finite", "as_vector([])", "coordinate_chain full", "demo --seed x"])
def test_entry_points_reject_bad_input(call, error, match, capsys):
    # each public entry point names what is wrong with its input; the CLI
    # exits 2 with argparse's message
    with pytest.raises(error, match=match):
        call()
    if error is SystemExit:
        assert "--seed: must be an integer >= 0, got 'x'" in capsys.readouterr().err
