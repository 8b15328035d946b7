"""The public API is pinned: a change to lethargy.__all__ edits this list
and says why."""

import lethargy

PUBLIC_API = [
    "BorodinReport", "BorodinSchedule", "Chain", "ChainValidation", "ConstructOptions",
    "ConstructionError", "ConstructionTrace", "DimensionMismatchError", "DistanceResult",
    "Functional", "FunctionalError", "InterpolationFamily", "NormSpec", "Report", "Scenario",
    "ScenarioError", "SolverError", "StabilizationTable", "Subspace", "TargetError",
    "TargetSequence", "as_vector", "best_approximant", "build_schedule",
    "check_borodin_condition", "check_subspace_condition", "construct_prefix",
    "construct_sequence", "contains", "coordinate_chain", "dual_norm", "emit",
    "finite_construct", "interpolating_family", "limit_value", "load_scenario", "norm_eval",
    "normalize_step", "norming_functional", "parse_scenario", "rho", "run", "validate_chain",
]


def test_public_api_is_pinned():
    assert sorted(lethargy.__all__) == PUBLIC_API
    assert all(hasattr(lethargy, name) for name in PUBLIC_API)
