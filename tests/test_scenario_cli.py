import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethargy import cli
from lethargy.scenario import (
    Report,
    ScenarioError,
    emit,
    emit_machine,
    emit_text,
    load_scenario,
    parse_report,
    parse_scenario,
    run,
)


def base_doc(**over):
    doc = {
        "version": "1",
        "name": "t",
        "ambient_dim": 4,
        "norm_p": 2,
        "chain": {"generator": "coordinate", "n_levels": 2},
        "targets": {"values": [0.5, 0.2], "tail": "zero"},
        "mode": "finite",
        "tolerance": 1e-6,
    }
    doc.update(over)
    return doc


def test_parse_coordinate_generator():
    scn = parse_scenario(base_doc(ambient_dim=4, chain={"generator": "coordinate", "n_levels": 3}))
    assert [Y.rank for Y in scn.chain.levels] == [1, 2, 3]


def test_parse_polynomial_grid_generator():
    doc = base_doc(
        ambient_dim=64,
        norm_p="inf",
        chain={"generator": "polynomial_grid", "n_levels": 4, "grid_points": 64},
        targets={"values": [0.5, 0.3, 0.2, 0.1], "tail": "zero"},
    )
    scn = parse_scenario(doc)
    assert scn.norm.is_sup
    assert [Y.rank for Y in scn.chain.levels] == [1, 2, 3, 4]


@pytest.mark.parametrize("n_levels", [14, 16])
def test_polynomial_grid_high_degree_builds(tmp_path, capsys, n_levels):
    # degrees at which monomial Vandermonde columns lose rank to rounding
    doc = base_doc(
        ambient_dim=64,
        norm_p="inf",
        chain={"generator": "polynomial_grid", "n_levels": n_levels, "grid_points": 64},
        targets={"values": [0.8 * 0.7**k for k in range(n_levels)], "tail": "zero"},
    )
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert _exit_code(["construct", p.as_posix()]) == 0
    capsys.readouterr()
    levels = parse_scenario(doc).chain.levels
    assert [Y.rank for Y in levels] == list(range(1, n_levels + 1))
    for lo, hi in zip(levels, levels[1:]):
        assert np.max(np.abs(hi.residual(lo.basis))) <= 1e-14


def test_polynomial_grid_requires_sup_norm():
    doc = base_doc(chain={"generator": "polynomial_grid", "n_levels": 2, "grid_points": 4})
    with pytest.raises(ScenarioError, match="inf"):
        parse_scenario(doc)


def test_parse_rejects_increasing_targets():
    with pytest.raises(ScenarioError, match="non-increasing"):
        parse_scenario(base_doc(targets={"values": [0.2, 0.5], "tail": "zero"}))


def test_parse_rejects_unknown_fields():
    with pytest.raises(ScenarioError, match="fail-closed"):
        parse_scenario(base_doc(extra_knob=1))
    with pytest.raises(ScenarioError, match="fail-closed"):
        parse_scenario(base_doc(targets={"values": [0.5], "tail": "zero", "foo": 1}))


def test_parse_rejects_bad_version_and_mode():
    with pytest.raises(ScenarioError, match="version"):
        parse_scenario(base_doc(version="2"))
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario(base_doc(mode="solve"))
    with pytest.raises(ScenarioError, match="N"):
        parse_scenario(base_doc(mode="prefix"))


def test_parse_explicit_levels_and_validation():
    doc = base_doc(
        ambient_dim=3,
        chain={"levels": [[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]},
    )
    scn = parse_scenario(doc)
    assert [Y.rank for Y in scn.chain.levels] == [1, 2]
    bad = base_doc(ambient_dim=2, chain={"levels": [[[1.0, 0.0]], [[0.0, 1.0]]]})
    with pytest.raises(ScenarioError, match="nesting"):
        parse_scenario(bad)


def test_run_finite_report(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(base_doc()))
    rep = run(load_scenario(p.as_posix()))
    assert rep.verdict == "pass"
    assert [row["k"] for row in rep.levels] == [1, 2]
    assert all(row["residual"] <= 1e-6 for row in rep.levels)
    assert 0.5 <= rep.norm_x <= 1.5 + 1e-6


def test_machine_report_round_trip():
    rep = run(parse_scenario(base_doc()))
    text = emit_machine(rep)
    back = parse_report(text)
    assert back == rep  # wall_time excluded from comparison and serialization
    assert "wall_time" not in json.loads(text)


def test_machine_report_deterministic():
    a = emit_machine(run(parse_scenario(base_doc())))
    b = emit_machine(run(parse_scenario(base_doc())))
    assert a == b


def test_emit_text_contains_table():
    rep = run(parse_scenario(base_doc()))
    text = emit(rep, "text_table")
    assert "verdict  : pass" in text
    assert "wall time" in text
    with pytest.raises(ValueError):
        emit(rep, "xml")


@pytest.mark.parametrize("norm_p, certified", [(1, True), ("inf", True), (2, False)])
def test_text_report_states_the_certificate_gap(norm_p, certified):
    rep = run(parse_scenario(base_doc(norm_p=norm_p)))
    gap_lines = [ln for ln in emit_text(rep).splitlines() if ln.startswith("certificate gap:")]
    assert len(gap_lines) == 1
    if certified:
        assert 0.0 <= rep.certificate_gap <= 1e-12
        assert f"{rep.certificate_gap:.3e}" in gap_lines[0]
    else:
        assert rep.certificate_gap is None and "none certified" in gap_lines[0]
    assert "certificate_gap" not in json.loads(emit_machine(rep))  # text report only


def test_check_only_with_subspace_samples():
    doc = base_doc(
        mode="check_only",
        targets={"values": [0.4, 0.16], "tail": "geometric", "ratio": 0.4},
        subspace_condition={"k": 2, "n_samples": 4},
        seed=3,
    )
    rep = run(parse_scenario(doc))
    assert rep.condition["passes"]
    assert rep.subspace_condition is not None
    assert len(rep.subspace_condition["samples"]) == 4


# -- CLI ----------------------------------------------------------------------


def test_cli_pass_and_fail_exit_codes(tmp_path, capsys):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(base_doc()))
    assert cli.main(["construct", p.as_posix()]) == 0
    f = tmp_path / "fail.json"
    f.write_text(
        json.dumps(
            base_doc(
                mode="check_only",
                targets={"values": [0.5, 0.25], "tail": "geometric", "ratio": 0.5},
            )
        )
    )
    assert cli.main(["check", f.as_posix()]) == 1
    capsys.readouterr()


def test_cli_input_error_exit_codes(tmp_path, capsys):
    assert cli.main(["check", (tmp_path / "missing.json").as_posix()]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["check", bad.as_posix()]) == 2
    wrong_mode = tmp_path / "wm.json"
    wrong_mode.write_text(json.dumps(base_doc(mode="finite")))
    assert cli.main(["check", wrong_mode.as_posix()]) == 2
    capsys.readouterr()


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # a valid document whose construction misses its tolerance -> exit 3
    doc = base_doc(
        norm_p=1,
        chain={"generator": "coordinate", "n_levels": 3},
        targets={"values": [0.7, 0.4, 0.1], "tail": "zero"},
        tolerance=1e-300,
    )
    p = tmp_path / "strict.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["construct", p.as_posix()]) == 3
    assert "tolerance not met" in capsys.readouterr().err


def test_cli_demo_listing_and_run(capsys):
    assert cli.main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "coordinate-hilbert-finite" in out
    assert cli.main(["demo", "coordinate-hilbert-finite"]) == 0
    capsys.readouterr()
    assert cli.main(["demo", "no-such-scenario"]) == 2
    capsys.readouterr()


def test_cli_output_flag_writes_machine_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert cli.main(["demo", "coordinate-hilbert-finite", "--output", out.as_posix()]) == 0
    capsys.readouterr()
    rep = parse_report(out.read_text())
    assert isinstance(rep, Report)
    assert rep.verdict == "pass"


def test_cli_tolerance_and_seed_overrides(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(base_doc()))
    assert cli.main(["construct", p.as_posix(), "--tolerance", "1e-4", "--seed", "9"]) == 0
    capsys.readouterr()


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad options by exiting
        return exc.code


@pytest.mark.parametrize(
    "over, extra",
    [
        ({"mode": "prefix", "N": 0}, []),
        ({"mode": "sequence", "N_max": 0}, []),
        ({"mode": "prefix", "N": "x"}, []),
        ({"mode": "prefix", "N": 2.5}, []),
        ({"tolerance": -1}, []),
        ({"tolerance": "nan"}, []),
        ({}, ["--tolerance", "-1"]),
        ({}, ["--tolerance", "nan"]),
        ({}, ["--tolerance", "x"]),
        ({"targets": {"values": ["a"]}}, []),
        ({"targets": {"values": 3}}, []),
        ({"targets": {"values": [0.5], "tail": "geometric", "ratio": "x"}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": "x"}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": 1}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": 3}}, []),
        ({"mode": "check_only", "targets": {"values": [0.5, 0.0]},
          "subspace_condition": {"k": 2}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": 2, "n_samples": "x"}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": 2, "n_samples": -1}}, []),
        ({"targets": {"values": [0.5], "tail": "geometric", "ratio": 0.3}, "mode": "sequence",
          "N_max": 9}, []),
        ({"targets": {"values": [0.5], "tail": "geometric", "ratio": 0.3}, "mode": "prefix",
          "N": 3}, []),
        ({"targets": {"values": [0.5], "tail": "geometric", "ratio": 0.3}}, []),
        ({"mode": "check_only", "seed": -1, "subspace_condition": {"k": 2}}, []),
        ({"mode": "check_only", "subspace_condition": {"k": 2}}, ["--seed", "-1"]),
        ({"ambient_dim": 3, "chain": {"generator": "coordinate", "n_levels": 1},
          "targets": {"values": [0.5, 0.4, 0.3], "tail": "zero"}}, []),
    ],
    ids=["N=0", "N_max=0", "N=x", "N=2.5", "tolerance=-1", "tolerance=nan",
         "--tolerance=-1", "--tolerance=nan", "--tolerance=x",
         "values=[a]", "values=3", "ratio=x", "k=x", "k=1", "k>levels", "d_k=0",
         "n_samples=x", "n_samples=-1", "N_max>chain", "N>chain",
         "finite-geometric", "seed=-1", "--seed=-1", "targets>chain"],
)
def test_cli_malformed_numbers_exit_2(tmp_path, capsys, over, extra):
    doc = base_doc(**over)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    command = {"sequence": "sequence", "check_only": "check"}.get(doc["mode"], "construct")
    assert _exit_code([command, p.as_posix(), *extra]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", cli.list_bundled())
def test_bundled_scenario_exit_code(name, capsys):
    expected = 1 if name.endswith("-xfail") else 0
    assert cli.main(["demo", name]) == expected
    capsys.readouterr()



# -- scenario fuzz -------------------------------------------------------------

FUZZ_VALUE = st.one_of(
    st.integers(-2, 8),
    st.floats(-2.0, 9.0),
    st.sampled_from([math.nan, math.inf, 0.0, 1e-300]),
    st.text(max_size=3),
    # words of the schema, so that edits also reach valid combinations
    st.sampled_from(["finite", "prefix", "sequence", "check_only", "zero", "geometric",
                     "coordinate", "polynomial_grid", "inf", "1"]),
    st.none(),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-1.0, 2.0)), max_size=4),
)
# (section or None, field) of the documents below
FUZZ_FIELDS = [
    (None, key) for key in ("version", "ambient_dim", "norm_p", "chain", "targets", "mode",
                            "tolerance", "N", "N_max", "seed", "subspace_condition")
] + [("chain", "generator"), ("chain", "n_levels"), ("targets", "values"),
     ("targets", "tail"), ("targets", "ratio"), ("subspace_condition", "k"),
     ("subspace_condition", "n_samples")]
FUZZ_BASES = [
    base_doc(),
    base_doc(norm_p=1, mode="prefix", N=2, targets={"values": [0.5, 0.2], "tail": "zero"}),
    base_doc(norm_p="inf", mode="sequence", N_max=3, ambient_dim=5,
             chain={"generator": "coordinate", "n_levels": 3},
             targets={"values": [0.5], "tail": "geometric", "ratio": 0.3}),
    base_doc(mode="check_only", subspace_condition={"k": 2, "n_samples": 3}),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FUZZ_BASES), st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), FUZZ_VALUE),
                                              min_size=1, max_size=3))
def test_cli_fuzzed_scenarios_exit_with_a_code(base, edits):
    """Any field of a valid document, set to any JSON value, gives exit 0-3."""
    doc = json.loads(json.dumps(base))
    for (section, key), value in edits:
        if section is None:
            doc[key] = value
        elif isinstance(doc.get(section), dict):
            doc[section][key] = value
    command = {"sequence": "sequence", "check_only": "check"}.get(base["mode"], "construct")
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/s.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = _exit_code([command, path])
    assert code in (0, 1, 2, 3)
