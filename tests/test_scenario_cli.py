import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lethargy.construct as construct_module
from lethargy import cli
from lethargy.construct import ConstructOptions, construct_sequence
from lethargy.distance import DistanceResult
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
from oracles import l2_vector_coefficients


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
    assert scn.chain.norm.is_sup
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


def test_p2_prefix_levels_share_one_frame():
    # level 1's vectors are the first of level 2's: one QR, whose leading
    # columns are level 1's basis
    doc = base_doc(chain={"levels": [[[1, 2, 0, 0]], [[1, 2, 0, 0], [0, 1, 3, 0]]]})
    lo, hi = parse_scenario(doc).chain.levels
    assert (lo.rank, hi.rank) == (1, 2)
    assert np.array_equal(lo.basis, hi.basis[:, :1])
    assert np.allclose(lo.basis[:, 0], np.array([1, 2, 0, 0]) / math.sqrt(5), rtol=0, atol=1e-15)


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
    text = emit(rep, "text")
    assert "verdict  : pass" in text
    assert "wall time" in text
    for fmt in ("xml", "text_table", "machine_json_like"):
        with pytest.raises(ValueError):
            emit(rep, fmt)


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


def test_check_only_reports_a_sampled_counterexample(tmp_path, capsys):
    # d_1 = d_2 makes the ratio 1, and samples of Y_2 with |q| > rho(q, Y_2)
    # break |q| <= (d_1/d_2) rho(q, Y_2)
    A = np.random.default_rng(0).standard_normal((6, 4))
    doc = base_doc(ambient_dim=6, norm_p=1, mode="check_only",
                   chain={"levels": [A[:, :k].T.tolist() for k in range(1, 5)]},
                   targets={"values": [1.0, 1.0, 0.5], "tail": "zero"},
                   subspace_condition={"k": 2, "n_samples": 20}, seed=0)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", path.as_posix()]) == 1
    text = capsys.readouterr().out
    assert "verdict  : fail" in text
    assert "subspace condition: counterexample found among samples" in text
    assert cli.main(["check", path.as_posix(), "--format", "machine"]) == 1
    rep = parse_report(capsys.readouterr().out)
    assert rep.verdict == "fail" and rep.checks == {"borodin_condition": True}
    assert rep.subspace_condition["counterexample_found"]


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
    # an --output that cannot be written: a missing directory, or a directory
    for target in (tmp_path / "no-such-dir" / "r.json", tmp_path):
        argv = ["demo", "zero-tail-finite", "--output", target.as_posix()]
        assert cli.main(argv) == 2
        assert "input error: cannot write report" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # a valid document whose construction misses its tolerance -> exit 3.
    # A random basis: on a coordinate chain the residuals are exactly 0.
    rows = np.random.default_rng(0).standard_normal((3, 4)).tolist()
    doc = base_doc(
        norm_p=1,
        chain={"levels": [rows[:k] for k in range(1, 4)]},
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
        ({"chain": {"levels": 5}}, []),
        ({"chain": {"levels": None}}, []),
        ({"norm_p": True}, []),
        ({"norm_p": "2"}, []),
        ({"tolerance": True}, []),
        ({"tolerance": "1e-3"}, []),
        ({"targets": {"values": [10**400]}}, []),
    ],
    ids=["N=0", "N_max=0", "N=x", "N=2.5", "tolerance=-1", "tolerance=nan",
         "--tolerance=-1", "--tolerance=nan", "--tolerance=x",
         "values=[a]", "values=3", "ratio=x", "k=x", "k=1", "k>levels", "d_k=0",
         "n_samples=x", "n_samples=-1", "N_max>chain", "N>chain",
         "finite-geometric", "seed=-1", "--seed=-1", "targets>chain",
         "levels=5", "levels=null", "norm_p=true", "norm_p=str", "tolerance=true",
         "tolerance=str", "values=[10**400]"],
)
def test_cli_malformed_numbers_exit_2(tmp_path, capsys, over, extra):
    doc = base_doc(**over)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    command = {"sequence": "sequence", "check_only": "check"}.get(doc["mode"], "construct")
    assert _exit_code([command, p.as_posix(), *extra]) == 2
    capsys.readouterr()


# one document per input error of the parser, each with its message
MALFORMED = {
    "norm_p<1": (base_doc(norm_p=0.5),
                 "invalid norm_p: 0.5 (norm exponent must satisfy p >= 1, got 0.5)"),
    "grid-n_levels=0": (base_doc(norm_p="inf", chain={"generator": "polynomial_grid",
                                                       "n_levels": 0}),
                        "polynomial_grid needs 1 <= n_levels < grid_points"),
    "coordinate-n_levels=dim": (base_doc(chain={"generator": "coordinate", "n_levels": 4}),
                                "coordinate generator needs 1 <= n_levels < ambient_dim"),
    "grid_points!=dim": (base_doc(norm_p="inf", chain={"generator": "polynomial_grid",
                                                        "n_levels": 2, "grid_points": 5}),
                         "polynomial_grid grid_points must equal ambient_dim"),
    "level-wrong-dim": (base_doc(chain={"levels": [[[1.0, 0.0, 0.0]]]}),
                        "chain level 1: basis rows 3 do not match ambient_dim 4"),
    "chain={}": (base_doc(chain={}), "chain needs either a generator tag or explicit levels"),
    "not-an-object": ([base_doc()], "scenario must be a JSON object"),
    "no-mode": ({k: v for k, v in base_doc().items() if k != "mode"},
                "missing required field 'mode'"),
    "sequence-no-N_max": (base_doc(mode="sequence"), "sequence mode needs N_max"),
    "subspace-no-k": (base_doc(mode="check_only", subspace_condition={}),
                      "subspace_condition needs k"),
    "values=[]": (base_doc(targets={"values": []}),
                  "invalid targets: target sequence must have at least one value"),
    "values<0": (base_doc(targets={"values": [-0.5]}),
                 "invalid targets: targets must be finite and non-negative"),
    # the same message at any scale: 1e-20 < 2e-20 once passed and failed the solver (exit 3)
    "values-increasing": (base_doc(targets={"values": [1.0, 2.0]}),
                          "invalid targets: targets must be non-increasing, got 1.0 < 2.0"),
    "values-increasing-1e-20": (base_doc(targets={"values": [1e-20, 2e-20]}),
                                "invalid targets: targets must be non-increasing, "
                                "got 1e-20 < 2e-20"),
    "top-level-fills": (base_doc(ambient_dim=2, chain={"levels": [[[1, 0]], [[1, 0], [0, 1]]]}),
                        "targets = 2: top chain level already fills the ambient space"),
    "chain=5": (base_doc(chain=5), "chain must be an object"),
    "ambient_dim=0": (base_doc(ambient_dim=0), "ambient_dim must be positive"),
    "unknown-generator": (base_doc(chain={"generator": "spiral"}),
                          "unknown chain generator 'spiral'"),
    "subspace_condition=3": (base_doc(mode="check_only", subspace_condition=3),
                             "subspace_condition must be an object"),
    # extending lists with a rank-deficient top: the one-QR ingestion declines
    # them, and the per-level path names the fault
    "p2-dependent-top-dim-3": (base_doc(ambient_dim=3, chain={"levels": [[[1, 0, 0]],
                                                                         [[1, 0, 0], [2, 0, 0]]]}),
                               "chain level 2: basis columns are linearly dependent "
                               "(numerical rank 1 < 2)"),
}
# p = 2 explicit levels in ambient_dim 4: those whose vector lists extend each
# other reach the one-QR ingestion first and keep the per-level path's message
E1, E2, E3 = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
NAN1, TWO_E1 = [math.nan, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]
for case, levels, message in [
    ("p2-dependent-top", [[E1], [E1, E1]],
     "chain level 2: basis columns are linearly dependent (numerical rank 1 < 2)"),
    ("p2-dependent-level-1", [[E1, TWO_E1], [E1, TWO_E1, E2]],
     "chain level 1: basis columns are linearly dependent (numerical rank 1 < 2)"),
    ("p2-not-strict", [[E1], [E1]],
     "chain fails strict-nesting validation: levels 1 -> 2: not strict"),
    ("p2-not-nested", [[E1], [E2, E3]],
     "chain fails strict-nesting validation: levels 1 -> 2: not nested"),
    ("p2-nan", [[NAN1], [NAN1, E2]], "chain level 1: basis entries must be finite"),
    ("p2-string-entry", [[E1], [E1, ["a", 1, 0, 0]]],
     "chain level 2: could not convert string to float: 'a'"),
    ("p2-ragged-level", [[E1], [E1, [0.0, 1.0, 0.0]]],
     "chain level 2: its vectors must have equal length"),
]:
    MALFORMED[case] = (base_doc(chain={"levels": levels}), message)
# the same ragged level off p = 2, where every level takes the per-level path
MALFORMED["p1-ragged-level"] = (base_doc(norm_p=1, chain={"levels": [[E1], [E1, [0.0, 1.0, 0.0]]]}),
                                "chain level 2: its vectors must have equal length")


def _command(doc):
    mode = doc.get("mode") if isinstance(doc, dict) else None
    return {"sequence": "sequence", "check_only": "check"}.get(mode, "construct")


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_exits_2_with_its_message(case, tmp_path, capsys):
    doc, message = MALFORMED[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main([_command(doc), path.as_posix()]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    with pytest.raises(ScenarioError) as exc:  # the parser's own message
        parse_scenario(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", ["not-an-object", "top-level-fills"])
def test_malformed_scenario_from_the_command_line(case, tmp_path):
    doc, message = MALFORMED[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "lethargy.cli", _command(doc), path.as_posix()],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": pythonpath})
    assert out.returncode == 2
    assert out.stderr == f"input error: {message}\n"
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("name", cli.list_bundled())
def test_bundled_scenario_exit_code(name, capsys):
    expected = 1 if name.endswith("-xfail") else 0
    assert cli.main(["demo", name]) == expected
    capsys.readouterr()


# sha256 of `lethargy demo NAME --format machine`, recorded with numpy 2.4.6
# and scipy 1.17.1 (Python 3.11).  A change that moves a bundled report
# updates its hash here and says why.
BUNDLED_REPORT_SHA256 = {
    "coordinate-hilbert-finite": "47ba0d95a464cf22fd4ed1e317212ce19eda2fdbd41fba19979df32d2d6b0653",
    "geometric-half-check-xfail": "52f02c5b3ea569e7a8485c0c2b07e8a4c3d58034ca82076559447228d47c4696",
    "geometric-third-prefix": "1991d80d41daead6c472da5ccdce6520f73e584de23fd2350216e6e3869483c1",
    "geometric-third-sequence": "d14eef17bd4080d27f1461a4d36a72562e5d723496ddff3c28ad6a8b4f65b860",
    "geometric-twofifth-check": "affb55804b5be831fd792c366619bb7235b5756fa9afc25a440d2126b75a424f",
    "polynomial-sup-degree15-finite": "4ae73530601f4af78e0b826271134d6433666d58b9ea0b43e3ddb53c10c738ad",
    "polynomial-sup-finite": "83cbcbe12c77e53f89f3933e56822709d0f050f0dede23140bc6e375faed4a0e",
    "random-l1-finite": "309f5d77b5c2a972996bf0c01aed11f97e15ab7b120618b87a06a6bcbc12c049",
    "random-p1.1-finite": "4829ddb26bc5c6f477d92bc4251f9cd69c9f29d7a374dd0f4e9c3369aefefc9d",
    "zero-tail-finite": "9f336e8010b1e36dfb8b59e75bdf78ea657297a45cc22010ad23b0ad69b695d8",
}


def test_bundled_machine_reports_keep_their_bytes(capsys):
    assert sorted(BUNDLED_REPORT_SHA256) == cli.list_bundled()
    for name, digest in BUNDLED_REPORT_SHA256.items():
        cli.main(["demo", name, "--format", "machine"])
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, name


def test_explicit_basis_ladder_keeps_its_bytes(tmp_path, capsys):
    # a p = 2 ladder on a random basis, built like the benchmark's explicit
    # ladders: projections there round, unlike on the coordinate chain of
    # the bundled sequence scenario, so any reordering of the arithmetic shows
    # (hash recorded like BUNDLED_REPORT_SHA256's)
    rng = np.random.default_rng(7)
    A = rng.standard_normal((14, 12))
    doc = base_doc(ambient_dim=14, mode="sequence", N_max=12, tolerance=1e-8,
                   chain={"levels": [A[:, : k + 1].T.tolist() for k in range(12)]},
                   targets={"values": [1.0], "tail": "geometric", "ratio": 0.3})
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7f8fe022b735ec4066f8a717915674fbdb01ecb181f9be32cc8c13e4fdc9d257"


def counted_records(monkeypatch) -> dict:
    """The DistanceResult and CoefficientBound records built from now on, by class name."""
    counts = {}

    def count(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    count(DistanceResult)
    count(construct_module.CoefficientBound)
    return counts


def test_l2_sequence_builds_the_records_of_the_reported_rung_only(tmp_path, capsys, monkeypatch):
    # a p = 2 ladder of 24 rungs over 23 positive targets reports its last
    # rung's levels (23 in closed form, one contained) and 23 coefficient
    # bounds, and builds those records alone, not the 300 and 299 of every
    # rung; a record read again is the same tuple, and a certificate gap
    # over no certified level is None without a record built
    doc = base_doc(ambient_dim=26, chain={"generator": "coordinate", "n_levels": 24}, mode="sequence",
                   N_max=24, targets={"values": [0.4**k for k in range(23)]}, tolerance=1e-8)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    counts = counted_records(monkeypatch)
    assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["levels"]) == 24 and len(report["coefficient_bounds"]) == 23
    assert counts == {"DistanceResult": 24, "CoefficientBound": 23}
    scn = parse_scenario(doc)
    traces, _ = construct_sequence(scn.chain, scn.targets, 24, ConstructOptions(tol=1e-8))
    counts.clear()
    trace = traces[4]
    assert trace.certificate_gap is None and trace.certificate_gap is None and counts == {}
    achieved, bounds = trace.achieved, trace.coefficient_bounds
    assert trace.achieved is achieved and trace.coefficient_bounds is bounds
    assert counts == {"DistanceResult": 5, "CoefficientBound": 5}
    assert sum(len(t.achieved) for t in traces) == 300 and counts["DistanceResult"] == 300


def partial_ladder_doc(norm_p, tolerance):
    # an explicit-basis ladder whose tolerance sits at the rounding level, so
    # that some rungs miss it (hashes recorded like BUNDLED_REPORT_SHA256's)
    A = np.random.default_rng(0).standard_normal((8, 6))
    return base_doc(name="partial-ladder", ambient_dim=8, norm_p=norm_p, mode="sequence",
                    N_max=5, tolerance=tolerance,
                    chain={"levels": [A[:, :k].T.tolist() for k in range(1, 6)]},
                    targets={"values": [1.0], "tail": "geometric", "ratio": 0.3})


def test_partly_failing_ladder_keeps_its_bytes(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial_ladder_doc(1.5, 1e-16)))
    assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == 1
    machine = capsys.readouterr().out
    assert hashlib.sha256(machine.encode()).hexdigest() == (
        "5f081a3722cb179c1a0b0e3b93736ac649e3a31e8c4098203a0cd267c6df627e")
    rep = parse_report(machine)
    assert [f["N"] for f in rep.stabilization["failures"]] == [2, 4]
    assert rep.stabilization["prefixes"] == [1, 3, 5]
    assert cli.main(["sequence", path.as_posix()]) == 1
    text = capsys.readouterr().out
    assert "prefix 2 FAILED: tolerance not met" in text
    assert "prefix 4 FAILED: tolerance not met" in text
    assert "<-- first failing level" in text
    # the machine report sorts its keys; the text report keeps the checks' order
    assert [line for line in text.splitlines() if line.startswith("check ")] == [
        "check all_prefixes_succeeded: FAIL",
        "check residuals_within_tolerance: FAIL",
        "check stabilization_non_increasing: pass",
    ]


def test_l2_ladder_fails_where_the_vector_pass_fails(tmp_path, capsys):
    # a tolerance below rounding (10 tol = 1e-16, under one ulp of d_1 = 1):
    # the closed-form p = 2 coefficients miss it on rung 5, the projections
    # they replaced (oracles.l2_vector_pass) on rungs 4 and 5, and no rung's
    # residual, measured where every rung passes, differs from the oracle's
    # by more than one ulp of d_1
    doc = partial_ladder_doc(2, 1e-17)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    scn = parse_scenario(doc)
    steps = construct_module._prefix_steps(scn.chain, scn.targets, scn.N_max, recentre=False)
    residuals = []
    for coefficients, failed in ((construct_module._l2_coefficients, [5]),
                                 (l2_vector_coefficients(scn.chain, steps, False), [4, 5])):
        with mock.patch.object(construct_module, "_l2_coefficients", coefficients):
            assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == 1
            traces, _ = construct_module.construct_sequence(
                scn.chain, scn.targets, scn.N_max, construct_module.ConstructOptions(tol=1.0))
        failures = parse_report(capsys.readouterr().out).stabilization["failures"]
        assert [f["N"] for f in failures] == failed
        residuals.append([t.max_residual for t in traces])
    assert residuals[0] == pytest.approx(residuals[1], rel=0, abs=2.2e-16)


def test_ladder_with_every_rung_failing(tmp_path, capsys):
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(partial_ladder_doc(1, 1e-17)))
    assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == 1
    machine = capsys.readouterr().out
    assert hashlib.sha256(machine.encode()).hexdigest() == (
        "4fad9de18f489fffce7e14804217b21652abd3abc26a096383b394592d428dc8")
    rep = parse_report(machine)
    assert rep.levels == [] and rep.x is None and rep.norm_x is None
    # no rung built: no check over the rungs passes
    assert rep.checks == {"all_prefixes_succeeded": False, "residuals_within_tolerance": False,
                          "stabilization_non_increasing": False}
    assert [f["N"] for f in rep.stabilization["failures"]] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("norm_p, code, digest", [
    (1, 0, "65e66de0d7706be4c8a86b38e669df6557895f489d7ceee830704ac5063fbe9a"),
    (3, 0, "f654dc9c0722f24256a5bbb4cad242c9cbd619068eee2fc1717e96ab9343d1d1"),
    ("inf", 0, "a716a87d76e82afc652385a79a5b23b280e450e5737e18109491dc3caa29deab"),
])
def test_schedule_ladders_off_p2_keep_their_bytes(norm_p, code, digest, tmp_path, capsys):
    # the prefix steps' level-set solves off p = 2, at an ordinary tolerance
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(partial_ladder_doc(norm_p, 1e-6)))
    assert cli.main(["sequence", path.as_posix(), "--format", "machine"]) == code
    machine = capsys.readouterr().out
    assert hashlib.sha256(machine.encode()).hexdigest() == digest
    assert parse_report(machine).stabilization["failures"] == []


def test_cli_builds_its_parser_once():
    assert cli.build_parser() is cli.build_parser()


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
] + [("chain", "generator"), ("chain", "n_levels"), ("chain", "levels"),
     ("targets", "values"), ("targets", "tail"), ("targets", "ratio"),
     ("subspace_condition", "k"), ("subspace_condition", "n_samples")]
FUZZ_BASES = [
    base_doc(),
    base_doc(norm_p=1, mode="prefix", N=2, targets={"values": [0.5, 0.2], "tail": "zero"}),
    base_doc(norm_p="inf", mode="sequence", N_max=3, ambient_dim=5,
             chain={"generator": "coordinate", "n_levels": 3},
             targets={"values": [0.5], "tail": "geometric", "ratio": 0.3}),
    base_doc(mode="check_only", subspace_condition={"k": 2, "n_samples": 3}),
    base_doc(chain={"levels": [[[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]]]}),
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
