"""Scenario files, batch execution, and verification reports.

A scenario is a small versioned JSON document describing a normed space, a
nested subspace chain (explicit bases or a generator tag), a target
sequence, and a mode: condition checks only, a finite construction, a
single schedule-driven prefix, or a stabilization ladder.  Reports come in
two forms: a fixed-width text table for humans and a canonical JSON
document for machines.  The machine form deliberately omits wall time so
that repeated runs with the same seed are byte-identical; wall time appears
in the text output only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .construct import (
    ConstructionError,
    ConstructOptions,
    TargetError,
    _levels_to_build,
    TargetSequence,
    check_borodin_condition,
    check_subspace_condition,
    construct_prefix,
    construct_sequence,
    finite_construct,
    normalize_step,
)
from .spaces import Chain, NormSpec, Subspace, coordinate_chain, norm_eval, validate_chain

SCHEMA_VERSION = "1"

MODES = ("check_only", "finite", "prefix", "sequence")


class ScenarioError(ValueError):
    """Malformed or invalid scenario input."""


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    ambient_dim: int
    norm: NormSpec
    chain: Chain
    targets: TargetSequence
    mode: str
    tolerance: float
    N: int | None = None
    N_max: int | None = None
    seed: int = 0
    subspace_condition: dict | None = None


def _reject_unknown(obj: dict, allowed, where: str):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ScenarioError(f"unknown field(s) {extra} in {where} (schema is fail-closed)")


def _int_field(raw, name: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(f"{name} must be an integer, got {raw!r}")
    return raw


def _number_field(raw, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _parse_tolerance(raw) -> float:
    try:
        tol = float(raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"tolerance must be a number, got {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise ScenarioError(f"tolerance must be finite and positive, got {raw!r}")
    return tol


def _parse_norm(raw) -> NormSpec:
    if raw == "inf":
        return NormSpec(math.inf)
    try:
        return NormSpec(float(raw))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid norm_p: {raw!r} ({exc})") from exc


def _polynomial_grid_chain(n_levels: int, grid_points: int, norm: NormSpec) -> Chain:
    """Discretized polynomial spaces: degree < k sampled on a uniform grid of [0,1].

    One QR of the Chebyshev-Vandermonde matrix on the grid (mapped onto
    [-1, 1]) gives orthonormal columns whose first k span degree < k, so
    level k is the first k columns and the levels are nested by
    construction; monomial Vandermonde columns lose rank to rounding from
    about degree 13 on 64 points.
    """
    if not 1 <= n_levels < grid_points:
        raise ScenarioError("polynomial_grid needs 1 <= n_levels < grid_points")
    t = np.linspace(-1.0, 1.0, grid_points)
    q, _ = np.linalg.qr(np.polynomial.chebyshev.chebvander(t, n_levels - 1))
    levels = [Subspace(q[:, :k]) for k in range(1, n_levels + 1)]
    return Chain(ambient_dim=grid_points, norm=norm, levels=tuple(levels))


def _parse_chain(raw, norm: NormSpec, ambient_dim: int) -> Chain:
    if not isinstance(raw, dict):
        raise ScenarioError("chain must be an object")
    if "generator" in raw:
        gen = raw["generator"]
        if gen == "coordinate":
            _reject_unknown(raw, ("generator", "n_levels"), "chain")
            n_levels = _int_field(raw.get("n_levels", 0), "n_levels")
            if not (1 <= n_levels < ambient_dim):
                raise ScenarioError("coordinate generator needs 1 <= n_levels < ambient_dim")
            return coordinate_chain(ambient_dim, n_levels, norm)
        if gen == "polynomial_grid":
            _reject_unknown(raw, ("generator", "n_levels", "grid_points"), "chain")
            gp = _int_field(raw.get("grid_points", ambient_dim), "grid_points")
            if gp != ambient_dim:
                raise ScenarioError("polynomial_grid grid_points must equal ambient_dim")
            if not norm.is_sup:
                raise ScenarioError('polynomial_grid models C[0,1]; use norm_p = "inf"')
            return _polynomial_grid_chain(_int_field(raw.get("n_levels", 0), "n_levels"), gp, norm)
        raise ScenarioError(f"unknown chain generator {gen!r}")
    if "levels" in raw:
        _reject_unknown(raw, ("levels",), "chain")
        levels = []
        for i, cols in enumerate(raw["levels"], start=1):
            try:
                B = np.asarray(cols, dtype=float).T  # rows of vectors -> columns
                levels.append(Subspace(B, ambient_dim=ambient_dim))
            except (ValueError, TypeError) as exc:
                raise ScenarioError(f"chain level {i}: {exc}") from exc
        return Chain(ambient_dim=ambient_dim, norm=norm, levels=tuple(levels))
    raise ScenarioError("chain needs either a generator tag or explicit levels")


def _parse_targets(raw) -> TargetSequence:
    if not isinstance(raw, dict):
        raise ScenarioError("targets must be an object")
    _reject_unknown(raw, ("values", "tail", "ratio"), "targets")
    values = raw.get("values", [])
    if not isinstance(values, list):
        raise ScenarioError(f"targets.values must be a list of numbers, got {values!r}")
    ratio = raw.get("ratio")
    try:
        return TargetSequence(
            values=tuple(_number_field(v, "targets.values entry") for v in values),
            tail=raw.get("tail", "zero"),
            ratio=None if ratio is None else _number_field(ratio, "targets.ratio"),
        )
    except TargetError as exc:
        raise ScenarioError(f"invalid targets: {exc}") from exc


def parse_scenario(doc: dict, name_hint: str = "<inline>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    allowed = (
        "version", "name", "ambient_dim", "norm_p", "chain", "targets",
        "mode", "tolerance", "N", "N_max", "seed", "subspace_condition",
    )
    _reject_unknown(doc, allowed, "scenario")
    if doc.get("version") != SCHEMA_VERSION:
        raise ScenarioError(f'scenario version must be "{SCHEMA_VERSION}", got {doc.get("version")!r}')
    for key in ("ambient_dim", "norm_p", "chain", "targets", "mode"):
        if key not in doc:
            raise ScenarioError(f"missing required field {key!r}")
    ambient_dim = _int_field(doc["ambient_dim"], "ambient_dim")
    if ambient_dim < 1:
        raise ScenarioError("ambient_dim must be positive")
    norm = _parse_norm(doc["norm_p"])
    chain = _parse_chain(doc["chain"], norm, ambient_dim)
    validation = validate_chain(chain)
    if not validation.passes:
        raise ScenarioError(f"chain fails strict-nesting validation: {validation.failure}")
    targets = _parse_targets(doc["targets"])
    mode = doc["mode"]
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "finite" and targets.tail != "zero":
        raise ScenarioError("finite mode needs a zero-tail target sequence")
    if mode == "prefix" and "N" not in doc:
        raise ScenarioError("prefix mode needs N")
    if mode == "sequence" and "N_max" not in doc:
        raise ScenarioError("sequence mode needs N_max")
    counts = {key: _int_field(doc[key], key) for key in ("N", "N_max") if key in doc}
    for key, value in counts.items():
        if value < 1:
            raise ScenarioError(f"{key} must be >= 1, got {value}")
    # the levels each mode builds: one per target value, N, or N_max
    levels = {"finite": ("targets", len(targets)), "prefix": ("N", counts.get("N")),
              "sequence": ("N_max", counts.get("N_max"))}.get(mode)
    if levels is not None:
        name, N = levels
        try:
            _levels_to_build(chain, targets, N)
        except ConstructionError as exc:
            raise ScenarioError(f"{name} = {N}: {exc}") from exc
    sub = doc.get("subspace_condition")
    if sub is not None:
        if not isinstance(sub, dict):
            raise ScenarioError("subspace_condition must be an object")
        _reject_unknown(sub, ("k", "n_samples"), "subspace_condition")
        if "k" not in sub:
            raise ScenarioError("subspace_condition needs k")
        k = _int_field(sub["k"], "subspace_condition.k")
        if not 2 <= k <= len(chain.levels):
            raise ScenarioError(
                f"subspace_condition.k must satisfy 2 <= k <= {len(chain.levels)} "
                f"(the chain's levels), got {k}"
            )
        if targets.value(k) <= 0.0:
            raise ScenarioError(f"subspace_condition needs d_k > 0, got d_{k} = 0")
        n_samples = _int_field(sub.get("n_samples", 20), "subspace_condition.n_samples")
        if n_samples < 1:
            raise ScenarioError(f"subspace_condition.n_samples must be >= 1, got {n_samples}")
        sub = {"k": k, "n_samples": n_samples}
    seed = _int_field(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    return Scenario(
        name=str(doc.get("name", name_hint)),
        ambient_dim=ambient_dim,
        norm=norm,
        chain=chain,
        targets=targets,
        mode=mode,
        tolerance=_parse_tolerance(doc.get("tolerance", 1e-6)),
        N=counts.get("N"),
        N_max=counts.get("N_max"),
        seed=seed,
        subspace_condition=sub,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(doc, name_hint=path)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    scenario_name: str
    mode: str
    verdict: str  # "pass" | "fail"
    tolerance: float
    seed: int
    condition: dict | None = None
    subspace_condition: dict | None = None
    levels: list = field(default_factory=list)  # {k, target, achieved, residual}
    x: list | None = None
    norm_x: float | None = None
    coefficients: list | None = None
    coefficient_bounds: list | None = None
    stabilization: dict | None = None
    checks: dict = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)
    # worst upper - lower over the certified levels (None: none certified);
    # text report only, like wall_time
    certificate_gap: float | None = field(default=None, compare=False)


def _f(x):
    """Canonical float for serialization (shortest lossless repr via json)."""
    return float(x)


def _trace_fields(trace, report: Report):
    report.levels = [
        {
            "k": k,
            "target": _f(trace.targets.value(k)),
            "achieved": _f(res.value),
            "residual": _f(abs(res.value - trace.targets.value(k))),
        }
        for k, res in enumerate(trace.achieved, start=1)
    ]
    report.x = [_f(v) for v in trace.x]
    report.coefficients = [_f(c) for c in trace.coefficients]
    report.certificate_gap = trace.certificate_gap
    if trace.coefficient_bounds:
        report.coefficient_bounds = [
            {"k": b.level, "value": _f(b.value), "bound": _f(b.bound), "ok": b.ok}
            for b in trace.coefficient_bounds
        ]


def _condition_dict(rep) -> dict:
    return {
        "passes": rep.passes,
        "n0": rep.n0,
        "margins": [_f(m) for m in rep.margins],
        "tail_margin_factor": None if rep.tail_margin_factor is None else _f(rep.tail_margin_factor),
    }


def _subspace_samples(scn: Scenario, k: int, n_samples: int):
    """Random elements of the span of the step directions y_k, y_{k+1}, ..."""
    rng = np.random.default_rng(scn.seed)
    top = len(scn.chain.levels)
    dirs = [normalize_step(scn.chain, j) for j in range(k, top + 1)]
    D = np.column_stack(dirs)
    return [D @ rng.standard_normal(D.shape[1]) for _ in range(n_samples)]


def run(scenario: Scenario) -> Report:
    """Execute the scenario's pipeline and assemble a fully measured report.

    Every printed distance holds at the final x: measured there by rho, or
    bracketed there by the duality certificate of the level's solve (see
    construct._measure), with both ends of the bracket gated.
    """
    start = time.perf_counter()
    report = Report(
        scenario_name=scenario.name,
        mode=scenario.mode,
        verdict="fail",
        tolerance=scenario.tolerance,
        seed=scenario.seed,
    )
    opts = ConstructOptions(tol=scenario.tolerance)
    cond = check_borodin_condition(scenario.targets)
    report.condition = _condition_dict(cond)

    if scenario.mode == "check_only":
        ok = cond.passes
        if scenario.subspace_condition is not None:
            k = scenario.subspace_condition["k"]
            samples = _subspace_samples(scenario, k, scenario.subspace_condition["n_samples"])
            sub = check_subspace_condition(scenario.chain, scenario.targets, samples, k)
            report.subspace_condition = {
                "level": sub.level,
                "ratio": _f(sub.ratio),
                "counterexample_found": sub.counterexample_found,
                "verdict": sub.verdict,
                "samples": [
                    {"norm_q": _f(s.norm_q), "rho_q": _f(s.rho_q), "bound": _f(s.bound), "holds": s.holds}
                    for s in sub.samples
                ],
            }
            ok = ok and not sub.counterexample_found
        report.checks["borodin_condition"] = cond.passes
        report.verdict = "pass" if ok else "fail"
        report.wall_time = time.perf_counter() - start
        return report

    if scenario.mode == "finite":
        trace = finite_construct(scenario.chain, scenario.targets, opts)
        _trace_fields(trace, report)
        report.norm_x = _f(norm_eval(trace.x, scenario.norm))
        resid_ok = trace.max_residual <= scenario.tolerance
        report.checks["residuals_within_tolerance"] = resid_ok
        if scenario.targets.is_strictly_decreasing():
            bound_ok = report.norm_x <= scenario.targets.value(1) + 1.0 + scenario.tolerance
            report.checks["norm_bound"] = bound_ok
        report.verdict = "pass" if all(report.checks.values()) else "fail"
    elif scenario.mode == "prefix":
        trace = construct_prefix(scenario.chain, scenario.targets, scenario.N, opts)
        _trace_fields(trace, report)
        report.norm_x = _f(norm_eval(trace.x, scenario.norm))
        report.checks["residuals_within_tolerance"] = trace.max_residual <= scenario.tolerance
        report.checks["coefficient_bounds"] = all(b.ok for b in trace.coefficient_bounds)
        report.verdict = "pass" if all(report.checks.values()) else "fail"
    else:  # sequence
        traces, table = construct_sequence(scenario.chain, scenario.targets, scenario.N_max, opts)
        if traces:
            _trace_fields(traces[-1], report)
            report.norm_x = _f(norm_eval(traces[-1].x, scenario.norm))
            gaps = [t.certificate_gap for t in traces if t.certificate_gap is not None]
            report.certificate_gap = max(gaps, default=None)
        report.stabilization = {
            "prefixes": list(table.prefixes),
            "differences": [[_f(v) for v in row] for row in table.differences],
            "max_tail": [_f(v) for v in table.max_tail],
            "tail_non_increasing": table.tail_non_increasing,
            "failures": [{"N": n, "error": msg} for n, msg in table.failures],
        }
        report.checks["all_prefixes_succeeded"] = not table.failures
        report.checks["residuals_within_tolerance"] = all(
            t.max_residual <= scenario.tolerance for t in traces
        )
        if cond.passes:
            report.checks["stabilization_non_increasing"] = table.tail_non_increasing
        report.verdict = "pass" if all(report.checks.values()) else "fail"

    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit_machine(report: Report) -> str:
    """Canonical JSON form: sorted keys, full float precision, no wall time
    and no certificate gap."""
    doc = asdict(report)
    doc.pop("wall_time")
    doc.pop("certificate_gap")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def parse_report(text: str) -> Report:
    doc = json.loads(text)
    return Report(**doc)


def emit_text(report: Report) -> str:
    lines = []
    lines.append(f"scenario : {report.scenario_name}")
    lines.append(f"mode     : {report.mode}")
    lines.append(f"verdict  : {report.verdict}  (exit 0 on pass, 1 on fail)")
    lines.append(f"tolerance: {report.tolerance:g}")
    if report.condition is not None:
        c = report.condition
        tail = "" if c["tail_margin_factor"] is None else f"  tail factor {c['tail_margin_factor']:.6g}"
        lines.append(
            f"tail-domination condition: {'pass' if c['passes'] else 'FAIL'}"
            f"  n0={c['n0']}{tail}"
        )
        lines.append("  margins: " + "  ".join(f"{m:.6g}" for m in c["margins"]))
    if report.subspace_condition is not None:
        lines.append(f"subspace condition: {report.subspace_condition['verdict']}")
    if report.levels:
        lines.append(f"{'k':>3} {'target':>14} {'achieved':>14} {'residual':>12}")
        first_fail = None
        for row in report.levels:
            mark = ""
            if row["residual"] > report.tolerance and first_fail is None:
                first_fail = row["k"]
                mark = "  <-- first failing level"
            lines.append(
                f"{row['k']:>3} {row['target']:>14.8f} {row['achieved']:>14.8f} "
                f"{row['residual']:>12.3e}{mark}"
            )
        if report.certificate_gap is None:
            lines.append("certificate gap: none certified (levels re-measured by rho)")
        else:
            lines.append(f"certificate gap: {report.certificate_gap:.3e} "
                         "(worst upper - lower bound over the certified levels)")
    if report.norm_x is not None:
        lines.append(f"|x| = {report.norm_x:.10g}")
    if report.coefficients:
        lines.append("coefficients: " + "  ".join(f"{c:.6g}" for c in report.coefficients))
    if report.coefficient_bounds:
        lines.append(f"{'k':>3} {'lambda':>14} {'bound':>14}  ok")
        for b in report.coefficient_bounds:
            lines.append(f"{b['k']:>3} {b['value']:>14.8f} {b['bound']:>14.8f}  {b['ok']}")
    if report.stabilization is not None:
        st = report.stabilization
        lines.append("stabilization |x_N - x_M| (rows/cols = successful prefixes "
                     f"{st['prefixes']}):")
        for row in st["differences"]:
            lines.append("  " + "  ".join(f"{v:10.3e}" for v in row))
        lines.append("max over M>N: " + "  ".join(f"{v:.3e}" for v in st["max_tail"])
                     + f"   non-increasing: {st['tail_non_increasing']}")
        for failure in st["failures"]:
            lines.append(f"prefix {failure['N']} FAILED: {failure['error']}")
    for name, ok in report.checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"wall time: {report.wall_time:.3f} s")
    return "\n".join(lines) + "\n"


def emit(report: Report, format: str = "text_table") -> str:
    if format in ("text", "text_table"):
        return emit_text(report)
    if format in ("machine", "machine_json_like"):
        return emit_machine(report)
    raise ValueError(f"unknown report format {format!r}")


__all__ = [
    "MODES",
    "Report",
    "Scenario",
    "ScenarioError",
    "emit",
    "emit_machine",
    "emit_text",
    "load_scenario",
    "parse_report",
    "parse_scenario",
    "run",
]
