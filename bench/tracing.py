"""In-memory spans around the module bindings the program calls through.

The tracer replaces selected module attributes (for example
``lethargy.construct.rho``) with wrappers that record one span per call:
name, start, end, parent span and operation id.  Nothing inside the program
is edited; uninstalling restores the original bindings.  Per-layer numbers
are aggregated from the spans of one pass; a span's self time is its duration
minus the time covered by its direct child spans (calls are single-threaded
and nested, so children never overlap).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

ROUTES = ("linear_program", "closed_form_l2", "convex_descent", "zero_subspace")

# (module, attribute, span name).  Several bindings of one function share a
# span name, because each importing module holds its own reference.
BINDINGS = (
    ("lethargy.distance", "rho", "distance.rho"),
    ("lethargy.construct", "rho", "distance.rho"),
    ("lethargy.functionals", "rho", "distance.rho"),
    ("lethargy.distance", "linprog", "distance.lp"),
    ("lethargy.distance", "minimize", "distance.lbfgs"),
    ("lethargy.functionals", "linprog", "functionals.dual_lp"),
    ("lethargy.functionals", "limit_expression", "functionals.limit_expression"),
    ("lethargy.functionals", "norming_functional", "functionals.norming"),
    ("lethargy.construct", "norming_functional", "functionals.norming"),
    ("lethargy.construct", "smallest_root", "construct.smallest_root"),
    ("lethargy.construct", "normalize_step", "construct.normalize_step"),
    ("lethargy.construct", "interpolating_family", "construct.interpolating_family"),
    ("lethargy.construct", "finite_construct", "construct.finite_construct"),
    ("lethargy.scenario", "construct_sequence", "construct.construct_sequence"),
    ("lethargy.scenario", "validate_chain", "spaces.validate_chain"),
    ("lethargy.cli", "load_scenario", "scenario.parse"),
    ("lethargy.cli", "run", "scenario.run"),
    ("lethargy.cli", "emit", "scenario.emit"),
)

CONSTRUCT_SPANS = (
    "construct.finite_construct",
    "construct.construct_sequence",
    "construct.smallest_root",
    "construct.normalize_step",
    "construct.interpolating_family",
)

# span record fields
NAME, START, END, PARENT, OP, TAG = range(6)


def _route(result):
    return result.solver


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name, fn, tag=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[TAG] = "error:" + type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(out)
            return out

        return traced

    @contextmanager
    def operation(self, op_id, name="op"):
        """Root span for one benchmark operation (or for input set-up)."""
        self._op = op_id
        rec = [name, 0, 0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        try:
            yield
        finally:
            rec[END] = perf_counter_ns()
            self._stack.pop()
            self._op = -1

    @contextmanager
    def installed(self):
        """Patch every binding in BINDINGS and Subspace.__init__; restore on exit."""
        spaces = importlib.import_module("lethargy.spaces")
        saved = []
        try:
            for mod_name, attr, span_name in BINDINGS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                tag = _route if span_name == "distance.rho" else None
                setattr(mod, attr, self.wrap(span_name, orig, tag))
            init = spaces.Subspace.__init__
            saved.append((spaces.Subspace, "__init__", init))
            spaces.Subspace.__init__ = self.wrap("spaces.subspace", init)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def layer_metrics(spans) -> dict:
    """Per-layer counts and times (totals over the spans given)."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0] * n
    in_root = [False] * n
    count: dict[str, int] = {}
    total: dict[str, int] = {}
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[i]
        if parent >= 0:
            child[parent] += dur[i]
            in_root[i] = in_root[parent] or spans[parent][NAME] == "construct.smallest_root"

    def c(name):
        return count.get(name, 0)

    def ms(name):
        return total.get(name, 0) / 1e6

    def us(name):
        return total.get(name, 0) / 1e3

    rho_calls = {r: 0 for r in ROUTES}
    rho_ns = {r: 0 for r in ROUTES}
    solver_errors = probes = root_lps = unused = 0
    construct_self = 0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        pname = spans[parent][NAME] if parent >= 0 else None
        if name == "distance.rho":
            if s[TAG] in rho_calls:
                rho_calls[s[TAG]] += 1
                rho_ns[s[TAG]] += dur[i]
            elif s[TAG] == "error:SolverError":
                solver_errors += 1
            if pname == "construct.smallest_root":
                probes += 1
        elif name == "distance.lp" and in_root[i]:
            root_lps += 1
        elif name == "functionals.norming" and pname == "construct.interpolating_family":
            # interpolating_family's only caller keeps members[0].q and drops f
            unused += 1
        if name in CONSTRUCT_SPANS:
            construct_self += dur[i] - child[i]

    op_ns = total.get("op", 0)
    roots = c("construct.smallest_root")
    out = {
        "spaces.subspace_calls": c("spaces.subspace"),
        "spaces.subspace_ms": ms("spaces.subspace"),
        "spaces.validate_ms": ms("spaces.validate_chain"),
    }
    for r in ROUTES:
        out[f"distance.rho_calls.{r}"] = rho_calls[r]
    for r in ROUTES:
        out[f"distance.rho_us.{r}"] = rho_ns[r] / 1e3
    out.update({
        "distance.lp_calls": c("distance.lp"),
        "distance.lp_us": us("distance.lp"),
        "distance.lp_share": total.get("distance.lp", 0) / op_ns if op_ns else 0.0,
        "distance.lbfgs_calls": c("distance.lbfgs"),
        "distance.lbfgs_us": us("distance.lbfgs"),
        "distance.solver_errors": solver_errors,
        "functionals.norming_calls": c("functionals.norming"),
        "functionals.norming_ms": ms("functionals.norming"),
        "functionals.norming_unused": unused,
        "functionals.limit_expr_calls": c("functionals.limit_expression"),
        "functionals.dual_lp_calls": c("functionals.dual_lp"),
        "construct.root_solves": roots,
        "construct.root_probes": probes,
        "construct.root_lp_calls": root_lps,
        "construct.probes_per_root": probes / roots if roots else 0.0,
        "construct.root_ms": ms("construct.smallest_root"),
        "construct.step_calls": c("construct.normalize_step"),
        "construct.step_ms": ms("construct.normalize_step"),
        "construct.family_calls": c("construct.interpolating_family"),
        "construct.family_ms": ms("construct.interpolating_family"),
        "construct.self_ms": construct_self / 1e6,
        "scenario.parse_ms": ms("scenario.parse"),
        "scenario.run_ms": ms("scenario.run"),
        "scenario.emit_ms": ms("scenario.emit"),
        "trace.spans": n,
    })
    return out


def is_time(name: str) -> bool:
    """Timed metrics vary run to run; every other layer metric is a count or
    a ratio of counts and repeats exactly for the same inputs."""
    return name.endswith(("_ms", "_us")) or ".rho_us." in name or name == "distance.lp_share"


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us") or ".rho_us." in name:
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name in ("distance.lp_share", "construct.probes_per_root", "construct.max_residual"):
        return "1"
    return "count"
