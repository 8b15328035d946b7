"""Independent output checks, run after the timed loop.

The references use only numpy and scipy on the bases the benchmark itself
generated, never the program's solvers:

* p in {1, inf}: the dual linear program  max <f, x>  s.t.  A^T f = 0,
  |f|_q <= 1  (Hahn-Banach duality), solved by HiGHS in its own formulation;
* p = 2: least squares on the generated basis;
* p = 3: first-order optimality of the program's witness,
  A^T (|r|^(p-1) sign r) = 0 for r = x - witness, with the witness in span A.

Each check returns None on success or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog

from workloads import FINITE_TOL, FiniteInput, LadderInput, SweepInput

# HiGHS solves to primal/dual feasibility 1e-7; two LPs (primal in the
# program, dual here) may each sit that far from the optimum.
LP_RTOL = 1e-7
# two least-squares computations on differently factored bases
L2_RTOL = 1e-10
# witness optimality for the smooth route: |A^T phi| <= GRAD_RTOL |phi|
GRAD_RTOL = 1e-6
# rounding allowance between the program's residual and the reference one
# when comparing against a construction tolerance
ROUND_ATOL = 1e-12


def lp_norm(v: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(v)))
    if p == 1.0:
        return float(np.sum(np.abs(v)))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _dual_lp(x: np.ndarray, A: np.ndarray, p: float) -> float:
    m = x.size
    if p == 1.0:  # |f|_inf <= 1
        res = linprog(-x, A_eq=A.T, b_eq=np.zeros(A.shape[1]), bounds=[(-1.0, 1.0)] * m,
                      method="highs")
    else:  # p = inf, |f|_1 <= 1 with f = fp - fn
        res = linprog(np.concatenate([-x, x]), A_ub=np.ones((1, 2 * m)), b_ub=[1.0],
                      A_eq=np.hstack([A.T, -A.T]), b_eq=np.zeros(A.shape[1]),
                      bounds=[(0.0, None)] * (2 * m), method="highs")
    if not res.success:
        raise RuntimeError(f"reference dual LP failed: {res.message}")
    return -float(res.fun)


def ref_distance(x: np.ndarray, A: np.ndarray, p: float) -> float:
    """rho(x, span A) under the lp norm, p in {1, 2, inf}."""
    if A.shape[1] == 0:
        return lp_norm(x, p)
    if p == 2.0:
        c = np.linalg.lstsq(A, x, rcond=None)[0]
        return float(np.linalg.norm(x - A @ c))
    if p == 1.0 or math.isinf(p):
        return _dual_lp(x, A, p)
    raise ValueError(f"no reference distance for p = {p}")


def _rtol(p: float) -> float:
    return L2_RTOL if p == 2.0 else LP_RTOL


def _in_span(w: np.ndarray, A: np.ndarray) -> bool:
    c = np.linalg.lstsq(A, w, rcond=None)[0]
    return float(np.linalg.norm(w - A @ c)) <= 1e-9 * max(1.0, float(np.linalg.norm(w)))


# ---------------------------------------------------------------------------


def check_finite(inp: FiniteInput, trace) -> str | None:
    """Re-measure every level against d_k within the construction tolerance."""
    x, tol = trace.x, FINITE_TOL
    eye = np.eye(inp.chain.ambient_dim)
    for k in range(1, len(inp.targets) + 1):
        ref = ref_distance(x, eye[:, :k], inp.p)
        d = inp.targets.value(k)
        if abs(ref - d) > tol + ROUND_ATOL:
            return f"level {k}: rho = {ref!r}, target {d!r}, tolerance {tol:g}"
        claimed = trace.achieved[k - 1].value
        if abs(claimed - ref) > LP_RTOL * max(1.0, ref):
            return f"level {k}: reported rho {claimed!r}, reference {ref!r}"
    return None


def check_ladder(inp: LadderInput, text: str, exit_status: str) -> str | None:
    """Parse the machine report and re-measure every level of x against d_k."""
    rep = json.loads(text)
    doc = inp.doc
    if rep["scenario_name"] != doc["name"] or rep["mode"] != "sequence":
        return "report names another scenario or mode"
    if (rep["verdict"] == "pass") != (exit_status == "ok"):
        return f"verdict {rep['verdict']!r} disagrees with the exit code"
    n_max, tol = doc["N_max"], doc["tolerance"]
    if len(rep["levels"]) != n_max or len(rep["x"]) != doc["ambient_dim"]:
        return "report has the wrong number of levels or coordinates"
    x = np.asarray(rep["x"], dtype=float)
    scale = max(1.0, float(np.linalg.norm(x)))
    for row in rep["levels"]:
        k = row["k"]
        d = inp.target(k)
        ref = ref_distance(x, inp.basis[:, :k], 2.0)
        if abs(row["target"] - d) > 1e-15 * d:
            return f"level {k}: report target {row['target']!r}, expected {d!r}"
        if abs(ref - d) > tol + ROUND_ATOL:
            return f"level {k}: rho = {ref!r}, target {d!r}, tolerance {tol:g}"
        if abs(row["achieved"] - ref) > L2_RTOL * scale:
            return f"level {k}: reported rho {row['achieved']!r}, reference {ref!r}"
    return None


def _check_rho(inp: SweepInput, res) -> str | None:
    A, x, p = inp.raw, inp.x1, inp.p
    w = inp.Y.basis @ res.witness_coeffs
    if not _in_span(w, A):
        return "witness lies outside the subspace"
    r = x - w
    if abs(lp_norm(r, p) - res.value) > 1e-12 * max(1.0, res.value):
        return f"value {res.value!r} differs from the witness residual {lp_norm(r, p)!r}"
    if p == 3.0:
        phi = np.abs(r) ** (p - 1.0) * np.sign(r)
        Qo = np.linalg.qr(A)[0]
        grad = float(np.linalg.norm(Qo.T @ phi))
        if grad > GRAD_RTOL * float(np.linalg.norm(phi)):
            return f"witness not optimal: |A^T phi| = {grad:.3e}"
        return None
    ref = ref_distance(x, A, p)
    if abs(res.value - ref) > _rtol(p) * max(1.0, ref):
        return f"rho {res.value!r}, reference {ref!r}"
    return None


def _dual_norm(d: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.sum(np.abs(d)))
    if p == 1.0:
        return float(np.max(np.abs(d)))
    return lp_norm(d, p / (p - 1.0))


def _check_norming(inp: SweepInput, f) -> str | None:
    A, p = inp.raw, inp.p
    d = f.dual_vector
    Qo = np.linalg.qr(A)[0]
    if float(np.linalg.norm(Qo.T @ d)) > LP_RTOL * float(np.linalg.norm(d)):
        return "f does not vanish on Q"
    if abs(float(d @ inp.x1) - 1.0) > LP_RTOL:
        return f"f(x1) = {float(d @ inp.x1)!r}, expected 1"
    rho1 = ref_distance(inp.x1, A, p)
    if abs(_dual_norm(d, p) * rho1 - 1.0) > 1e-6:
        return f"|f| rho(x1, Q) = {_dual_norm(d, p) * rho1!r}, expected 1"
    if inp.x2 is not None:
        # the pinned value is the limit of the non-decreasing g(a), bounded
        # by rho(x2, Q) / rho(x1, Q); g(a) at any a is a lower bound
        a = 1e3
        upper = ref_distance(inp.x2, A, p) / rho1
        lower = a - a * ref_distance(inp.x2 / a - inp.x1, A, p) / rho1
        fx2 = float(d @ inp.x2)
        slack = 1e-6 * max(1.0, abs(upper))
        if not (lower - slack <= fx2 <= upper + slack):
            return f"f(x2) = {fx2!r} outside [{lower!r}, {upper!r}]"
    return None


def check_sweep(inp: SweepInput, value) -> str | None:
    if inp.kind == "rho":
        return _check_rho(inp, value)
    return _check_norming(inp, value)


def check(workload_name: str, inp, outcome) -> str | None:
    if workload_name == "finite-lp":
        return check_finite(inp, outcome.value)
    if workload_name == "ladder-l2":
        return check_ladder(inp, outcome.value, outcome.status)
    return check_sweep(inp, outcome.value)
