"""Seeded inputs and operations for the three benchmark workloads.

Each workload builds a pool of inputs from its seed and runs one operation
per input through the public API of ``lethargy``.  Pools are built block by
block from one random stream, so the first n inputs of a pool do not depend
on how many more follow; a traced pass runs the first ``pass_ops`` of them.

* finite-lp       ``construct.finite_construct`` on the criterion-2 draws
                  (coordinate chains, p alternating 1 / inf): bound by the
                  number of LPs, most of them root-solve probes.
* ladder-l2       ``cli.main(["sequence", path, "--format", "machine"])`` on
                  generated p = 2 scenario files: no LP at all; parsing,
                  validation, interpolating families, the O(N^2) table.
* distance-sweep  ``distance.rho`` and ``functionals.norming_functional``
                  (with and without x2) over m in {16, 64, 256} and
                  p in {1, 2, 3, inf}: size-dependent LP cost, L-BFGS route.

Functions of the program are looked up on their module at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from lethargy import cli, construct, distance, functionals
from lethargy.spaces import NormSpec, Subspace, coordinate_chain

# Outcome of one operation.
OK, VERDICT_FAIL, ERROR = "ok", "verdict_fail", "error"


@dataclass
class Outcome:
    status: str  # OK, VERDICT_FAIL or ERROR
    value: object  # the program's output, kept for the output check
    output: bytes  # canonical bytes of that output, for digests
    detail: str = ""


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# finite-lp
# ---------------------------------------------------------------------------


def _strictly_decreasing(rng, n, lo=0.01, hi=1.0):
    # same draws as the criterion-2 corpus in tests/test_acceptance.py
    vals = np.sort(rng.uniform(lo, hi, n))[::-1]
    while np.any(np.diff(vals) >= -1e-4):
        vals = np.sort(rng.uniform(lo, hi, n))[::-1]
    return construct.TargetSequence(tuple(vals))


FINITE_TOL = 1e-6  # the construction tolerance, as in criterion 2


@dataclass
class FiniteInput:
    chain: object
    targets: object
    p: float

    def digest_bytes(self) -> bytes:
        return json.dumps(
            ["finite", self.chain.ambient_dim, len(self.chain), repr(self.p),
             [repr(v) for v in self.targets.values]]
        ).encode()


def build_finite(seed: int, n_ops: int, workdir: str) -> list[FiniteInput]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_ops):
        p = 1.0 if i % 2 == 0 else math.inf
        dim = int(rng.integers(3, 9))
        n = int(rng.integers(1, min(5, dim - 1) + 1))
        chain = coordinate_chain(dim, n, NormSpec(p))
        out.append(FiniteInput(chain, _strictly_decreasing(rng, n), p))
    return out


def _level_shares() -> dict[int, float]:
    """P(n) under these draws: dim uniform on 3..8, n uniform on 1..min(5, dim - 1)."""
    share = dict.fromkeys(range(1, 6), 0.0)
    for dim in range(3, 9):
        top = min(5, dim - 1)
        for n in range(1, top + 1):
            share[n] += 1.0 / (6 * top)
    return share


def finite_loop_order(pool: list[FiniteInput]) -> list[int]:
    """Timed-loop order in which every prefix holds each level count n in its
    share under the generator.

    A construction costs about 20 LPs per level, so the mix of n in the
    prefix a run reaches sets its throughput.  Left to the draws, that mix
    moved ops_per_kref by 12% (interquartile) across seeds.
    """
    share = _level_shares()
    by_n = {n: [i for i, inp in enumerate(pool) if len(inp.targets) == n] for n in share}
    by_n = {n: idx for n, idx in by_n.items() if idx}
    taken = dict.fromkeys(by_n, 0)
    order = []
    for t in range(1, len(pool) + 1):
        n = max(by_n, key=lambda n: share[n] * t - taken[n])  # largest deficit
        order.append(by_n[n][taken[n] % len(by_n[n])])
        taken[n] += 1
    return order


def run_finite(inp: FiniteInput) -> Outcome:
    opts = construct.ConstructOptions(tol=FINITE_TOL)
    trace = construct.finite_construct(inp.chain, inp.targets, opts)
    return Outcome(OK, trace, trace.x.tobytes() + np.asarray(trace.coefficients).tobytes())


# ---------------------------------------------------------------------------
# ladder-l2
# ---------------------------------------------------------------------------

LADDER_N_MAX = tuple(range(8, 25))  # one block holds every N_max once
LADDER_TOL = 1e-8


@dataclass
class LadderInput:
    path: str
    doc: dict
    basis: np.ndarray  # columns spanning the top level; Y_k = first k columns

    def digest_bytes(self) -> bytes:
        return json.dumps(self.doc, sort_keys=True).encode()

    def target(self, k: int) -> float:
        t = self.doc["targets"]
        return t["values"][0] * t["ratio"] ** (k - 1)


def _ladder_doc(rng, i: int, n_max: int, explicit: bool):
    m = n_max + 1 + int(rng.integers(0, 4))
    ratio = float(rng.uniform(0.25, 0.45))
    d1 = float(rng.uniform(0.5, 2.0))
    doc = {
        "version": "1",
        "name": f"ladder-{i:04d}",
        "ambient_dim": m,
        "norm_p": 2,
        "targets": {"values": [d1], "tail": "geometric", "ratio": ratio},
        "mode": "sequence",
        "tolerance": LADDER_TOL,
        "N_max": n_max,
    }
    if explicit:
        A = rng.standard_normal((m, n_max))
        doc["chain"] = {"levels": [A[:, : k + 1].T.tolist() for k in range(n_max)]}
    else:
        A = np.eye(m)[:, :n_max]
        doc["chain"] = {"generator": "coordinate", "n_levels": n_max}
    return doc, A


def build_ladder(seed: int, n_ops: int, workdir: str) -> list[LadderInput]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_ops:
        for pos, n_max in enumerate(rng.permutation(LADDER_N_MAX)):
            i = len(out)
            # coordinate and explicit random-basis chains alternate in a block
            doc, A = _ladder_doc(rng, i, int(n_max), explicit=pos % 2 == 1)
            path = os.path.join(workdir, f"ladder-{i:04d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out.append(LadderInput(path, doc, A))
    return out[:n_ops]


def run_ladder(inp: LadderInput) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["sequence", inp.path, "--format", "machine"])
    text = out.getvalue()
    if code == cli.EXIT_PASS:
        status = OK
    elif code == cli.EXIT_FAIL:
        status = VERDICT_FAIL
    else:
        return Outcome(ERROR, None, text.encode(), f"exit {code}: {err.getvalue().strip()}")
    return Outcome(status, text, text.encode())


# ---------------------------------------------------------------------------
# distance-sweep
# ---------------------------------------------------------------------------

SWEEP_M = (16, 64, 256)
SWEEP_P = (1.0, 2.0, 3.0, math.inf)
# One block holds, for every (m, p), four rho calls and, for p in {1, 2, inf},
# one norming functional without x2 and one with x2.  Norming functionals at
# p = 3 go through SLSQP, which takes seconds at m = 256 and can fail there
# ("rank-deficient equality constraint subproblem"), so p = 3 is measured
# through rho (the convex_descent route) only.
SWEEP_CELLS = tuple(
    (m, p, kind)
    for m in SWEEP_M
    for p in SWEEP_P
    for kind in ("rho",) * 4 + (() if p == 3.0 else ("norming", "norming_x2"))
)


@dataclass
class SweepInput:
    kind: str
    p: float
    raw: np.ndarray  # basis columns as generated
    Y: Subspace
    x1: np.ndarray
    x2: np.ndarray | None

    def digest_bytes(self) -> bytes:
        parts = [self.kind.encode(), repr(self.p).encode(), self.raw.tobytes(), self.x1.tobytes()]
        if self.x2 is not None:
            parts.append(self.x2.tobytes())
        return b"|".join(parts)


def build_sweep(seed: int, n_ops: int, workdir: str) -> list[SweepInput]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_ops:
        for j in rng.permutation(len(SWEEP_CELLS)):
            m, p, kind = SWEEP_CELLS[j]
            r = int(rng.integers(1, 9))
            raw = rng.standard_normal((m, r))
            x1 = rng.standard_normal(m)
            x2 = rng.standard_normal(m) if kind == "norming_x2" else None
            out.append(SweepInput(kind, p, raw, Subspace(raw), x1, x2))
    return out[:n_ops]


def run_sweep(inp: SweepInput) -> Outcome:
    norm = NormSpec(inp.p)
    if inp.kind == "rho":
        res = distance.rho(inp.x1, inp.Y, norm)
        return Outcome(OK, res, np.array([res.value]).tobytes() + res.witness_coeffs.tobytes())
    f = functionals.norming_functional(inp.x1, inp.Y, norm, x2=inp.x2)
    return Outcome(OK, f, f.dual_vector.tobytes())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    pool_ops: int  # inputs built for a timed run; the loop cycles through them
    pass_ops: int  # inputs in one traced (or untraced reference) pass
    loop_order: object = None  # pool -> index order of the timed loop


WORKLOADS = {
    "finite-lp": Workload("finite-lp", build_finite, run_finite, pool_ops=600, pass_ops=50,
                          loop_order=finite_loop_order),
    "ladder-l2": Workload("ladder-l2", build_ladder, run_ladder, pool_ops=8 * 17, pass_ops=17),
    "distance-sweep": Workload("distance-sweep", build_sweep, run_sweep,
                               pool_ops=16 * len(SWEEP_CELLS), pass_ops=len(SWEEP_CELLS)),
}


def run_op(workload: Workload, inp) -> Outcome:
    """One operation; an exception from the program is an ERROR outcome."""
    try:
        return workload.run(inp)
    except Exception as exc:  # the benchmark counts it and keeps going
        return Outcome(ERROR, None, b"", f"{type(exc).__name__}: {exc}")


def input_digest(inputs) -> str:
    return _sha(*(inp.digest_bytes() + b"\n" for inp in inputs))


def output_digest(outcomes) -> str:
    return _sha(*(o.status.encode() + b":" + o.output + b"\n" for o in outcomes))


def output_sha(outcome: Outcome) -> str:
    return _sha(outcome.output)
