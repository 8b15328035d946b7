#!/usr/bin/env python3
"""Benchmark for the lethargy package.

    python3 bench/run.py --workload finite-lp --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process drives the program as a closed loop with a single
caller: each operation starts when the previous one returns.  The benchmark
starts no threads, and BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes that import the package and build the inputs),
throughput, median and p90 latency, verdict pass fraction and peak resident
memory.  Throughput and latency are expressed in durations of a reference
kernel timed between operations, and set-up time is scaled by it, so that
the host's changing speed cancels (see hostspeed.py).  ``--trace 1``
alternates untraced and traced passes over the first ``pass_ops`` inputs
and reports per-layer counts and times from the spans, with the tracing
overhead.  Outputs are checked against independent references after the
timed region (see checks.py).

The second-to-last stdout line is a JSON record of details (input digest,
report digests, failure reasons, versions); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up probes before and after the timed loop, so that the median spans
# the run rather than one moment of the host's load
SETUP_SAMPLES = 4
# p90 needs at least ten samples beyond it
MIN_OPS = 100


def load_program():
    """Import lethargy from this checkout's src/ and the benchmark modules."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "lethargy", "__init__.py")):
        sys.exit(f"bench: no lethargy sources under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    import lethargy

    if not os.path.abspath(lethargy.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported lethargy from {lethargy.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> None:
    """Child process: import the package, build the inputs, say ready."""
    load_program()
    import workloads

    wl = workloads.WORKLOADS[workload]
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        wl.build(seed, wl.pool_ops, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, kernel) -> list[tuple[float, float]]:
    """Per fresh process: seconds from process start to inputs ready, and the
    reference kernel's duration in seconds measured around it."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        k0 = kernel.seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        out.append((elapsed, 0.5 * (k0 + kernel.seconds())))
    return out


class Tally:
    """Outcomes per input index, with the checks run after the timed region."""

    def __init__(self, wl_name, inputs):
        self.wl_name = wl_name
        self.inputs = inputs
        self.first = {}  # index -> Outcome of its first execution
        self.runs = {}  # index -> executions
        self.mismatch = {}  # index -> executions whose output differed
        self.statuses = []

    def add(self, idx, outcome):
        first = self.first.setdefault(idx, outcome)
        self.runs[idx] = self.runs.get(idx, 0) + 1
        if outcome.output != first.output or outcome.status != first.status:
            self.mismatch[idx] = self.mismatch.get(idx, 0) + 1
        self.statuses.append(outcome.status)

    def verify(self):
        """Failed executions and their reasons."""
        import checks
        import workloads

        failed, reasons = 0, []
        for idx in sorted(self.first):
            o = self.first[idx]
            if o.status == workloads.ERROR:
                why = o.detail
            else:
                why = checks.check(self.wl_name, self.inputs[idx], o)
            if why is not None:
                failed += self.runs[idx]
                reasons.append(f"input {idx}: {why}")
            elif idx in self.mismatch:
                failed += self.mismatch[idx]
                reasons.append(f"input {idx}: output differs between runs of the same input")
        return failed, reasons


def _versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS)}


def run_timed(wl, seed, seconds, workdir):
    import hostspeed
    import workloads

    ref = hostspeed.Timeline()
    setup = measure_setup(wl.name, seed, ref.kernel)
    pool = wl.build(seed, wl.pool_ops, workdir)
    tally = Tally(wl.name, pool)
    order = wl.loop_order(pool) if wl.loop_order else range(len(pool))
    workloads.run_op(wl, pool[0])  # warm-up: lazy imports inside scipy
    ref.kernel()
    starts, lat = [], []
    clock = time.perf_counter_ns
    t_start = clock()
    deadline = t_start + int(seconds * 1e9)
    op_total = 0
    while True:
        idx = order[len(lat) % len(order)]
        t0 = clock()
        outcome = workloads.run_op(wl, pool[idx])
        t1 = clock()
        starts.append(t0)
        lat.append(t1 - t0)
        op_total += t1 - t0
        tally.add(idx, outcome)
        ref.keep_up(op_total, clock)
        if t1 >= deadline and len(lat) >= MIN_OPS:
            break
    elapsed = (clock() - t_start) / 1e9
    setup += measure_setup(wl.name, seed, ref.kernel)
    failed, reasons = tally.verify()
    n = len(lat)
    # latency in units of the reference kernel run next to each operation
    rel = [t / ref.local(t0) for t0, t in zip(starts, lat)]
    lat_ms = [t / 1e6 for t in lat]
    metrics = {
        # set-up time scaled to a host on which the kernel takes NOMINAL_S
        "setup_s": (statistics.median(t * hostspeed.NOMINAL_S / k for t, k in setup), "s"),
        "ops_per_kref": (1000.0 * n / sum(rel), "1/kref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "op_p90_ref": (statistics.quantiles(rel, n=10)[8], "ref"),
        "verdict_pass_frac": (tally.statuses.count(workloads.OK) / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_samples_s": [t for t, _ in setup],
        "wall_setup_s": statistics.median(t for t, _ in setup),
        "ops": n,
        "distinct_inputs": len(tally.first),
        "loop_s": elapsed,
        "p90_samples_beyond": n - int(0.9 * n),
        "wall_ops_per_s": n / (op_total / 1e9),
        "wall_op_p50_ms": statistics.median(lat_ms),
        "wall_op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "ref_kernel_ms": statistics.median(ref.durations) / 1e6,
        "ref_kernel_runs": len(ref.durations),
        "fail_frac": failed / n,
        "verdict_fail_frac": tally.statuses.count(workloads.VERDICT_FAIL) / n,
        "input_digest": workloads.input_digest(pool),
        "output_digest": workloads.output_digest([tally.first[k] for k in sorted(tally.first)]),
    }
    if wl.name == "ladder-l2":
        details["report_sha256"] = [
            workloads.output_sha(tally.first[k]) for k in sorted(tally.first)
        ]
    return n, failed, metrics, details, reasons


def one_pass(wl, seed, workdir, tracer):
    """Build the first pass_ops inputs and run them once, traced or not."""
    import workloads

    sub = tempfile.mkdtemp(dir=workdir)
    scope = tracer.operation if tracer else (lambda *a: nullcontext())
    try:
        t0 = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            with scope(-1, "setup"):
                inputs = wl.build(seed, wl.pass_ops, sub)
            outcomes = []
            for i, inp in enumerate(inputs):
                with scope(i):
                    outcomes.append(workloads.run_op(wl, inp))
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(sub, ignore_errors=True)
    return inputs, outcomes, elapsed


def _max_residual(wl_name, outcomes) -> float:
    worst = 0.0
    for o in outcomes:
        if o.value is None:
            continue
        if wl_name == "finite-lp":
            worst = max(worst, o.value.max_residual)
        elif wl_name == "ladder-l2":
            worst = max([worst] + [row["residual"] for row in json.loads(o.value)["levels"]])
    return worst


def run_traced(wl, seed, seconds, workdir):
    import tracing
    import workloads

    plain, traced, layers = [], [], []
    inputs = tally = None
    warm = wl.build(seed, 1, workdir)
    workloads.run_op(wl, warm[0])  # warm-up: lazy imports inside scipy
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        for tracer in (None, tracing.Tracer()):
            inputs, outcomes, elapsed = one_pass(wl, seed, workdir, tracer)
            if tally is None:
                tally = Tally(wl.name, inputs)
            for idx, o in enumerate(outcomes):
                tally.add(idx, o)
            if tracer is None:
                plain.append(elapsed)
            else:
                traced.append(elapsed)
                layers.append(tracing.layer_metrics(tracer.spans))
                if len(layers) == 1:
                    first_outcomes = outcomes
    failed, reasons = tally.verify()
    unsteady = [k for k in layers[0] if not tracing.is_time(k)
                and any(lm[k] != layers[0][k] for lm in layers[1:])]
    if unsteady:
        reasons.append(f"layer counts differ between passes: {unsteady}")
    metrics = {}
    for k in layers[0]:
        if tracing.is_time(k):
            metrics[k] = statistics.median(lm[k] for lm in layers)
        else:
            metrics[k] = layers[0][k]
    metrics["construct.max_residual"] = _max_residual(wl.name, first_outcomes)
    metrics["scenario.report_bytes"] = (
        sum(len(o.output) for o in first_outcomes) if wl.name == "ladder-l2" else 0
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    n = len(tally.statuses)
    details = {
        "pass_ops": wl.pass_ops,
        "passes": {"untraced_s": plain, "traced_s": traced},
        "ops": n,
        "fail_frac": failed / n,
        "verdict_fail_frac": tally.statuses.count(workloads.VERDICT_FAIL) / n,
        "input_digest": workloads.input_digest(inputs),
        "output_digest": workloads.output_digest(first_outcomes),
    }
    if wl.name == "ladder-l2":
        details["report_sha256"] = [workloads.output_sha(o) for o in first_outcomes]
    metrics = {k: (v, tracing.unit(k)) for k, v in metrics.items()}
    return n, failed, metrics, details, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        run = run_traced if args.trace else run_timed
        attempted, failed, metrics, details, reasons = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   loop="closed", callers=1, failures=reasons[:10], **_versions())
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
