"""Tests of the benchmark itself: determinism, the LP baseline, output format.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = {"finite-lp": 202, "ladder-l2": 3, "distance-sweep": 5}


@functools.lru_cache(maxsize=None)
def traced_pass(name: str, seed: int):
    """(input digest, output digest, report digests, layer metrics) of one pass."""
    wl = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT)
    try:
        tracer = tracing.Tracer()
        inputs, outcomes, _ = run.one_pass(wl, seed, workdir, tracer)
        layers = tracing.layer_metrics(tracer.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert all(o.status != workloads.ERROR for o in outcomes), [o.detail for o in outcomes]
    return (
        workloads.input_digest(inputs),
        workloads.output_digest(outcomes),
        tuple(workloads.output_sha(o) for o in outcomes),
        layers,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_inputs_reports_and_counts(name):
    seed = SEEDS[name]
    a = traced_pass(name, seed)
    traced_pass.cache_clear()
    b = traced_pass(name, seed)
    assert a[:3] == b[:3]
    counts = [k for k in a[3] if not tracing.is_time(k)]
    assert {k: a[3][k] for k in counts} == {k: b[3][k] for k in counts}
    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-tmp-") as d:
        other = workloads.input_digest(wl.build(seed + 1, wl.pass_ops, d))
    assert other != a[0]


def test_pool_prefix_is_the_traced_pass():
    for name, wl in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-tmp-") as d:
            pool = wl.build(7, wl.pool_ops, d)
            head = wl.build(7, wl.pass_ops, d)
        assert len(pool) == wl.pool_ops
        assert workloads.input_digest(pool[: wl.pass_ops]) == workloads.input_digest(head), name


def test_finite_lp_reproduces_lp_baseline():
    """Criterion-2 corpus, seed 202, first 50 constructions."""
    layers = traced_pass("finite-lp", 202)[3]
    assert layers["distance.lp_calls"] == 1578
    assert layers["construct.root_lp_calls"] == 1245
    assert layers["construct.root_solves"] == 61
    assert 0.8 < layers["distance.lp_share"] < 1.0


def _bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_output_has_every_declared_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = _bench("--workload", "distance-sweep", "--seed", "1", "--seconds", "0.5",
                      "--trace", trace, cwd=run.ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "finite-lp", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
