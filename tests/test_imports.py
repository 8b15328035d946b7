"""scipy is imported where a route first needs it, never by the package
import: p = 2 and coordinate-chain runs load none of it, the vertex exchange
loads LAPACK alone, and a first LAPACK call and a first HiGHS solve may run
in two threads at once.  Each check runs in a fresh interpreter, since the
test process holds scipy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(source: str) -> dict:
    """Run source in a new interpreter with src/ on its path; the JSON object
    it prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


IMPORT_STAGES = """
import contextlib, io, json, math, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

stages = {}
import lethargy
stages["import"] = scipy_modules()

import numpy as np
from lethargy import NormSpec, Subspace, TargetSequence, cli, coordinate_chain, finite_construct, rho
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["demo", "geometric-third-sequence", "--format", "machine"])
stages["demo_exit"] = code
for p in (1.0, math.inf):
    trace = finite_construct(coordinate_chain(6, 4, NormSpec(p)), TargetSequence((0.9, 0.6, 0.35, 0.1)))
    stages[f"finite_{p}"] = trace.max_residual
stages["p2_and_coordinate"] = scipy_modules()

rng = np.random.default_rng(0)
rho(rng.standard_normal(16), Subspace(rng.standard_normal((16, 3))), NormSpec(1.0))
stages["linalg_after_rho"] = "scipy.linalg" in sys.modules
stages["optimize_after_rho"] = "scipy.optimize" in sys.modules

import scipy.optimize
from lethargy import distance
stages["minimize"] = distance.minimize is scipy.optimize.minimize
print(json.dumps(stages))
"""


def test_scipy_is_imported_only_by_the_routes_that_call_it():
    stages = run_fresh(IMPORT_STAGES)
    assert stages["import"] == []
    assert stages["demo_exit"] == 0
    assert stages["finite_1.0"] <= 1e-12 and stages["finite_inf"] <= 1e-12
    assert stages["p2_and_coordinate"] == []
    assert stages["linalg_after_rho"] and not stages["optimize_after_rho"]
    assert stages["minimize"]


COLD_THREADS = """
import json, sys, threading
import numpy as np
from lethargy import NormSpec, Subspace, rho
from lethargy.distance import level_endpoint

rng = np.random.default_rng(4)
sup_case = (rng.standard_normal(16), Subspace(rng.standard_normal((16, 3))), NormSpec(float("inf")))
x, q = rng.standard_normal(8), rng.standard_normal(8)
l1_case = (x, q, Subspace(rng.standard_normal((8, 3))), NormSpec(1.0), float(np.abs(x).sum()))

def bits(res):
    # a DistanceResult, or a level set's Endpoint, as exact hex floats
    t, res = (res.t, res.certificate) if hasattr(res, "certificate") else (None, res)
    return [None if t is None else t.hex(), res.value.hex(), [v.hex() for v in res.witness_coeffs],
            [v.hex() for v in res.dual_direction]]

cold = "scipy.linalg" not in sys.modules and "scipy.optimize" not in sys.modules
barrier, threaded, errors = threading.Barrier(2), {}, []

def first_call(name, f, args):
    try:
        barrier.wait(timeout=60)
        threaded[name] = bits(f(*args))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_call, args=("lapack", rho, sup_case), daemon=True),
           threading.Thread(target=first_call, args=("highs", level_endpoint, l1_case), daemon=True)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)  # interleave the two imports finely
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
alive = [t.is_alive() for t in threads]
serial = {"lapack": bits(rho(*sup_case)), "highs": bits(level_endpoint(*l1_case))}
print(json.dumps({"cold": cold, "alive": alive, "errors": errors, "threaded": threaded, "serial": serial}))
"""


def test_first_lapack_and_highs_calls_in_two_threads_match_serial():
    # the first LAPACK call (the p = inf exchange) and the first HiGHS solve
    # (a p = 1 level-set LP) import scipy.linalg and scipy.optimize at once
    out = run_fresh(COLD_THREADS)
    assert out["cold"] and out["alive"] == [False, False] and out["errors"] == []
    assert out["threaded"] == out["serial"]
