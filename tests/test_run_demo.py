"""Smoke test of scripts/run_demo.py, which calls cli.main once per bundled
scenario in one process."""

import os
import subprocess
import sys
from pathlib import Path

from lethargy import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_demo.py"


def test_run_demo_runs_every_bundled_scenario():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    expected = [f"--> {name}: exit {1 if name.endswith('-xfail') else 0} (as expected)"
                for name in cli.list_bundled()]
    assert [line for line in out.stdout.splitlines() if line.startswith("--> ")] == expected
    assert out.stdout.splitlines()[-1] == "all bundled scenarios behaved as expected"
