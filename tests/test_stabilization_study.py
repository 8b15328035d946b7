"""Smoke test of scripts/stabilization_study.py, which drives construct_sequence."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "stabilization_study.py"


def test_stabilization_study_reports_every_ratio():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--ratios", "0.25", "0.45", "--n-max", "4", "--dim", "6"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("ratio ")] == [
        "ratio 0.2500", "ratio 0.4500"]
    assert sum("worst residual across prefixes" in line for line in lines) == 2
    assert "failed" not in out.stdout
