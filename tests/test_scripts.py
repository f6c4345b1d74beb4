"""Smoke runs of the experiment scripts in scripts/ with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["primitivity_survey.py", "--exhaustive-max-size", "2", "--random-samples", "5"],
    ["measure_pipeline.py", "--depth", "1", "--csv", "{tmp}/scan.csv"],
    ["equidistribution_scan.py", "--max-period", "6", "--max-denominator", "8"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(tmp_path, argv):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [arg.format(tmp=tmp_path) for arg in argv]
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    if "--csv" in args:
        assert (tmp_path / "scan.csv").exists()
