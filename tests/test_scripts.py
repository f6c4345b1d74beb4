"""Runs of the experiment scripts that README's "Experiment scripts" block lists,
as written there, so the README and scripts/ cannot drift apart, and a check of
what the equidistribution scan prints."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from symshadow.measures import LebesgueTorus, fourier_family, rational_orbit_distances
from symshadow.systems import cat_map

ROOT = Path(__file__).resolve().parents[1]


def readme_scripts() -> list[list[str]]:
    """The argument lists of the commands in README's "Experiment scripts"
    block, comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Experiment scripts", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [words for words in commands if words]


def test_readme_lists_every_script():
    listed = {Path(argv[1]).name for argv in readme_scripts()}
    assert listed == {path.name for path in (ROOT / "scripts").glob("*.py")}


def run_script(args: list[str]) -> subprocess.CompletedProcess:
    """The script args[0] run with args[1:] from the repository root on its src/."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", readme_scripts(), ids=lambda argv: Path(argv[1]).name)
def test_script_exits_zero(argv):
    assert argv[0] == "python" and argv[1].startswith("scripts/")
    result = run_script(argv[1:])
    assert result.returncode == 0, result.stdout + result.stderr


def test_equidistribution_scan_ranks_the_scored_orbits():
    result = run_script(["scripts/equidistribution_scan.py", "--max-period", "12",
                         "--max-denominator", "20", "--top", "3"])
    assert result.returncode == 0, result.stdout + result.stderr
    count, header, *rows = result.stdout.splitlines()
    ranked = sorted((d, len(orbit), q, i, j) for (i, j, q), orbit, d in
                    rational_orbit_distances(LebesgueTorus(), cat_map(), fourier_family(3),
                                             12, 20))
    assert re.fullmatch(rf"{len(ranked)} orbits of period <= 12 with denominator <= 20 "
                        r"in \d+\.\ds", count)
    assert header.split() == ["distance", "period", "q", "start"]
    assert rows == [f"{d:>10.5f} {n:>7} {q:>4}  ({i}/{q}, {j}/{q})"
                    for d, n, q, i, j in ranked[:3]]
