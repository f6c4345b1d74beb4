"""Runs of the experiment scripts that README's "Experiment scripts" block lists,
as written there, so the README and scripts/ cannot drift apart."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv", readme_scripts(), ids=lambda argv: Path(argv[1]).name)
def test_script_exits_zero(argv):
    assert argv[0] == "python" and argv[1].startswith("scripts/")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, *argv[1:]], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
