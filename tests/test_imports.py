"""Every name a source module imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symshadow"
# bound on purpose: bench/test_bench.py checks that this binding is sft's function
KEPT = {("dense_periods", "enumerate_cycles")}


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and (path.stem, name) not in KEPT]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    assert unread_imports(path) == []
