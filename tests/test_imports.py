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


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module defines at its top level, and the private
    methods and class attributes of its classes (dunders aside)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def defined(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))

    names = list(defined(tree.body))
    names += [name for node in tree.body if isinstance(node, ast.ClassDef)
              for name in defined(node.body)]
    return [name for name in names if private(name)]


def read_names(tree: ast.Module) -> set[str]:
    """The names and attributes a module loads, and the names it imports."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_every_private_definition_is_read_in_src():
    # a private helper nothing in src reads is dead code, whatever tests call it
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{stem}.{name}" for stem, tree in trees.items()
              for name in private_definitions(tree) if name not in read]
    assert unread == []


def str_joins(tree: ast.Module) -> list[int]:
    """Lines of the calls ``<sep>.join(map(str, ...))`` in a module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join" and node.args
            and isinstance(call := node.args[0], ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "map"
            and isinstance(call.args[0], ast.Name) and call.args[0].id == "str"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_words_are_spelled_only_by_the_codec(path):
    # sft.spell writes every word, one letter a symbol; str(s) writes symbols
    # of 10 and up in two characters, so such a join is ambiguous
    assert str_joins(ast.parse(path.read_text())) == []


def test_the_str_join_check_finds_a_join():
    tree = ast.parse('text = "".join(map(str, word))\nkeys = "".join(map(chr, word))\n')
    assert str_joins(tree) == [1]
