"""Every error type the package defines is raised, and maps to an exit code."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import symshadow.cli
from symshadow.cli import main
from symshadow.sft import NumericalError, PreconditionError, ReducibleMatrixError

SRC = Path(__file__).resolve().parent.parent / "src" / "symshadow"
PREFIXES = {2: "invalid input: ", 3: "precondition failed: ", 4: "numerical failure: "}


def defined_errors() -> list[type]:
    """The exception classes the src modules define, in module order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"symshadow.{path.stem}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return found


def raised_names() -> set[str]:
    """The names src raises: ``raise X``, ``raise X(...)`` and ``raise m.X(...)``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_every_defined_error_is_raised_in_src():
    # an error type nothing raises is dead code, and so is its except entry;
    # the list is exact, so adding or deleting an error type edits it
    errors = defined_errors()
    assert [(cls.__module__.split(".")[-1], cls.__name__) for cls in errors] == [
        ("sft", "NumericalError"),
        ("sft", "PreconditionError"),
        ("sft", "ReducibleMatrixError"),
    ]
    assert [cls.__name__ for cls in errors if cls.__name__ not in raised_names()] == []


@pytest.mark.parametrize("error", defined_errors(), ids=lambda cls: cls.__name__)
def test_every_defined_error_exits_2_3_or_4_without_a_traceback(error, capsys, monkeypatch):
    def fail(args):
        raise error("from a subcommand")

    monkeypatch.setattr(symshadow.cli, "cmd_analyze", fail)
    code = main(["analyze", "matrix.json"])
    # one type per code; the precondition clause comes before its base ValueError's
    assert code == {NumericalError: 4, PreconditionError: 3, ReducibleMatrixError: 2}[error]
    err = capsys.readouterr().err
    assert err == f"{PREFIXES[code]}from a subcommand\n"


def test_a_precondition_is_a_value_error_and_a_numerical_failure_a_runtime_error():
    # a library caller that catches ValueError around a bounded search keeps
    # catching its refusal; a numerical failure is no fault of the input
    assert issubclass(PreconditionError, ValueError)
    assert issubclass(NumericalError, RuntimeError)
    assert not issubclass(NumericalError, ValueError)
    assert issubclass(ReducibleMatrixError, ValueError)

