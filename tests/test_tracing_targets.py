"""The benchmark tracer names the library functions it wraps; each name must resolve.

``benchmarks/tracing.py`` looks its ``TARGETS`` and ``CLASS_TARGETS`` up by
(module, attribute) when a traced run starts, so a rename in the library
stops ``benchmarks/run.py --trace 1`` with an AttributeError.  The tables
are read from the file's syntax tree: nothing under ``benchmarks/`` is
imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no {name}")


def library_module(name: str):
    return importlib.import_module(f"conjmeas.{name}")


def test_function_targets_resolve():
    targets = tracer_table("TARGETS")
    assert targets
    missing = [
        (module, attr)
        for module, attr, _key in targets
        if not callable(getattr(library_module(module), attr, None))
    ]
    assert missing == []


def test_class_targets_resolve():
    targets = tracer_table("CLASS_TARGETS")
    assert targets
    missing = [
        (module, cls, method)
        for module, cls, method, _key in targets
        if method not in vars(getattr(library_module(module), cls, object))
    ]
    assert missing == []
