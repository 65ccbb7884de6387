"""Source hygiene of the library, read with ``ast`` (nothing is imported).

Every tolerance is read as ``TOL.<field>`` by the library or by the
benchmark's oracle checks (``TOL.prob_sum`` bounds Σp = 1 there), and no
library module imports a name it never uses; ``__init__`` is left out,
since its imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conjmeas"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def tolerance_fields() -> list:
    tree = parse(SRC / "tolerances.py")
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tolerances")
    return [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]


def imported_names(tree: ast.Module):
    """(bound name, line) of every import, at any depth; ``__future__`` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_tolerance_is_read():
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        for node in ast.walk(parse(path)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "TOL"
            ):
                read.add(node.attr)
    fields = tolerance_fields()
    assert fields
    assert [f for f in fields if f not in read] == []


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []
