"""Source hygiene of the library, read with ``ast`` (nothing is imported).

Every tolerance is read as ``TOL.<field>`` by the library or by the
benchmark's oracle checks (``TOL.prob_sum`` bounds Σp = 1 there); no library
module or demo imports a name it never uses (``__init__`` is left out, since
its imports are the package's exports); and every public top-level function
and class of the library, and every public method, property and annotated
field of its classes, is read by code other than its own tests; a field
counts as read only where code outside its own class body reads it, so a
class stores what its readers read, not what its own properties derive
from.  No library module takes the mean of ``expectation_values``: a
weight-only mean is ``metrics.mean_weights``, an O(d²) read, not a pass
over the N states.  No library module but ``metrics`` calls ``isnan``:
NaN marks an undefined outcome, and ``metrics`` alone reads that mark
(``StageStatistics.defined``, ``weighted_sum``).
``linalg.check_density_matrix`` has one caller,
``measurement.outcome_distribution``, so the draw table ``sample_outcome``
keeps is built only from a validated state.  No library module but
``linalg`` loads ``positive_sqrt``: every positive part N = sqrt(M†M) comes
from an SVD of M, not from an eigensolve of M†M, which squares its
condition number, and outside ``linalg`` only ``metrics.optimal_fidelity``
loads ``polar_decompose``: F_opt and the positive part it reads have one
derivation.  The per-state populations and features are read only by
``ensemble`` and by the branch kernel ``metrics._branch_sums``; their
column means only by ``ensemble`` and by ``metrics._mean_forms``, which
sums the population and coherence columns apart, and the kernel rows
``metrics._branch_rows`` only by the one probability rule,
``metrics.mean_weights``, and the kernel, so no probability is read another
way.  The sums become I and F in one place, ``metrics._gain_and_fidelity``,
which only ``metrics.branch_statistics`` and ``metrics.likelihood_info_gain``
load.  The adjoint of a matrix or of a stack is taken in one place,
``linalg.dagger``: no other library code calls ``swapaxes`` or takes
``.conj().T``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "conjmeas"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES = {p.stem for p in LIBRARY}


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
    for path in [*LIBRARY, *sorted((ROOT / "demos").glob("*.py"))]:
        tree = parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def package_exports() -> dict:
    """Name -> defining module of every name ``conjmeas/__init__.py`` re-exports."""
    return {
        alias.asname or alias.name: node.module
        for node in parse(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES
        for alias in node.names
    }


def qualified_reads(tree: ast.Module, exports: dict) -> set:
    """(module, name) of every library name the code reads through a ``from`` import.

    A name imported from a library module (or from the package, which
    re-exports it) counts where it is used; a library module imported by
    name counts through its ``module.name`` attribute reads.  Matching by
    module keeps a field such as ``StageStatistics.fidelity`` apart from a
    function of the same name.  Other import forms are not followed, so a
    name read only through them is reported as unread.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.level == 1 and node.module is None) or node.module == "conjmeas"
        if node.level == 1:
            source = node.module
        elif node.module and node.module.startswith("conjmeas."):
            source = node.module.split(".", 1)[1]
        else:
            source = None
        for alias in node.names:
            bound = alias.asname or alias.name
            if package and alias.name in MODULES:
                modules[bound] = alias.name
            elif package and alias.name in exports:
                names[bound] = (exports[alias.name], alias.name)
            elif source in MODULES:
                names[bound] = (source, alias.name)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            reads.add(names[node.id])
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.add((modules[node.value.id], node.attr))
    return reads


def own_module_reads(module: str, tree: ast.Module) -> set:
    """Names a module reads outside the definition of the name itself."""
    reads = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                reads.add((module, node.id))
    return reads


def tracer_reads() -> set:
    """(module, attribute) of every library object ``benchmarks/tracing.py`` wraps."""
    reads = set()
    for node in parse(ROOT / "benchmarks" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TARGETS", "CLASS_TARGETS") for t in node.targets
        ):
            reads |= {(entry[0], entry[1]) for entry in ast.literal_eval(node.value)}
    return reads


# The code that may read a public name: the library itself, demos/,
# benchmarks/ (the tracer's targets included) and the acceptance tests, which
# pin the stated guarantees; a name that only its own unit tests read is not
# part of the program.
READERS = [
    *LIBRARY,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def test_every_public_name_is_read():
    exports = package_exports()
    reads = tracer_reads()
    for path in READERS:
        tree = parse(path)
        reads |= qualified_reads(tree, exports)
        if path.parent == SRC:
            reads |= own_module_reads(path.stem, tree)
    public = [
        (path.stem, node.name)
        for path in LIBRARY
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert public
    assert [f"{m}.{n}" for m, n in public if (m, n) not in reads] == []


def attribute_reads() -> set:
    """Every attribute name that ``READERS`` load, on any object.

    Members are matched by name alone: a read of ``.effect`` on any object
    counts for every class with an ``effect`` method, property or field.
    """
    return {
        node.attr
        for path in READERS
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_method_is_read():
    reads = attribute_reads()
    public = [
        (path.stem, cls.name, node.name)
        for path in LIBRARY
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public
    assert [f"{m}.{c}.{n}" for m, c, n in public if n not in reads] == []


def test_every_public_field_is_read():
    # a field read only by its own class (a property deriving another
    # value from it, say) is not read: the class stores what is read
    trees = [parse(path) for path in READERS]
    unread = []
    for path, tree in zip(READERS, trees):
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            own = {id(node) for node in ast.walk(cls)}
            reads = {
                node.attr
                for other in trees
                for node in ast.walk(other)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in own
            }
            unread += [
                f"{path.stem}.{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("_")
                and node.target.id not in reads
            ]
    assert trees
    assert unread == []


def calls_named(node, name: str) -> bool:
    """True when ``node`` is a call of ``name`` or of ``<anything>.name``."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def test_no_mean_of_expectation_values():
    # x.mean() and np.mean(x), with x an expectation_values(...) call
    found = []
    for path in LIBRARY:
        for node in ast.walk(parse(path)):
            if calls_named(node, "mean"):
                operands = [getattr(node.func, "value", None), *node.args]
                if any(calls_named(x, "expectation_values") for x in operands):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_only_metrics_reads_the_nan_mark():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in LIBRARY
        if path.stem != "metrics"
        for node in ast.walk(parse(path))
        if calls_named(node, "isnan")
    ]
    assert found == []


def loads_of(name: str) -> list:
    """``module.statement`` of every load of ``name`` in the library, called or not."""
    return [
        f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
        for path in LIBRARY
        for stmt in parse(path).body
        for node in ast.walk(stmt)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


def test_one_caller_validates_density_matrices():
    assert loads_of("check_density_matrix") == ["measurement.outcome_distribution"]


def test_only_the_two_evaluators_read_the_sample():
    # the per-state populations and features are read by ensemble and by
    # the branch kernel alone; every other value goes through one of them
    readers = set(loads_of("populations") + loads_of("features"))
    assert {r for r in readers if not r.startswith("ensemble.")} == {"metrics._branch_sums"}
    # their column means by one helper, and the kernel rows read on them by
    # the one probability rule and the kernel alone: no p is read another way
    readers = set(loads_of("population_means") + loads_of("feature_means"))
    assert {r for r in readers if not r.startswith("ensemble.")} == {"metrics._mean_forms"}
    assert set(loads_of("_branch_rows")) == {"metrics.mean_weights", "metrics._branch_sums"}


def test_one_place_turns_sums_into_statistics():
    # every stage, the conjugate grid included, goes through branch_statistics
    assert set(loads_of("_gain_and_fidelity")) == {
        "metrics.branch_statistics",
        "metrics.likelihood_info_gain",
    }


def test_no_positive_part_from_an_eigensolve():
    assert [c for c in loads_of("positive_sqrt") if not c.startswith("linalg.")] == []
    # the SVD's positive part is taken in one place, so F_opt has one derivation
    readers = [c for c in loads_of("polar_decompose") if not c.startswith("linalg.")]
    assert readers == ["metrics.optimal_fidelity"]


def takes_an_adjoint(node) -> bool:
    """A ``swapaxes`` call, or ``.T`` of a ``conj`` call (``x.conj().T``, ``np.conj(x).T``)."""
    return calls_named(node, "swapaxes") or (
        isinstance(node, ast.Attribute) and node.attr == "T" and calls_named(node.value, "conj")
    )


def test_one_adjoint():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in LIBRARY
        for stmt in parse(path).body
        if f"{path.stem}.{getattr(stmt, 'name', '')}" != "linalg.dagger"
        for node in ast.walk(stmt)
        if takes_an_adjoint(node)
    ]
    assert found == []
