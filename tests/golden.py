"""Golden spin-run outputs at seven check configurations.

``PYTHONPATH=src python tests/golden.py --write`` runs ``run_figures`` and
``run_summary`` on each configuration of ``CONFIGS`` (g = 1/4, the default
seed) and writes every field of fig1–fig4 and of the summary to
``tests/data/golden.json``, each float as ``float.hex`` and each flag as a
JSON boolean.  Without ``--write`` it compares a fresh run with the file and
prints the table ``compare`` makes.

``tests/test_golden.py`` makes the same comparison.  Probabilities,
conditionals, labels, flags and the regime report must keep their bits, and
every field its NaN positions.  A fidelity may move by ``F_RTOL`` relative
and an information gain by ``I_ATOL`` absolute: across BLAS builds and
kernel refactors these are summed in another order.  A change that moves
bits on purpose regenerates the file and records the printed table.
"""

import json
import math
import sys
from pathlib import Path

from conjmeas.runner import ExperimentConfig, run_figures, run_summary
from conjmeas.spin_probe import SpinProbeConfig

PATH = Path(__file__).resolve().parent / "data" / "golden.json"

# (s, j, theta, N)
CONFIGS = (
    (0.5, 7, math.pi / 6, 100_000),
    (1.0, 3, math.pi / 6, 2000),
    (1.5, 25, 0.0, 40037),
    (7.5, 7, math.pi / 2, 5000),
    (0.5, 40, math.pi / 6, 33037),
    (0.5, 7, math.pi / 2, 10_000),
    (1.0, 7, math.pi / 6, 20_000),
)
G = 0.25

F_RTOL = 2e-14
I_ATOL = 2e-14


def _encode(value):
    return value if isinstance(value, bool) else float(value).hex()


def _decode(value):
    return value if isinstance(value, bool) else float.fromhex(value)


def compute() -> dict:
    """Every output field, ``"<config>/<table>.<column>"`` -> list of values."""
    out = {}
    for s, j, theta, n in CONFIGS:
        cfg = ExperimentConfig(SpinProbeConfig(s=s, j=j, g=G, theta=theta), samples=n)
        name = f"s={s} j={j} theta={theta.hex()} N={n}"
        for table, t in run_figures(cfg).items():
            for k, column in enumerate(t.columns):
                out[f"{name}/{table}.{column}"] = [_encode(row[k]) for row in t.rows]
        for key, value in run_summary(cfg).items():
            out[f"{name}/summary.{key}"] = [_encode(value)]
    return out


def load() -> dict:
    return json.loads(PATH.read_text())


def write() -> None:
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(compute(), separators=(",", ":")) + "\n")


def _move(field: str, want, got) -> tuple:
    """``(move, allowed)`` of one changed value: allowed is None where bits must stay."""
    a, b = _decode(want), _decode(got)
    column = field.rsplit(".", 1)[1]
    if isinstance(a, bool) or math.isnan(a) or math.isnan(b):
        return math.inf, None
    if "fidelity" in column:
        return (abs(a - b) / abs(a) if a else math.inf), F_RTOL
    if "info" in column:
        return abs(a - b), I_ATOL
    return abs(a - b), None


def compare(expected: dict, actual: dict) -> tuple:
    """``(report, ok)``: changed/total and largest move per field, and whether all hold.

    A field is grouped over the configurations by its table and column.
    The move of a fidelity is relative, of anything else absolute; a value
    counts as changed when its bits differ.
    """
    ok = expected.keys() == actual.keys()
    rows = {}
    for key in sorted(expected.keys() & actual.keys()):
        field = key.split("/", 1)[1]
        changed, total, largest = rows.get(field, (0, 0, 0.0))
        ok &= len(expected[key]) == len(actual[key])
        for want, got in zip(expected[key], actual[key]):
            total += 1
            if want != got:
                move, allowed = _move(field, want, got)
                ok &= allowed is not None and move <= allowed
                changed, largest = changed + 1, max(largest, move)
        rows[field] = changed, total, largest
    lines = [f"{'field':32} {'changed':>15} {'largest move':>14}"]
    for field, (changed, total, largest) in rows.items():
        lines.append(f"{field:32} {f'{changed}/{total}':>15} {largest:14.3e}")
    missing = sorted(expected.keys() ^ actual.keys())
    if missing:
        lines.append(f"fields in one side only: {missing}")
    return "\n".join(lines), bool(ok)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:]:
        sys.exit("usage: golden.py [--write]")
    else:
        report, ok = compare(load(), compute())
        print(report)
        sys.exit(0 if ok else 1)
