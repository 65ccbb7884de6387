"""Command-line entry point.

Subcommands: figures, summary, variances, sweep.  Every number, spin or
angle, is read in one syntax: a multiple of pi ("pi/6", "2*pi/3"), a
fraction ("1/2", "-3/2") or a plain decimal ("0.5", "7").  Whether a spin
is a half-integer is checked by the library, which stores it snapped to
the exact half-integer.  ``variances`` builds no probe and takes no probe
option (``--s``, ``--j``, ``--g``, ``--theta``): it reads ``--spins``,
``--samples`` and ``--seed``, and its header carries only the sample
count, the seed and the version.

Exit codes: 0 success, 2 invalid configuration, a run too large for memory
or an output directory that cannot be created or written, 3 numeric-contract
failure or any other measurement-model error.  Each failure prints one line
on stderr.  ``--out`` is created when the tables are written, after the run,
so a run that fails leaves no new directory behind, and an ``--out`` that
cannot be written is reported after the run.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import MeasurementModelError, NumericContractError, ValidationError
from .runner import (
    SWEEP_AXES,
    ExperimentConfig,
    _sample_metadata,
    run_figures,
    run_summary,
    run_sweep,
    run_variances,
    summary_table,
    write_csv,
    write_json,
)
from .spin_probe import SpinProbeConfig


def parse_number(text: str) -> float:
    """A number ``[k][*]pi[/n]``, ``a/b`` or a plain decimal."""
    t = text.strip().lower().replace(" ", "")
    numer, slash, den = t.partition("/")
    head, pi, tail = numer.partition("pi")
    if tail:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number [k][*]pi[/n]")
    if pi:
        head = head.rstrip("*")
        num = float(head + "1" if head in ("", "+", "-") else head) * math.pi
    else:
        num = float(head)
    divisor = float(den) if slash else 1.0
    if divisor == 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} divides by zero")
    value = num / divisor
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_probe(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--s", type=parse_number, default=0.5, help="system spin")
    sub.add_argument("--j", type=parse_number, default=7.0, help="probe spin")
    sub.add_argument("--g", type=parse_number, default=0.25, help="coupling angle (e.g. pi/8)")
    sub.add_argument(
        "--theta", type=parse_number, default=math.pi / 6, help="probe angle (e.g. pi/6)"
    )


def _add_run(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=202408)
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjmeas",
        description="Simulate Kraus measurements and their conjugate/reversing second stages.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("figures", "outcome-resolved probability/fidelity/information tables"),
        ("summary", "headline scalars and regime diagnostics"),
        ("variances", "Monte Carlo spin moments vs closed forms"),
        ("sweep", "summary metrics along one parameter axis"),
    ):
        sub = subs.add_parser(name, help=help_text)
        if name != "variances":
            _add_probe(sub)
        _add_run(sub)
        if name == "variances":
            sub.add_argument(
                "--spins",
                type=parse_number,
                nargs="+",
                default=[0.5, 1.0, 1.5],
            )
        if name == "sweep":
            sub.add_argument("--axis", choices=SWEEP_AXES, required=True)
            sub.add_argument("--values", type=parse_number, nargs="+", required=True)
    return parser


def _emit(tables: dict, args, meta: dict) -> None:
    """Write ``tables`` to ``args.out``: one JSON document, or one CSV file per table.

    ``args.out`` is created here, before the first write and after the run,
    so a run that fails leaves no new directory behind.
    """
    if args.format == "json":
        writes = [(write_json, tables, args.out / f"{args.command}.json")]
    else:
        writes = [(write_csv, table, args.out / f"{name}.csv") for name, table in tables.items()]
    args.out.mkdir(parents=True, exist_ok=True)
    for write, content, path in writes:
        write(content, path, meta)
        print(f"wrote {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "variances":
            meta = _sample_metadata(args.samples, args.seed)
            tables = {"variances": run_variances(args.spins, args.samples, args.seed)}
        else:
            spin = SpinProbeConfig(s=args.s, j=args.j, g=args.g, theta=args.theta)
            cfg = ExperimentConfig(spin=spin, samples=args.samples, seed=args.seed)
            meta = cfg.metadata()
            if args.command == "figures":
                tables = run_figures(cfg)
            elif args.command == "summary":
                summary = run_summary(cfg)
                tables = {"summary": summary_table(summary)}
            else:
                tables = {"sweep": run_sweep(cfg, args.axis, args.values)}
        _emit(tables, args, meta)
        if args.command == "summary":
            for key in ("mean_fidelity", "mean_info", "mean_fidelity_conj", "mean_info_conj"):
                print(f"{key} = {summary[key]:.6f}")
            print(f"fidelity improves: {summary['fidelity_improves']}")
            print(f"info improves: {summary['info_improves']}")
    except (ValidationError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericContractError as exc:
        print(f"numeric contract violated: {exc}", file=sys.stderr)
        return 3
    except MeasurementModelError as exc:
        print(f"measurement model error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
