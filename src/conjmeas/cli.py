"""Command-line entry point.

Subcommands: figures, summary, variances, sweep.  Angles may be given as
exact fractions of pi ("pi/6", "2pi/3", "2*pi/3") or as plain radians; spins
as half-integers ("1/2", "0.5", "7").  ``sweep --values`` reads each value
in its axis's syntax: half-integers for j, angles for g and theta.

Exit codes: 0 success, 2 invalid configuration, a run too large for memory
or an output directory that cannot be created or written, 3 numeric-contract
failure or any other measurement-model error.
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
    run_figures,
    run_summary,
    run_sweep,
    run_variances,
    summary_table,
    write_csv,
    write_json,
)
from .spin_probe import SpinProbeConfig
from .tolerances import doubled_half_integer


def _ratio(text: str, num: float, den: float) -> float:
    """num / den, rejecting a zero divisor and a non-finite result."""
    if den == 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} divides by zero")
    value = num / den
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def parse_angle(text: str) -> float:
    """An angle ``[k][*]pi[/n]`` or a plain number of radians."""
    t = text.strip().lower().replace(" ", "")
    if "pi" in t:
        num, _, den = t.partition("pi")
        if den and not den.startswith("/"):
            raise argparse.ArgumentTypeError(f"{text!r} is not an angle [k][*]pi[/n]")
        num = num.rstrip("*")
        factor = float(num) if num not in ("", "+", "-") else (-1.0 if num == "-" else 1.0)
        divisor = float(den[1:]) if den else 1.0
        return _ratio(text, factor * math.pi, divisor)
    return _ratio(text, float(t), 1.0)


def parse_half_integer(text: str) -> float:
    t = text.strip()
    if "/" in t:
        num, den = t.split("/")
        value = _ratio(text, float(num), float(den))
    else:
        value = _ratio(text, float(t), 1.0)
    if doubled_half_integer(value) is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a half-integer")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--s", type=parse_half_integer, default=0.5, help="system spin")
    sub.add_argument("--j", type=parse_half_integer, default=7.0, help="probe spin")
    sub.add_argument("--g", type=float, default=0.25, help="interaction strength")
    sub.add_argument(
        "--theta", type=parse_angle, default=math.pi / 6, help="probe angle (e.g. pi/6)"
    )
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
        _add_common(sub)
        if name == "variances":
            sub.add_argument(
                "--spins",
                type=parse_half_integer,
                nargs="+",
                default=[0.5, 1.0, 1.5],
            )
        if name == "sweep":
            sub.add_argument("--axis", choices=SWEEP_AXES, required=True)
            # each value is parsed by its axis's parser once --axis is known
            sub.add_argument("--values", nargs="+", required=True)
    return parser


def _sweep_values(parser: argparse.ArgumentParser, axis: str, texts: list) -> list:
    """The ``sweep --values`` of ``axis``: half-integers for j, angles for g and theta."""
    parse = parse_half_integer if axis == "j" else parse_angle
    values = []
    for text in texts:
        try:
            values.append(parse(text))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"argument --values: {exc}")
        except ValueError:
            parser.error(f"argument --values: invalid {parse.__name__} value: {text!r}")
    return values


def _emit(tables: dict, args, meta: dict) -> None:
    if args.format == "json":
        path = args.out / f"{args.command}.json"
        write_json(tables, path, meta)
        print(f"wrote {path}")
    else:
        for name, table in tables.items():
            path = args.out / f"{name}.csv"
            write_csv(table, path, meta)
            print(f"wrote {path}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        args.values = _sweep_values(parser, args.axis, args.values)
    try:
        spin = SpinProbeConfig(s=args.s, j=args.j, g=args.g, theta=args.theta)
        cfg = ExperimentConfig(spin=spin, samples=args.samples, seed=args.seed)
        meta = cfg.metadata()
        # before the run, so a bad --out fails at once
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "figures":
            _emit(run_figures(cfg), args, meta)
        elif args.command == "summary":
            summary = run_summary(cfg)
            _emit({"summary": summary_table(summary)}, args, meta)
            for key in ("mean_fidelity", "mean_info", "mean_fidelity_conj", "mean_info_conj"):
                print(f"{key} = {summary[key]:.6f}")
            print(f"fidelity improves: {summary['fidelity_improves']}")
            print(f"info improves: {summary['info_improves']}")
        elif args.command == "variances":
            table = run_variances(args.spins, args.samples, args.seed)
            _emit({"variances": table}, args, meta)
        elif args.command == "sweep":
            table = run_sweep(cfg, args.axis, args.values)
            _emit({"sweep": table}, args, meta)
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
