"""conjmeas benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py                        # every workload, 10 s each
    python3 benchmarks/run.py --workload headline --seed 1 --seconds 20
    python3 benchmarks/run.py --workload sweep --trace 1

The library is imported in process from ``src/`` of the checkout this file
sits in.  BLAS is pinned to one thread, so the process computes on one core
of the two the benchmark may use.  With ``--trace 0`` the last line of
standard output is a JSON object with the gated end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead.  Each run also
writes a result file with its environment manifest under ``.bench_out/``.
``BENCHMARK.json`` gates two of the four workloads, ``headline`` and
``general_kraus``; ``wide_system`` and ``sweep`` run the same way on request.
See ``benchmarks/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"    # before numpy is imported, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("headline", "wide_system", "sweep", "general_kraus")

SETUP_SAMPLES = 25
# The end-to-end metrics of the result line, the ones BENCHMARK.json gates.
# op_s_p50 and state_branches_per_s follow the machine's speed drift and
# failed_frac is zero on most workloads; they are printed and saved only.
RESULT_METRICS = ("setup_s", "op_ref_ratio_p50", "peak_rss_mb")
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import conjmeas.cli; print(repr(time.perf_counter() - t))"
)
CHILD_TIMEOUT_S = 170     # beyond twice the run length: import, set-up, last pass


@dataclass
class Record:
    name: str
    timed: bool
    wall_s: float
    state_branches: int
    error: str | None = None
    problems: list = field(default_factory=list)
    digest: str = ""
    yardstick_s: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def cold_import_s() -> float:
    """Time to import conjmeas.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(op, op_id, tracer=None, with_yardstick=False) -> Record:
    """Time one operation and, with ``with_yardstick``, the yardstick right after it."""
    t0 = time.perf_counter()
    try:
        result, error = (tracer.op(op.run, op_id) if tracer else op.run()), None
    except Exception as exc:  # a raising operation is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    yardstick_s = None
    if with_yardstick and op.yardstick is not None:
        t0 = time.perf_counter()
        op.yardstick()
        yardstick_s = time.perf_counter() - t0
    if error is not None:
        return Record(op.name, op.timed, wall, op.state_branches, error=error,
                      yardstick_s=yardstick_s)
    try:
        digest, problems = op.finish(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        digest, problems = "", [f"output check raised {type(exc).__name__}: {exc}"]
    return Record(op.name, op.timed, wall, op.state_branches, problems=list(problems),
                  digest=digest, yardstick_s=yardstick_s)


def run_loop(make_pass, seed, seconds, out, setup_samples=0) -> tuple:
    """Closed loop of whole passes until ``seconds`` have elapsed; at least one pass.

    With ``setup_samples``, cold imports are taken between operations, evenly
    spread over the run, so that they and the operations see the same
    machine; one extra import first warms the bytecode cache.
    """
    records, setup = [], []
    if setup_samples:
        cold_import_s()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in make_pass(seed, passes, out):
            records.append(run_op(op, len(records), with_yardstick=True))
            due = min(setup_samples, int((time.perf_counter() - start) / seconds * setup_samples) + 1)
            while len(setup) < due:
                setup.append(cold_import_s())
        passes += 1
    while len(setup) < setup_samples:
        setup.append(cold_import_s())
    return records, passes, setup


def run_traced(make_pass, seed, seconds, out) -> tuple:
    """Each pass runs untraced and traced back to back, on the same seeds.

    The order alternates between passes, so the slow drift of the machine's
    speed cancels from the per-pass difference that estimates the overhead.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, differences = [], [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        walls = {}
        for with_tracer in ((False, True) if passes % 2 == 0 else (True, False)):
            done = traced if with_tracer else plain
            ops = make_pass(seed, passes, out)
            if with_tracer:
                tracer.install()
            try:
                records = [run_op(op, len(done) + i, tracer if with_tracer else None)
                           for i, op in enumerate(ops)]
            finally:
                tracer.uninstall()
            done += records
            walls[with_tracer] = sum(r.wall_s for r in records)
        differences.append(walls[True] - walls[False])
        passes += 1
    return plain, traced, tracer, passes, differences


def end_to_end(records, setup_s) -> dict:
    timed = [r for r in records if r.timed]
    ok = [r for r in timed if not r.failed] or timed
    failed = sum(r.failed for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(r.wall_s for r in ok), "s"),
        "op_ref_ratio_p50": (statistics.median(r.wall_s / r.yardstick_s for r in ok), "ratio"),
        "state_branches_per_s": (
            sum(r.state_branches for r in ok) / sum(r.wall_s for r in ok), "1/s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / len(records), "ratio"),
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(args, records, passes) -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    ops = {}
    for r in records:
        ops[r.name] = ops.get(r.name, 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops": ops,
    }


def run_workload(args) -> tuple:
    """Run one workload; returns (correct, attempted, failed, metrics, report)."""
    from workloads import WORKLOADS

    make_pass = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    report = {}
    try:
        if args.trace:
            from tracing import ROOT_KEY, span_cost_s

            plain, records, tracer, passes, differences = run_traced(
                make_pass, args.seed, args.seconds, out
            )
            n_timed = sum(r.timed for r in records)
            per_pass = n_timed / passes
            spans = sum(tracer.calls.values()) - tracer.calls[ROOT_KEY]
            metrics = tracer.layer_metrics(n_timed)
            metrics["trace.op_wall_s"] = (sum(r.wall_s for r in records) / n_timed, "s")
            metrics["trace.overhead_s"] = (statistics.median(differences) / per_pass, "s")
            metrics["trace.overhead_est_s"] = (spans * span_cost_s() / n_timed, "s")
            metrics["trace.spans"] = (spans / n_timed, "count")
            metrics["trace.unattributed_s"] = (tracer.self_time[ROOT_KEY] / n_timed, "s")
            mismatched = [
                a.name for a, b in zip(plain, records)
                if not a.failed and not b.failed and a.digest != b.digest
            ]
            report["traced_vs_untraced_mismatch"] = mismatched
            report["span_fields"] = ["op", "name", "start_s", "end_s", "parent"]
            report["spans"] = tracer.spans
            untraced = plain
            report["untraced_ops"] = [_record_json(r) for r in plain]
        else:
            records, passes, setup = run_loop(
                make_pass, args.seed, args.seconds, out, setup_samples=SETUP_SAMPLES
            )
            metrics = end_to_end(records, statistics.median(setup))
            report["setup_samples_s"] = setup
            mismatched, untraced = [], []
    finally:
        shutil.rmtree(out, ignore_errors=True)
    timed = [r for r in records if r.timed]
    failed = sum(r.failed for r in timed)
    correct = failed == 0 and not mismatched and not any(r.failed for r in untraced if r.timed)
    report["manifest"] = manifest(args, records, passes)
    report["ops"] = [_record_json(r) for r in records]
    return correct, len(timed), failed, metrics, report


def _record_json(r: Record) -> dict:
    return {
        "name": r.name, "timed": r.timed, "wall_s": r.wall_s, "yardstick_s": r.yardstick_s,
        "error": r.error, "problems": r.problems[:5],
    }


def _print_metrics(workload, metrics, records_note):
    print(f"workload {workload}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if records_note:
        print(f"  {records_note}")


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * args.seconds + CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
        },
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOAD_NAMES, default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conjmeas" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'conjmeas'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import conjmeas

    if Path(conjmeas.__file__).resolve().parent != (SRC / "conjmeas").resolve():
        print(f"error: imported conjmeas from {conjmeas.__file__}, not {SRC}", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics, report = run_workload(args)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["correct"] = correct
    path.write_text(json.dumps(report, default=str) + "\n")

    note = f"{attempted} timed ops, {failed} failed; result file {path.relative_to(ROOT)}"
    _print_metrics(args.workload, metrics, note)
    failures = {}
    for op in report["ops"]:
        why = op["error"] or (op["problems"] and op["problems"][0])
        if why:
            count, first = failures.get(op["name"], (0, why))
            failures[op["name"]] = (count + 1, first)
    for name, (count, first) in failures.items():
        print(f"  {count} x op {name} failed, first: {first}")
    if not args.trace:
        metrics = {k: metrics[k] for k in RESULT_METRICS}
    print(_result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
