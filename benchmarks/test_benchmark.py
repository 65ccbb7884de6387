"""Self-test of the benchmark (not part of the library's test suite).

    python -m pytest benchmarks/test_benchmark.py -q

Runs the first pass of every workload untraced and twice traced, and checks
that tracing changes no output, that the per-layer counts repeat exactly,
and that the layers' self times account for the traced wall time; and that
every timed operation carries a yardstick that does the same work each call.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
COUNT_KEYS = (
    "metrics.branch.calls",
    "metrics.branch.state_evals",
    "metrics.branch.flops_computed",
    "metrics.branch.bytes_computed",
    "metrics.info.calls",
    "metrics.defined_ratio",
    "ensemble.sample_haar.calls",
    "ensemble.states_sampled",
    "ensemble.distinct_ratio",
    "spin_probe.build.calls",
    "spin_probe.coefficient.calls",
    "measurement.kraus_set.calls",
    "measurement.sample_outcome.calls",
    "linalg.check_density_matrix.calls",
    "linalg.decomp.calls",
    "runner.serialize.bytes",
)


def _run_pass(name, out, tracer=None):
    digests = []
    for i, op in enumerate(workloads.WORKLOADS[name](SEED, 0, out)):
        try:
            result = tracer.op(op.run, i) if tracer else op.run()
        except Exception as exc:  # the sweep's edge ops raise today
            assert not op.timed, f"{op.name} raised {exc!r}"
            digests.append(type(exc).__name__)
            continue
        digest, problems = op.finish(result)
        assert not problems, (op.name, problems)
        digests.append(digest)
    return digests


def _traced_pass(name, out):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        digests = _run_pass(name, out, tracer)
    finally:
        tracer.uninstall()
    return tracer, digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_is_transparent_and_counts_repeat(name, tmp_path):
    plain = _run_pass(name, tmp_path)
    first, traced = _traced_pass(name, tmp_path)
    second, _ = _traced_pass(name, tmp_path)
    assert traced == plain

    n_timed = sum(op.timed for op in workloads.WORKLOADS[name](SEED, 0, tmp_path))
    a, b = first.layer_metrics(n_timed), second.layer_metrics(n_timed)
    assert {k: a[k] for k in COUNT_KEYS} == {k: b[k] for k in COUNT_KEYS}
    assert a["metrics.branch.calls"][0] > 0

    wall = first.busy[tracing.ROOT_KEY]
    layers = sum(a[f"{layer}.self_s"][0] for layer in tracing.LAYERS) * n_timed
    glue = first.self_time[tracing.ROOT_KEY]
    assert layers + glue == pytest.approx(wall, rel=1e-9)
    assert glue < 0.02 * wall


def test_uninstall_restores_the_library():
    from conjmeas import cli, metrics, runner

    before = (metrics.stage_statistics, runner.stage_statistics, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert runner.stage_statistics is not before[1]
    tracer.uninstall()
    assert (metrics.stage_statistics, runner.stage_statistics, cli.main) == before


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_timed_op_has_a_fixed_yardstick(name, tmp_path):
    for op in workloads.WORKLOADS[name](SEED, 0, tmp_path):
        if op.timed:
            assert op.yardstick is not None, op.name
            assert op.yardstick() == op.yardstick()
