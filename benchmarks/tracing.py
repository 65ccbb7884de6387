"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` by
timing wrappers at every place they are bound: the defining module and every
``conjmeas`` module (or package) that imported the name.  Nothing in ``src/``
is edited; ``Tracer.uninstall`` puts the original objects back.

Each wrapped call is a span (name, start, end, parent).  A span's self time
is its duration minus the time covered by its child spans, and a layer's
self time is the sum over the spans of that layer.  The benchmark opens one
root span per operation, so the time an operation spends outside every
library call (the benchmark's own glue) stays visible as ``bench`` self time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "ensemble",
    "spin_probe",
    "measurement",
    "linalg",
    "metrics",
    "reversal",
    "runner",
    "cli",
)

# (module, attribute, span key).  The layer is the first part of the key.
TARGETS = (
    ("ensemble", "sample_haar", "ensemble.sample_haar"),
    ("spin_probe", "build_forward", "spin_probe.build"),
    ("spin_probe", "conjugate_probe_set", "spin_probe.build"),
    ("spin_probe", "coefficient", "spin_probe.coefficient"),
    ("spin_probe", "regime_diagnostics", "spin_probe.regime_diagnostics"),
    ("measurement", "sample_outcome", "measurement.sample_outcome"),
    ("linalg", "check_density_matrix", "linalg.check_density_matrix"),
    ("linalg", "polar_decompose", "linalg.decomp"),
    ("linalg", "positive_sqrt", "linalg.decomp"),
    ("metrics", "branch_weights_and_amplitudes", "metrics.branch"),
    ("metrics", "likelihood_info_gain", "metrics.info"),
    ("metrics", "stage_statistics", "metrics.stage"),
    ("metrics", "two_stage_statistics", "metrics.two_stage"),
    ("metrics", "optimal_fidelity", "metrics.optimal_fidelity"),
    ("reversal", "build_reversing", "reversal.build"),
    ("reversal", "build_conjugate_minimal", "reversal.build"),
    ("reversal", "conjugate_preferred_closed_form", "reversal.closed_form"),
    ("reversal", "conditional_success_probability", "reversal.success_probability"),
    ("runner", "compute_spin_run", "runner.compute_spin_run"),
    ("runner", "run_summary", "runner.run_summary"),
    ("runner", "run_figures", "runner.run_figures"),
    ("runner", "run_sweep", "runner.run_sweep"),
    ("runner", "write_csv", "runner.serialize"),
    ("cli", "main", "cli.main"),
)

# KrausSet is a class (isinstance checks must keep working), so its
# construction is traced through the validation hook the constructor runs.
CLASS_TARGETS = (("measurement", "KrausSet", "__post_init__", "measurement.kraus_set"),)

ROOT_KEY = "bench.op"

# Keep the span records of the first few operations; aggregates cover all.
KEEP_SPANS_OPS = 5


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.sample_keys = set()
        self.spans = []
        self.op_id = -1
        self._stack = []      # [key, start, child_time, span index or None]
        self._depth = Counter()
        self._patched = []

    # -- span bookkeeping -------------------------------------------------
    # The clock is read first on entry and last on exit, so the tracer's own
    # bookkeeping is charged to the span it serves, not to the caller.
    def _enter(self, key):
        start = time.perf_counter()
        index = None
        if self.op_id < KEEP_SPANS_OPS:
            index = len(self.spans)
            self.spans.append([self.op_id, key, start, 0.0, self._stack[-1][3] if self._stack else None])
        self._depth[key] += 1
        self._stack.append([key, start, 0.0, index])

    def _exit(self):
        key, start, child, index = self._stack.pop()
        self.calls[key] += 1
        self._depth[key] -= 1
        end = time.perf_counter()
        dur = end - start
        self.self_time[key] += dur - child
        if self._depth[key] == 0:
            self.busy[key] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if index is not None:
            self.spans[index][3] = end

    def op(self, fn, op_id):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        self._enter(ROOT_KEY)
        try:
            return fn()
        finally:
            self._exit()

    # -- wrapping ---------------------------------------------------------
    def _count(self, key, args, result):
        counters = self.counters
        if key == "metrics.branch":
            n, d = args[0].shape
            counters["metrics.branch.state_evals"] += n
            # states @ op.T is n*d*d complex multiply-adds (8 flops each); the
            # two row-wise inner products are 2*n*d more.
            counters["metrics.branch.flops_computed"] += 8 * n * d * d + 16 * n * d
            # read states, write the product, read both operands of two inner
            # products (16 B per complex), write one real and one complex result.
            counters["metrics.branch.bytes_computed"] += 16 * n * d * 6 + 24 * n
        elif key in ("metrics.stage", "metrics.two_stage"):
            counters["metrics.defined"] += int(result.defined.sum())
            counters["metrics.evaluated"] += len(result.defined)
        elif key == "ensemble.sample_haar":
            counters["ensemble.states_sampled"] += result.n
            self.sample_keys.add((result.dim, result.n, result.seed))
        elif key == "runner.serialize":
            counters["runner.serialize.bytes"] += os.path.getsize(args[1])

    def _wrap(self, key, fn):
        enter, exit_, count = self._enter, self._exit, self._count

        def traced(*args, **kwargs):
            enter(key)
            try:
                result = fn(*args, **kwargs)
                count(key, args, result)
                return result
            finally:
                exit_()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        """Wrap every target at each conjmeas module that binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "conjmeas" or name.startswith("conjmeas."))
        ]
        for mod_name, attr, key in TARGETS:
            original = getattr(sys.modules[f"conjmeas.{mod_name}"], attr)
            wrapper = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        for mod_name, cls_name, method, key in CLASS_TARGETS:
            cls = getattr(sys.modules[f"conjmeas.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(key, original))
            self._patched.append((cls, method, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics as (value, unit), averaged per timed operation."""
        per_op = 1.0 / n_ops
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        c = self.counters
        put("metrics.branch.busy_s", self.busy["metrics.branch"] * per_op, "s")
        put("metrics.branch.calls", self.calls["metrics.branch"] * per_op, "count")
        put("metrics.branch.state_evals", c["metrics.branch.state_evals"] * per_op, "count")
        put("metrics.branch.flops_computed", c["metrics.branch.flops_computed"] * per_op, "flop")
        put("metrics.branch.bytes_computed", c["metrics.branch.bytes_computed"] * per_op, "B")
        put("metrics.info.calls", self.calls["metrics.info"] * per_op, "count")
        put("metrics.info.busy_s", self.busy["metrics.info"] * per_op, "s")
        put("metrics.optimal_fidelity.busy_s", self.busy["metrics.optimal_fidelity"] * per_op, "s")
        put("metrics.two_stage.busy_s", self.busy["metrics.two_stage"] * per_op, "s")
        put("metrics.stage.busy_s", self.busy["metrics.stage"] * per_op, "s")
        evaluated = c["metrics.evaluated"]
        put("metrics.defined_ratio", c["metrics.defined"] / evaluated if evaluated else 1.0, "ratio")

        samples = self.calls["ensemble.sample_haar"]
        put("ensemble.sample_haar.calls", samples * per_op, "count")
        put("ensemble.sample_haar.busy_s", self.busy["ensemble.sample_haar"] * per_op, "s")
        put("ensemble.states_sampled", c["ensemble.states_sampled"] * per_op, "count")
        put("ensemble.distinct_ratio", len(self.sample_keys) / samples if samples else 1.0, "ratio")

        put("spin_probe.build.calls", self.calls["spin_probe.build"] * per_op, "count")
        put("spin_probe.build.busy_s", self.busy["spin_probe.build"] * per_op, "s")
        put("spin_probe.coefficient.calls", self.calls["spin_probe.coefficient"] * per_op, "count")
        put(
            "spin_probe.regime_diagnostics.busy_s",
            self.busy["spin_probe.regime_diagnostics"] * per_op,
            "s",
        )

        put("measurement.kraus_set.calls", self.calls["measurement.kraus_set"] * per_op, "count")
        put("measurement.kraus_set.busy_s", self.busy["measurement.kraus_set"] * per_op, "s")
        put(
            "measurement.sample_outcome.calls",
            self.calls["measurement.sample_outcome"] * per_op,
            "count",
        )
        put(
            "measurement.sample_outcome.busy_s",
            self.busy["measurement.sample_outcome"] * per_op,
            "s",
        )

        put(
            "linalg.check_density_matrix.calls",
            self.calls["linalg.check_density_matrix"] * per_op,
            "count",
        )
        put("linalg.decomp.calls", self.calls["linalg.decomp"] * per_op, "count")
        put("linalg.decomp.busy_s", self.busy["linalg.decomp"] * per_op, "s")

        put("reversal.build.busy_s", self.busy["reversal.build"] * per_op, "s")
        put("reversal.closed_form.busy_s", self.busy["reversal.closed_form"] * per_op, "s")

        put(
            "runner.compute_spin_run.self_s",
            self.self_time["runner.compute_spin_run"] * per_op,
            "s",
        )
        put("runner.serialize.busy_s", self.busy["runner.serialize"] * per_op, "s")
        put("runner.serialize.bytes", c["runner.serialize.bytes"] * per_op, "B")

        for layer in LAYERS:
            total = sum(t for k, t in self.self_time.items() if k.split(".")[0] == layer)
            put(f"{layer}.self_s", total * per_op, "s")
        return out


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra time one traced call costs: a wrapped no-op minus a bare one."""
    tracer = Tracer()
    tracer.op_id = KEEP_SPANS_OPS     # like most traced operations: no span record

    def noop():
        return None

    wrapped = tracer._wrap("calibration.noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]
