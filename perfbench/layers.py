"""The traced run: spans around calls into each bellopt module, and per-layer probes.

Spans are recorded from the benchmark's own files. While a traced command
runs, the public functions each module calls in another module are replaced,
in the caller's namespace, by wrappers that open a span; the originals are
put back when the command returns. Nothing under ``src/`` changes.

Probes then time each module's public functions directly, at the shapes and
seed of the workload. A layer the workload never reaches is probed at the
nearest shape the function supports; ``perfbench/README.md`` lists these.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bellopt import transfer
from bellopt.conditions import (
    check_column_conditions,
    conditioned_vs_unconditioned_experiment,
    scan_bunched_two_mode,
)
from bellopt.fock import enumerate_outcomes, outcome_count
from bellopt.infometrics import conditional_bits, mutual_information
from bellopt.optimizer import gradient, initial_vector, objective
from bellopt.transfer import bell_probability_parts, outcome_table, permanent
from bellopt.unitary import (
    CircuitParams,
    haar_random_unitary,
    matrix_entries_from_vectors,
    read_matrix_file,
    sample_conditioned_unitary,
    write_matrix_file,
)

#: Cross-module calls that get a span: caller module -> names it imported.
PATCH_POINTS = {
    "bellopt.cli": (
        "optimize", "outcome_table", "mutual_information",
        "conditioned_vs_unconditioned_experiment", "check_column_conditions",
        "scan_bunched_two_mode", "read_matrix_file", "write_matrix_file",
        "sample_conditioned_unitary", "haar_random_unitary", "matrix_distance_to_unitary",
    ),
    "bellopt.optimizer": (
        "matrix_entries_from_vectors", "bell_probability_parts", "conditional_bits",
        "outcome_table", "mutual_information", "params_to_matrix",
    ),
    "bellopt.conditions": (
        "bell_amplitudes", "outcome_probabilities", "outcome_table", "mutual_information",
        "sample_conditioned_unitary", "haar_random_unitary",
    ),
    "bellopt.transfer": ("permanent", "enumerate_outcomes"),
    "bellopt.infometrics": ("conditional_bits",),
}

#: Central-difference step the optimizer uses; the probes build the same batch.
FD_STEP = 1e-6

#: Bytes one cascade multiply-add touches, counted rather than measured: a
#: complex128 read of the source amplitude plus a read and a write of the target.
BYTES_PER_MADD = 3 * 16


class Spans:
    """Spans kept in memory: [name, start, end, parent index, run id]."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []
        self.run = ""

    def _open(self, name: str) -> int:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self, run: str):
        """Route the patched calls through span wrappers for one traced command."""
        saved = []
        for module_name, names in PATCH_POINTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(original))
        self.run = run
        try:
            yield
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
            self.run = ""

    def self_ms_by_run(self) -> dict[str, dict[str, float]]:
        """Per run id, each layer's self time: span time minus time in child spans."""
        child = [0.0] * len(self.records)
        for name, start, end, parent, run in self.records:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(self.records):
            layer = name.split(".", 1)[0]
            per_run = out.setdefault(run, {})
            per_run[layer] = per_run.get(layer, 0.0) + 1e3 * (end - start - child[i])
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.records):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _median_seconds(spans: Spans, metric: str, fn, min_reps: int = 3,
                    budget_s: float = 0.3, max_reps: int = 50) -> float:
    """Median wall time of ``fn()``: at least ``min_reps`` calls, more while time allows."""
    times: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or (len(times) < max_reps and time.perf_counter() < deadline):
        with spans.span("probe." + metric):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scatter_madds(n_a: int) -> int:
    """Complex multiply-adds of one cascade: M per state at each level it expands."""
    m = n_a + 4
    ancilla_levels = sum(outcome_count(level, m) for level in range(n_a))
    return m * (ancilla_levels + 2 * outcome_count(n_a, m) + 4 * outcome_count(n_a + 1, m))


def _fd_points(n_a: int, seed: int) -> np.ndarray:
    """The 2*dim parameter vectors of one central-difference gradient."""
    x = initial_vector(n_a, 0.5, np.random.default_rng(seed))
    dim = x.shape[0]
    points = np.repeat(x[None, :], 2 * dim, axis=0)
    idx = np.arange(dim)
    points[idx, idx] += FD_STEP
    points[dim + idx, idx] -= FD_STEP
    return points


def _batch_costs_us(spans: Spans, n_a: int, seed: int, batched: bool) -> dict[str, float]:
    """Per-matrix cost of the parametrization, cascade and entropy.

    The parametrization is timed on a gradient's batch of 2*dim vectors. The
    cascade and entropy are timed on that batch when ``batched`` (the
    optimizer's path) and on one Haar matrix otherwise (the unbatched
    `outcome_table` path of `conditions` and `evaluate`).
    """
    m = n_a + 4
    points = _fd_points(n_a, seed)
    build = _median_seconds(spans, "unitary.build_us",
                            lambda: matrix_entries_from_vectors(points, m)) / len(points)
    u = (matrix_entries_from_vectors(points, m) if batched
         else haar_random_unitary(m, seed).entries[None])
    cascade = _median_seconds(spans, "transfer.cascade_us",
                              lambda: bell_probability_parts(u, n_a)) / len(u)
    p, garbage = bell_probability_parts(u, n_a)
    p_table, g_table = p.transpose(2, 1, 0), garbage.T
    bits = _median_seconds(spans, "infometrics.cond_bits_us",
                           lambda: conditional_bits(p_table, g_table)) / len(u)
    return {"build": 1e6 * build, "cascade": 1e6 * cascade, "bits": 1e6 * bits,
            "batch": len(points)}


def _optimizer_runs(paths: list[Path]) -> list[tuple[int, int, int, int, float]]:
    """(n_a, restarts, iterations, converged, wall) from each `optimize` result file."""
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        rows = doc["per_restart"]
        runs.append((doc["manifest"]["config"]["na"], len(rows),
                     sum(r["iterations"] for r in rows),
                     sum(1 for r in rows if r["converged"]), doc["wall_time_s"]))
    return runs


def per_layer_metrics(wl, ctx, spans: Spans, wall: float,
                      traced_wall: float) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric, plus each layer's mean self time per traced cycle."""
    seed = ctx.seed
    top = max(wl.na_list)
    trial_na = max(top, 4)  # the conditioned sampler needs even N_a >= 4
    m = top + 4
    values: dict[str, float] = {}

    by_run = spans.self_ms_by_run()
    traced_runs = [by_run[f"cycle{k}"] for k in sorted({c.cycle for c in ctx.calls if c.traced})]
    layers = sorted({layer for run in traced_runs for layer in run})
    layer_self = {layer: statistics.fmean(run.get(layer, 0.0) for run in traced_runs)
                  for layer in layers}
    values["cli.self_ms"] = statistics.median(run["cli"] for run in traced_runs)
    cycle_bytes: dict[int, int] = {}
    for call in ctx.calls:
        cycle_bytes[call.cycle] = cycle_bytes.get(call.cycle, 0) + call.bytes_written
    values["cli.bytes_written"] = statistics.median(cycle_bytes.values())
    values["trace.overhead_s"] = traced_wall - wall

    spans.run = "probe"
    states = enumerate_outcomes(top + 2, m)
    values["fock.outcomes"] = len(states)
    values["fock.enumerate_ms"] = 1e3 * _median_seconds(
        spans, "fock.enumerate_ms", lambda: enumerate_outcomes.__wrapped__(top + 2, m))

    costs = _batch_costs_us(spans, top, seed, batched=wl.runs_optimizer)
    values["unitary.build_us"] = costs["build"]
    values["transfer.cascade_us"] = costs["cascade"]
    values["infometrics.cond_bits_us"] = costs["bits"]
    madds = scatter_madds(top)
    values["transfer.scatter_madds"] = madds
    values["transfer.bytes_computed"] = madds * BYTES_PER_MADD
    values["transfer.madd_rate"] = madds / (1e-6 * costs["cascade"])

    values["unitary.sample_ms"] = 1e3 * _median_seconds(
        spans, "unitary.sample_ms",
        lambda: (sample_conditioned_unitary(trial_na, seed),
                 haar_random_unitary(trial_na + 4, seed)))
    u = haar_random_unitary(m, seed)
    matrix_file = ctx.path("probe_matrix.json")
    write_matrix_file(matrix_file, u)
    values["unitary.read_ms"] = 1e3 * _median_seconds(
        spans, "unitary.read_ms", lambda: read_matrix_file(matrix_file))

    values["transfer.table_ms"] = 1e3 * _median_seconds(
        spans, "transfer.table_ms", lambda: outcome_table(u, top))
    table = outcome_table(u, top)
    values["infometrics.mi_ms"] = 1e3 * _median_seconds(
        spans, "infometrics.mi_ms", lambda: mutual_information(table))
    square = u.entries[: top + 2, : top + 2]
    values["transfer.permanent_us"] = 1e6 * _median_seconds(
        spans, "transfer.permanent_us", lambda: permanent(square))

    counted = [0]

    def counting_permanent(a):
        counted[0] += 1
        return permanent(a)

    transfer.permanent = counting_permanent
    try:
        verdicts = scan_bunched_two_mode(u, top)
    finally:
        transfer.permanent = permanent
    values["transfer.permanent_calls"] = counted[0]
    values["conditions.bunched_outcomes"] = len(verdicts)
    values["conditions.scan_ms"] = 1e3 * _median_seconds(
        spans, "conditions.scan_ms", lambda: scan_bunched_two_mode(u, top))
    values["conditions.columns_ms"] = 1e3 * _median_seconds(
        spans, "conditions.columns_ms", lambda: check_column_conditions(u, top))
    values["conditions.experiment_ms"] = 1e3 * _median_seconds(
        spans, "conditions.experiment_ms",
        lambda: conditioned_vs_unconditioned_experiment(trial_na, 1, seed))

    result_files = wl.optimizer_results(ctx)
    if not result_files:
        # No optimizer on this workload's path: probe a small `optimize` at N_a = 2.
        probe_file = ctx.path("probe_optimize.json")
        ctx.cli(["optimize", "--na", "2", "--restarts", "2", "--iters", "10",
                 "--seed", str(seed), "--parallelism", "1", "--out", str(probe_file)])
        result_files = [probe_file]
    runs = _optimizer_runs(result_files)
    grad_ms = {}
    obj_ms = {}
    for na in sorted({run[0] for run in runs}):
        params = CircuitParams.from_vector(
            initial_vector(na, 0.5, np.random.default_rng(seed)), na + 4)
        obj_ms[na] = 1e3 * _median_seconds(spans, "optimizer.objective_ms",
                                           lambda: objective(params, na))
        grad_ms[na] = 1e3 * _median_seconds(spans, "optimizer.gradient_ms",
                                            lambda: gradient(params, na))
    opt_na = max(grad_ms)
    values["optimizer.objective_ms"] = obj_ms[opt_na]
    values["optimizer.gradient_ms"] = grad_ms[opt_na]
    fd = costs if (wl.runs_optimizer and opt_na == top) else _batch_costs_us(
        spans, opt_na, seed, batched=True)
    values["optimizer.gradient_self_ms"] = grad_ms[opt_na] - fd["batch"] * (
        fd["build"] + fd["cascade"] + fd["bits"]) / 1e3
    values["optimizer.iterations"] = sum(run[2] for run in runs)
    values["optimizer.converged_frac"] = sum(run[3] for run in runs) / sum(run[1] for run in runs)
    values["optimizer.gradient_share"] = sum(
        (its + restarts) * grad_ms[na] / 1e3 for na, restarts, its, _, _ in runs
    ) / sum(run[4] for run in runs)
    spans.run = ""
    return values, layer_self

