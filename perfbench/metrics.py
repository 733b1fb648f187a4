"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` repeats the name, unit and direction of each metric; the
self-check (``perfbench/selfcheck.py``) fails when the two disagree. For each
per-layer metric, ``moves`` names the end-to-end metric and workload it is
expected to move, written down before any optimisation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    Metric("fock.outcomes", "count", "lower", "setup_s on nogo-na6"),
    Metric("fock.enumerate_ms", "ms", "lower", "setup_s on nogo-na6"),
    Metric("unitary.build_us", "us", "lower",
           "wall_s on optimizer-na0-4 (mostly sweep_s_p50); no change on nogo-na6"),
    Metric("unitary.sample_ms", "ms", "lower", "wall_s on nogo-na6 (conditions_s_p50)"),
    Metric("unitary.read_ms", "ms", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("transfer.cascade_us", "us", "lower",
           "wall_s on optimizer-na0-4 (mostly optimize_s_p50), less on nogo-na6"),
    Metric("transfer.scatter_madds", "count", "lower",
           "wall_s on optimizer-na0-4 (computed, not timed)"),
    Metric("transfer.bytes_computed", "bytes", "lower",
           "wall_s on optimizer-na0-4 (computed, not timed)"),
    Metric("transfer.madd_rate", "1/s", "higher", "wall_s on optimizer-na0-4 (optimize_s_p50)"),
    Metric("transfer.table_ms", "ms", "lower", "wall_s on nogo-na6 (conditions_s_p50)"),
    Metric("transfer.permanent_us", "us", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("transfer.permanent_calls", "count", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("infometrics.cond_bits_us", "us", "lower",
           "wall_s on optimizer-na0-4 (optimize_s_p50)"),
    Metric("infometrics.mi_ms", "ms", "lower", "wall_s on nogo-na6 (conditions_s_p50)"),
    Metric("optimizer.objective_ms", "ms", "lower", "wall_s on optimizer-na0-4"),
    Metric("optimizer.gradient_ms", "ms", "lower", "wall_s on optimizer-na0-4"),
    Metric("optimizer.gradient_self_ms", "ms", "lower", "wall_s on optimizer-na0-4"),
    Metric("optimizer.iterations", "count", "lower",
           "wall_s on optimizer-na0-4 (sweep_s_p50)"),
    Metric("optimizer.converged_frac", "frac", "higher",
           "wall_s on optimizer-na0-4 (sweep_s_p50)"),
    Metric("optimizer.gradient_share", "frac", "lower", "wall_s on optimizer-na0-4"),
    Metric("conditions.scan_ms", "ms", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("conditions.columns_ms", "ms", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("conditions.bunched_outcomes", "count", "lower", "wall_s on nogo-na6 (check_s_p50)"),
    Metric("conditions.experiment_ms", "ms", "lower", "wall_s on nogo-na6 (conditions_s_p50)"),
    Metric("cli.self_ms", "ms", "lower", "wall_s on both workloads"),
    Metric("cli.bytes_written", "bytes", "lower", "wall_s on nogo-na6 (conditions_s_p50)"),
    Metric("trace.overhead_s", "s", "lower", "nothing; it is the cost of tracing itself"),
)
