"""Closed loop: one client issues ``bellopt`` commands back to back, in-process.

Every command goes through ``bellopt.cli.main(argv)`` in this process, so a
call's time is the command's own wall time without interpreter start-up. The
cost of a fresh interpreter is measured separately, in child processes, as
``setup_s``.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bellopt
from bellopt import cli
from bellopt.transfer import outcome_table
from bellopt.unitary import haar_random_unitary

from layers import Spans, per_layer_metrics
from metrics import END_TO_END, PER_LAYER

#: Worker processes passed to `optimize` and `sweep`: the multi-start pool on
#: a small shared machine would measure the scheduler rather than the program.
PARALLELISM = 1

#: Fresh interpreters started to measure `setup_s`; the median is reported.
SETUP_REPEATS = 5

#: What a fresh interpreter does before it is ready: import the CLI and build
#: the outcome alphabet and cascade maps for each N_a of the workload.
_COLD_START = """
import sys
import bellopt.cli
from bellopt.transfer import outcome_table
from bellopt.unitary import haar_random_unitary
for na in map(int, sys.argv[1].split(",")):
    outcome_table(haar_random_unitary(na + 4, 0), na)
"""


@dataclass
class CliCall:
    """One `bellopt` command as the client saw it."""

    argv: list[str]
    code: int | None
    error: str | None
    seconds: float
    stdout: str
    stderr: str
    traced: bool = False
    cycle: int = 0
    bytes_written: int = 0
    signature: object = None

    @property
    def last_line(self) -> str:
        lines = self.stdout.strip().splitlines()
        return lines[-1] if lines else ""

    def record(self) -> dict:
        return {
            "argv": self.argv,
            "code": self.code,
            "error": self.error,
            "seconds": self.seconds,
            "traced": self.traced,
            "cycle": self.cycle,
            "bytes_written": self.bytes_written,
            "last_line": self.last_line,
            "signature": self.signature,
        }


def call_cli(argv: list[str], spans: Spans | None = None, run: str = "") -> CliCall:
    """Run one command in-process; an exception is kept as the call's error."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    error = None
    installed = spans.installed(run) if spans is not None else nullcontext()
    with installed:
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if spans is not None:
                    with spans.span("cli." + argv[0]):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing command is a failed gate, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return CliCall(list(argv), code, error, seconds, out.getvalue(), err.getvalue(),
                   traced=spans is not None)


@dataclass
class Context:
    """What one run of one workload knows: its seed, its directory, its calls."""

    seed: int
    out: Path
    calls: list[CliCall] = field(default_factory=list)

    def path(self, name: str) -> Path:
        return self.out / name

    def cli(self, argv: list[str]) -> CliCall:
        """An untimed command issued for set-up or for a gate."""
        return call_cli(argv)


def closed_loop(wl, ctx: Context, seconds: float, spans: Spans | None) -> list[CliCall]:
    """Issue cycles of the workload's commands back to back for about ``seconds``.

    A cycle issues each of the workload's commands once, in order. A new cycle
    starts only if the median cycle so far would still end inside the window,
    but at least one cycle runs. With tracing, at least two run, and whole
    cycles alternate between untraced and traced so both see the same inputs.
    """
    argvs = wl.argvs(ctx)
    min_cycles = 2 if spans is not None else 1
    calls: list[CliCall] = []
    cycle_seconds: list[float] = []
    start = time.perf_counter()
    while True:
        cycle = len(cycle_seconds)
        traced = spans is not None and cycle % 2 == 1
        for argv in argvs:
            call = call_cli(argv, spans if traced else None, run=f"cycle{cycle}")
            call.cycle = cycle
            call.bytes_written = len(call.stdout) + len(call.stderr) + sum(
                p.stat().st_size for p in wl.outputs(ctx, argv) if p.exists()
            )
            try:
                call.signature = wl.signature(ctx, argv, call)
            except (OSError, ValueError, KeyError) as exc:  # fails the repeat gate
                call.signature = f"unreadable output: {type(exc).__name__}: {exc}"
            calls.append(call)
        cycle_seconds.append(sum(c.seconds for c in calls if c.cycle == cycle))
        next_end = time.perf_counter() - start + statistics.median(cycle_seconds)
        if len(cycle_seconds) >= min_cycles and next_end > seconds:
            return calls


def cycle_seconds(calls: list[CliCall], traced: bool) -> list[float]:
    """Summed call time of each untraced (or each traced) cycle."""
    totals: dict[int, float] = {}
    for call in calls:
        if call.traced == traced:
            totals[call.cycle] = totals.get(call.cycle, 0.0) + call.seconds
    return list(totals.values())


def setup_seconds(na_list: tuple[int, ...], root: Path) -> list[float]:
    """Wall time of fresh interpreters that import bellopt and make a cold first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    arg = ",".join(str(na) for na in na_list)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", _COLD_START, arg], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return times


def warm_up(na_list: tuple[int, ...]) -> None:
    """Fill the in-process alphabet caches so the window times warm calls."""
    for na in na_list:
        outcome_table(haar_random_unitary(na + 4, 0), na)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(blas_threads: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bellopt": bellopt.__version__,
        "blas": blas_name,
        "blas_threads_pinned": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "parallelism": PARALLELISM,
    }


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return pct, q


def _part_times(wl, calls: list[CliCall]) -> list[tuple[str, float, int, float]]:
    """(command, median untraced call seconds, calls, ms per analyzer) per part."""
    out = []
    for part in wl.parts:
        times = [c.seconds for c in calls if not c.traced and c.argv[0] == part.command]
        median = statistics.median(times)
        out.append((part.command, median, len(times), 1e3 * median / part.analyzers_per_call))
    return out


def evaluate_gates(wl, ctx: Context) -> list[tuple[str, bool]]:
    try:
        return wl.gates(ctx)
    except Exception as exc:  # unreadable or missing outputs fail the run, with the reason
        return [(f"gates raised {type(exc).__name__}: {exc}", False)]


def run_workload(wl, seed: int, seconds: float, trace: bool, root: Path,
                 blas_threads: int) -> dict:
    """One benchmark run; returns the result line plus what the table prints."""
    out = root / ".bench_out" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ctx = Context(seed=seed, out=out)
    setup = None if trace else setup_seconds(wl.na_list, root)
    wl.prepare(ctx)
    warm_up(wl.na_list)
    spans = Spans() if trace else None
    ctx.calls = closed_loop(wl, ctx, seconds, spans)
    rss = peak_rss_mb()
    with open(ctx.path("calls.jsonl"), "w") as fh:
        for call in ctx.calls:
            fh.write(json.dumps(call.record()) + "\n")
    try:
        wl.finish(ctx)
    except Exception as exc:  # the gates then fail on the missing outputs
        print(f"finish raised {type(exc).__name__}: {exc}", file=sys.stderr)
    gates = evaluate_gates(wl, ctx)
    attempted, failed = len(gates), sum(1 for _, ok in gates if not ok)
    try:
        quality = wl.quality(ctx)
    except Exception:  # outputs the gates already failed on
        quality = {}
    cycles = cycle_seconds(ctx.calls, traced=False)
    wall = statistics.median(cycles)
    info: dict = {"cycles": len(cycles), "high": high_percentile(cycles), "gates": gates,
                  "quality": quality, "parts": _part_times(wl, ctx.calls)}
    if trace:
        traced_wall = statistics.median(cycle_seconds(ctx.calls, traced=True))
        values, layer_self = per_layer_metrics(wl, ctx, spans, wall, traced_wall)
        spans.dump(ctx.path("spans.jsonl"))
        info["layer_self_ms"] = layer_self
        specs = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": wall, "peak_rss_mb": rss}
        info["setup_samples"] = len(setup)
        specs = END_TO_END
    metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    facts = machine_facts(blas_threads)
    ctx.path("result.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
         "machine": facts, "result": result, "quality": info["quality"],
         "gates": [[name, ok] for name, ok in gates],
         "layer_self_ms": info.get("layer_self_ms")}, indent=2) + "\n")
    info["machine"] = facts
    return {"result": result, "info": info}


def print_report(wl, seed: int, trace: bool, report: dict) -> None:
    """Human-readable lines; the JSON result line is printed after these."""
    result, info = report["result"], report["info"]
    print(f"# workload {wl.name} seed {seed} trace {int(trace)}: {wl.why}")
    print(f"# machine {json.dumps(info['machine'], sort_keys=True)}")
    print(f"# closed loop, 1 client, in-process: {wl.describe()}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted:.6g} 1 ({failed} of {attempted} gates failed)")
    for name, ok in info["gates"]:
        if not ok:
            print(f"  gate failed: {name}")
    moves = {m.name: m.moves for m in PER_LAYER}
    for name, entry in result["metrics"].items():
        note = f"  (should move {moves[name]})" if name in moves else ""
        if name == "wall_s":
            note = f" median of {info['cycles']} cycles"
            if info["high"] is not None:
                pct, q = info["high"]
                note += f"; p{pct} {q:.6g} s"
        elif name == "setup_s":
            note = f" median of {info['setup_samples']} fresh interpreters"
        print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")
    for command, median, count, per_analyzer in info["parts"]:
        print(f"{command}_s_p50 {median:.6g} s median of {count} calls; "
              f"{per_analyzer:.6g} ms per analyzer")
    for name, (value, unit) in info["quality"].items():
        print(f"{name} {value:.10g} {unit}")
    for layer, ms in sorted(info.get("layer_self_ms", {}).items()):
        print(f"self_ms.{layer} {ms:.6g} ms per traced cycle")
