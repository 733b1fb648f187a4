"""Command-line experiment runner with seeded, reproducible, file-backed runs.

Every result file embeds a manifest echoing the command, configuration, seed,
code version, and RNG algorithm. The manifest is derived from the parsed
namespace (command, seed, outputs and the argv echo), so re-running the
recorded argv reproduces the file byte-for-byte apart from the volatile run
metadata (timestamp, wall time). Human-facing values go to standard output with 6
decimals; full precision lives in the files; progress heartbeats go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from bellopt import __version__
from bellopt.conditions import (
    DEFAULT_TOL,
    Clause,
    check_column_conditions,
    conditioned_vs_unconditioned_experiment,
    scan_bunched_two_mode,
)
from bellopt.errors import (
    ContractViolationError,
    InvalidMatrixError,
    MatrixFileError,
    UnsupportedConfigurationError,
)
from bellopt.infometrics import mutual_information
from bellopt.optimizer import OptimizerConfig, _usable_cpus, optimize
from bellopt.transfer import outcome_table
from bellopt.unitary import (
    RNG_ALGORITHM,
    haar_random_unitary,
    matrix_distance_to_unitary,
    read_matrix_file,
    sample_conditioned_unitary,
    write_matrix_file,
)


def _manifest(ns: argparse.Namespace, config: dict, inputs: list[str]) -> dict:
    return {
        "command": ns.command,
        "config": config,
        "seed": getattr(ns, "seed", None),
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "outputs": _output_paths(ns),
        "argv": _argv_echo(ns),
    }


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, manifest: dict, header: str, rows) -> None:
    """CSV whose first line is the manifest as a ``# manifest:`` comment."""
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}", header, *rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _matrix_payload(matrix) -> dict:
    return {
        "m": matrix.m,
        "entries": [[float(z.real), float(z.imag)] for z in matrix.entries.ravel()],
    }


def _heartbeat():
    best = -np.inf

    def progress(record, done, total):
        nonlocal best
        best = max(best, record.h_mutual)
        print(
            f"restart {record.restart} done ({done}/{total}): "
            f"h={record.h_mutual:.6f} best={best:.6f} stop={record.stop} "
            f"iters={record.iterations} f_evals={record.f_evals} "
            f"grad_evals={record.grad_evals} backtracks={record.backtracks} "
            f"steepest_fallbacks={record.steepest_fallbacks}",
            file=sys.stderr,
        )

    return progress


def _optimizer_config(ns: argparse.Namespace, n_a: int) -> tuple[OptimizerConfig, dict]:
    """Optimizer settings from the flags `optimize` and `sweep` share.

    Also returns their echo for the manifest's config, which each command
    completes with its own ancilla key.
    """
    cfg = OptimizerConfig(
        n_a=n_a,
        restarts=ns.restarts,
        max_iterations=ns.iters,
        seed=ns.seed,
        parallelism=ns.parallelism,
    )
    echo = {"restarts": ns.restarts, "iters": ns.iters, "parallelism": ns.parallelism}
    return cfg, echo


def _optimize_payload(result, keep_traces: bool) -> dict:
    per_restart = []
    for record in result.per_restart:
        row = {**asdict(record), "converged": record.converged}
        if not keep_traces:
            del row["objective_trace"]
        per_restart.append(row)
    return {
        "best": {
            **asdict(result.report),
            "distance_to_unitary": matrix_distance_to_unitary(result.best_matrix),
            "matrix": _matrix_payload(result.best_matrix),
            "params": {"h_gen": result.best_params.h_gen.tolist()},
        },
        "per_restart": per_restart,
        "wall_time_s": result.wall_time,
    }


def cmd_optimize(ns: argparse.Namespace) -> int:
    cfg, echo = _optimizer_config(ns, ns.na)
    result = optimize(cfg, progress=_heartbeat())
    print(f"{result.report.h_mutual:.6f}")
    if ns.out:
        payload = _optimize_payload(result, ns.keep_traces)
        payload["manifest"] = _manifest(ns, {"na": ns.na, **echo}, [])
        _write_json(ns.out, payload)
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    matrix = read_matrix_file(ns.matrix)
    table = outcome_table(matrix, ns.na)
    for name, value in asdict(mutual_information(table)).items():
        print(f"{name} = {value:.6f}")
    if ns.table:
        payload = {
            "manifest": _manifest(ns, {"na": ns.na, "matrix": str(ns.matrix)}, [str(ns.matrix)]),
            "na": table.n_a,
            "m": table.m,
            "garbage": table.garbage.tolist(),
            "outcomes": [
                {"occupations": occ, "p": probs}
                for occ, probs in zip(table.occupations.tolist(), table.p.tolist())
            ],
        }
        _write_json(ns.table, payload)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    na_values = _parse_na_list(ns.na_list)
    rows = []
    for na in na_values:
        cfg, echo = _optimizer_config(ns, na)
        result = optimize(cfg, progress=_heartbeat())
        rows.append((na, result.report.h_mutual))
        print(f"{na} {result.report.h_mutual:.6f}")
    if ns.out:
        manifest = _manifest(ns, {"na_list": list(na_values), **echo}, [])
        _write_csv(ns.out, manifest, "na,h_mutual", (f"{na},{h:.17g}" for na, h in rows))
    return 0


def cmd_conditions(ns: argparse.Namespace) -> int:
    populations = conditioned_vs_unconditioned_experiment(ns.na, ns.trials, ns.seed)
    csv_path, json_path = _output_paths(ns)
    manifest = _manifest(ns, {"na": ns.na, "trials": ns.trials}, [])
    _write_csv(csv_path, manifest, "population,trial,h_mutual,bunched_mass", (
        f"{pop.label},{t},{h:.17g},{mass:.17g}"
        for pop in populations
        for t, (h, mass) in enumerate(zip(pop.h_mutual, pop.bunched_mass))
    ))
    summary = {pop.label: pop.summary() for pop in populations}
    _write_json(json_path, {"manifest": manifest, "summary": summary})
    for label, stats in summary.items():
        print(f"{label}: mean h={stats['h_mutual_mean']:.6f} max bunched mass="
              f"{stats['bunched_mass_max']:.3e}")
    return 0


def cmd_check(ns: argparse.Namespace) -> int:
    matrix = read_matrix_file(ns.matrix)
    verdicts = check_column_conditions(matrix, ns.na, tol=ns.tol)
    scan = scan_bunched_two_mode(matrix, ns.na, tol=ns.tol)
    for verdict in verdicts:
        satisfied = ",".join(sorted(verdict.satisfied)) or "-"
        print(
            f"column {verdict.column:2d}: satisfied={{{satisfied}}} "
            f"ancilla_zeros={list(verdict.ancilla_zero_rows)} "
            f"qubit_zeros={list(verdict.qubit_zero_rows)}"
        )
    failing = [verdict.column for verdict in verdicts if not verdict.satisfied]
    ambiguous = np.count_nonzero(scan.ambiguous)
    print(
        f"bunched scan: {len(scan)} outcomes, "
        f"clause A: {np.count_nonzero(scan.clause == Clause.A.value)}, "
        f"ambiguous: {ambiguous}"
    )
    if failing:
        print(f"failing columns: {failing}")
    if ambiguous:
        worst = np.argmax(np.where(scan.ambiguous, scan.prob_mass, -np.inf))
        occupations = ",".join(map(str, scan.outcomes[worst].tolist()))
        print(f"worst ambiguous outcome: ({occupations}) mass={scan.prob_mass[worst]:.3e}")
    ok = not failing and not ambiguous
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_sample(ns: argparse.Namespace) -> int:
    if ns.kind == "conditioned":
        matrix = sample_conditioned_unitary(ns.na, ns.seed)
    else:
        matrix = haar_random_unitary(ns.na + 4, ns.seed)
    write_matrix_file(ns.out, matrix)
    print(f"wrote {ns.kind} matrix ({matrix.m}x{matrix.m}) to {ns.out}")
    return 0


def _output_paths(ns: argparse.Namespace) -> list[str]:
    """Every file the command writes, as its manifest records it."""
    if ns.command == "conditions":
        return [f"{ns.out}.csv", f"{ns.out}.json"]
    return [str(p) for p in (getattr(ns, "out", None), getattr(ns, "table", None)) if p]


def _parse_na_list(text: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ContractViolationError("na-list must contain at least one value")
    try:
        values = tuple(int(piece) for piece in items)
    except ValueError as exc:
        raise ContractViolationError(f"na-list must be comma-separated integers: {text!r}") from exc
    if any(v < 0 for v in values):
        raise ContractViolationError(f"na values must be >= 0: {values}")
    return values


def _argv_echo(ns: argparse.Namespace) -> list[str]:
    """Canonical argv that reproduces this run."""
    argv = [ns.command]
    skip = {"func", "command"}
    for key in sorted(vars(ns)):
        if key in skip:
            continue
        value = getattr(ns, key)
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellopt",
        description="Simulate, optimize, and check linear-optical Bell-state analyzers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--restarts", type=int, default=20)
    run_flags.add_argument("--seed", type=int, default=0)
    run_flags.add_argument("--iters", type=int, default=2000, help="iteration cap per restart")
    run_flags.add_argument("--parallelism", type=int, default=0,
                           help="worker processes (0 = every CPU this process may use)")

    p_opt = sub.add_parser("optimize", parents=[run_flags],
                           help="maximize mutual information over circuits")
    p_opt.add_argument("--na", type=int, required=True, help="ancilla photon count")
    p_opt.add_argument("--out", type=Path, default=None, help="result JSON path")
    p_opt.add_argument("--keep-traces", action="store_true",
                       help="include per-restart objective traces in the result file")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="score a stored matrix")
    p_eval.add_argument("--matrix", type=Path, required=True)
    p_eval.add_argument("--na", type=int, required=True)
    p_eval.add_argument("--table", type=Path, default=None,
                        help="also write the full outcome table as JSON")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", parents=[run_flags],
                             help="optimize across several ancilla counts")
    p_sweep.add_argument("--na-list", required=True, help="comma-separated ancilla counts")
    p_sweep.add_argument("--out", type=Path, default=None, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cond = sub.add_parser("conditions",
                            help="compare conditioned vs unconditioned random analyzers")
    p_cond.add_argument("--na", type=int, required=True)
    p_cond.add_argument("--trials", type=int, default=1000)
    p_cond.add_argument("--seed", type=int, default=0)
    p_cond.add_argument("--out", required=True,
                        help="output base path (writes BASE.csv and BASE.json)")
    p_cond.set_defaults(func=cmd_conditions)

    p_check = sub.add_parser("check", help="verify column conditions and bunched outcomes")
    p_check.add_argument("--matrix", type=Path, required=True)
    p_check.add_argument("--na", type=int, required=True)
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.set_defaults(func=cmd_check)

    p_sample = sub.add_parser("sample", help="write a conditioned or Haar matrix to file")
    p_sample.add_argument("--na", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--kind", choices=("conditioned", "haar"), default="conditioned")
    p_sample.add_argument("--out", type=Path, required=True)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if getattr(ns, "parallelism", None) == 0:
        ns.parallelism = _usable_cpus()
    try:
        if getattr(ns, "na", 0) < 0:
            raise ContractViolationError(f"na must be >= 0, got {ns.na}")
        if getattr(ns, "seed", 0) < 0:
            raise ContractViolationError(f"seed must be >= 0, got {ns.seed}")
        # Output paths are checked before any work, so a typo cannot cost a run.
        # A base naming a directory, dd/ say, would write the hidden dd/.csv.
        if ns.command == "conditions" and (ns.out.endswith(("/", os.sep))
                                           or Path(ns.out).is_dir()):
            raise ContractViolationError(f"output base names a directory: {ns.out}")
        for path in map(Path, _output_paths(ns)):
            if not path.parent.is_dir():
                raise ContractViolationError(f"output directory does not exist: {path.parent}")
            if path.is_dir():
                raise ContractViolationError(f"output path is a directory: {path}")
        return ns.func(ns)
    except (
        MatrixFileError,
        InvalidMatrixError,
        ContractViolationError,
        UnsupportedConfigurationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
