"""The workloads: the commands each cycles through, the outputs kept, the gates.

A workload is a mix of parts, one part per `bellopt` command; one cycle
issues every part's calls once, in order. A gate is a (name, passed) pair
computed from files the run left in its output directory, so
``selfcheck.py`` can corrupt a file and watch the gate fail. ``fail_frac`` is
failed gates over attempted gates.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
from pathlib import Path

import numpy as np

#: The paper's N_a = 0 optimum (the 50 % linear-optics limit), in bits.
NA0_OPTIMUM = 1.5
NA0_TOL = 1e-6
#: Re-scoring a written matrix must reproduce the reported bits to this.
RESCORE_TOL = 1e-9
#: Bits printed with 6 decimals agree with full precision to this.
PRINTED_TOL = 6e-7
#: Largest bunched mass a conditioned analyzer may carry.
BUNCHED_MASS_TOL = 1e-12
#: Mutual information of a four-way choice lies in [0, 2] bits.
H_RANGE = (0.0, 2.0)

_HEARTBEAT = re.compile(r"restart \d+ done \(\d+/\d+\): h=(\S+) best=")
_H_MUTUAL = re.compile(r"^h_mutual = (\S+)$", re.MULTILINE)


def _seeds(seed: int, count: int) -> list[int]:
    """Independent program seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _data_rows(path: Path) -> list[str]:
    """CSV lines after the manifest comment and the header."""
    lines = Path(path).read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")][1:]


def _in_range(values) -> bool:
    values = list(values)
    return bool(values) and all(H_RANGE[0] <= h <= H_RANGE[1] for h in values)


def table_bits(path: Path) -> float:
    """Mutual information recomputed here from an `evaluate --table` file.

    h = 2 - (1/4) sum_y sum_x p(y|x) log2(sum_x' p(y|x') / p(y|x)), with the
    leaked-photon probabilities counted as one more outcome.
    """
    doc = json.loads(Path(path).read_text())
    rows = np.array([o["p"] for o in doc["outcomes"]] + [doc["garbage"]], dtype=np.float64)
    totals = rows.sum(axis=1, keepdims=True)
    positive = rows > 0.0
    ratio = np.where(positive, totals / np.where(positive, rows, 1.0), 1.0)
    return 2.0 - float((rows * np.log2(ratio)).sum()) / 4.0


def _rescore(ctx, result_file: Path, n_a: int, stem: str) -> None:
    """Write the best matrix of an `optimize` result and score it with `evaluate`."""
    best = json.loads(Path(result_file).read_text())["best"]["matrix"]
    matrix_file = ctx.path(f"{stem}_matrix.json")
    matrix_file.write_text(json.dumps({"m": best["m"], "entries": best["entries"]}))
    call = ctx.cli(["evaluate", "--matrix", str(matrix_file), "--na", str(n_a),
                    "--table", str(ctx.path(f"{stem}_table.json"))])
    ctx.path(f"{stem}_evaluate.json").write_text(
        json.dumps({"code": call.code, "error": call.error, "stdout": call.stdout}))


def _rescore_gates(ctx, result_file: Path, stem: str) -> list[tuple[str, bool]]:
    reported = json.loads(Path(result_file).read_text())["best"]["h_mutual"]
    run = json.loads(ctx.path(f"{stem}_evaluate.json").read_text())
    printed = _H_MUTUAL.search(run["stdout"])
    return [
        (f"{stem}: evaluate exits 0", run["code"] == 0 and run["error"] is None),
        (f"{stem}: re-scored table bits match best.h_mutual to {RESCORE_TOL:g}",
         abs(table_bits(ctx.path(f"{stem}_table.json")) - reported) <= RESCORE_TOL),
        (f"{stem}: printed h_mutual matches best.h_mutual",
         printed is not None and abs(float(printed.group(1)) - reported) <= PRINTED_TOL),
    ]


def _read_calls(ctx) -> list[dict]:
    return [json.loads(line) for line in ctx.path("calls.jsonl").read_text().splitlines()]


def _call_gates(wl, ctx) -> list[tuple[str, bool]]:
    """Each call ends as expected, and repeated commands give identical outputs."""
    gates = []
    first: dict[tuple, object] = {}
    for i, call in enumerate(_read_calls(ctx)):
        code, line = wl.expected(call["argv"])
        ok = call["error"] is None and call["code"] == code
        if line is not None:
            ok = ok and call["last_line"] == line
        gates.append((f"call {i} ({call['argv'][0]}) exits {code}"
                      + (f" with {line}" if line else ""), ok))
        key = tuple(call["argv"])
        if key in first:
            gates.append((f"call {i} repeats the output of the first identical call",
                          call["signature"] == first[key]))
        else:
            first[key] = call["signature"]
    return gates


class Part:
    """One `bellopt` command of a workload, with its inputs, outputs and gates."""

    command = ""
    na_list: tuple[int, ...] = ()
    runs_optimizer = False
    #: Analyzers one call produces or scores; the table reports time per analyzer.
    analyzers_per_call = 1

    def prepare(self, ctx) -> None:
        """Untimed set-up of the inputs the commands read."""

    def argvs(self, ctx) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, ctx, argv) -> list[Path]:
        return []

    def signature(self, ctx, argv, call):
        """What must repeat exactly when the same command runs again."""
        return call.stdout

    def expected(self, argv) -> tuple[int, str | None]:
        return 0, None

    def finish(self, ctx) -> None:
        """Untimed commands whose outputs the gates read."""

    def gates(self, ctx) -> list[tuple[str, bool]]:
        return []

    def quality(self, ctx) -> dict[str, tuple[float, str]]:
        return {}

    def optimizer_results(self, ctx) -> list[Path]:
        return []

    def describe(self) -> str:
        raise NotImplementedError


class Ladder(Part):
    """`bellopt sweep --na-list 0,2`: the paper's ladder of rungs."""

    command = "sweep"
    runs_optimizer = True

    def __init__(self, na_list=(0, 2), restarts=8, iters=50):
        self.na_list = tuple(na_list)
        self.restarts = restarts
        self.iters = iters
        self.analyzers_per_call = restarts * len(self.na_list)

    def _flags(self, ctx) -> list[str]:
        return ["--restarts", str(self.restarts), "--iters", str(self.iters),
                "--seed", str(ctx.seed), "--parallelism", "1"]

    def argvs(self, ctx):
        na_list = ",".join(str(na) for na in self.na_list)
        return [["sweep", "--na-list", na_list, *self._flags(ctx),
                 "--out", str(ctx.path("ladder.csv"))]]

    def outputs(self, ctx, argv):
        return [ctx.path("ladder.csv")]

    def signature(self, ctx, argv, call):
        return {"rows": _data_rows(ctx.path("ladder.csv")),
                "heartbeats": [float(h) for h in _HEARTBEAT.findall(call.stderr)]}

    def finish(self, ctx):
        # `sweep` writes no matrix, so each rung is re-run as the identical
        # `optimize` command, whose result file the gates re-score.
        for na in self.na_list:
            ctx.cli(["optimize", "--na", str(na), *self._flags(ctx),
                     "--out", str(ctx.path(f"rung{na}.json"))])
            _rescore(ctx, ctx.path(f"rung{na}.json"), na, f"rung{na}")

    def _rungs(self, ctx) -> dict[int, float]:
        rows = _data_rows(ctx.path("ladder.csv"))
        return {int(na): float(h) for na, h in (row.split(",") for row in rows)}

    def gates(self, ctx):
        rungs = self._rungs(ctx)
        gates = [("ladder.csv has one row per rung", sorted(rungs) == sorted(self.na_list))]
        last = [c for c in _read_calls(ctx) if c["argv"][0] == self.command][-1]
        heartbeats = last["signature"]["heartbeats"]
        gates.append(("every heartbeat h in [0, 2]", _in_range(heartbeats)))
        gates.append(("every ladder.csv h in [0, 2]", _in_range(rungs.values())))
        if 0 in self.na_list:
            gates.append((f"best h at N_a = 0 within {NA0_TOL:g} of {NA0_OPTIMUM}",
                          abs(rungs.get(0, -1.0) - NA0_OPTIMUM) <= NA0_TOL))
        for k, na in enumerate(self.na_list):
            doc = json.loads(ctx.path(f"rung{na}.json").read_text())
            per_restart = [r["h_mutual"] for r in doc["per_restart"]]
            beats = heartbeats[k * self.restarts:(k + 1) * self.restarts]
            gates += [
                (f"rung{na}: every h in [0, 2]",
                 _in_range(per_restart + [doc["best"]["h_mutual"]])),
                (f"rung{na}: sweep row equals the optimize best",
                 abs(rungs.get(na, -1.0) - doc["best"]["h_mutual"]) <= 1e-12),
                (f"rung{na}: heartbeats match the per-restart bits",
                 len(beats) == len(per_restart) and all(
                     abs(a - b) <= PRINTED_TOL for a, b in zip(beats, per_restart))),
            ]
            gates += _rescore_gates(ctx, ctx.path(f"rung{na}.json"), f"rung{na}")
        return gates

    def quality(self, ctx):
        per_restart = {}
        for na in self.na_list:
            doc = json.loads(ctx.path(f"rung{na}.json").read_text())
            per_restart[na] = [r["h_mutual"] for r in doc["per_restart"]]
        out = {
            "mean_h": (statistics.fmean(h for hs in per_restart.values() for h in hs), "bits"),
            "best_h": (self._rungs(ctx)[max(self.na_list)], "bits"),
        }
        if 0 in per_restart:
            hits = sum(1 for h in per_restart[0] if abs(h - NA0_OPTIMUM) <= NA0_TOL)
            out["na0_hits"] = (hits, f"of {len(per_restart[0])} restarts")
        return out

    def optimizer_results(self, ctx):
        return [ctx.path(f"rung{na}.json") for na in self.na_list]

    def describe(self):
        return (f"bellopt sweep --na-list {','.join(map(str, self.na_list))} "
                f"--restarts {self.restarts} --iters {self.iters} --parallelism 1")


class Optimize(Part):
    """`bellopt optimize --na 4` with an iteration cap, so the work is fixed."""

    command = "optimize"
    runs_optimizer = True

    def __init__(self, na=4, restarts=2, iters=10):
        self.na_list = (na,)
        self.restarts = restarts
        self.iters = iters
        self.analyzers_per_call = restarts

    def argvs(self, ctx):
        return [["optimize", "--na", str(self.na_list[0]), "--restarts", str(self.restarts),
                 "--iters", str(self.iters), "--seed", str(ctx.seed), "--parallelism", "1",
                 "--out", str(ctx.path("optimize.json"))]]

    def outputs(self, ctx, argv):
        return [ctx.path("optimize.json")]

    def signature(self, ctx, argv, call):
        doc = json.loads(ctx.path("optimize.json").read_text())
        return {"per_restart": [r["h_mutual"] for r in doc["per_restart"]],
                "best": doc["best"]["h_mutual"]}

    def finish(self, ctx):
        _rescore(ctx, ctx.path("optimize.json"), self.na_list[0], "optimize")

    def gates(self, ctx):
        doc = json.loads(ctx.path("optimize.json").read_text())
        per_restart = [r["h_mutual"] for r in doc["per_restart"]]
        return ([("optimize: every h in [0, 2]",
                  _in_range(per_restart + [doc["best"]["h_mutual"]]))]
                + _rescore_gates(ctx, ctx.path("optimize.json"), "optimize"))

    def quality(self, ctx):
        doc = json.loads(ctx.path("optimize.json").read_text())
        return {"mean_h": (statistics.fmean(r["h_mutual"] for r in doc["per_restart"]), "bits"),
                "best_h": (doc["best"]["h_mutual"], "bits")}

    def optimizer_results(self, ctx):
        return [ctx.path("optimize.json")]

    def describe(self):
        return (f"bellopt optimize --na {self.na_list[0]} --restarts {self.restarts} "
                f"--iters {self.iters} --parallelism 1")


class Conditions(Part):
    """`bellopt conditions --na 6`: unbatched cascade on one large alphabet per analyzer."""

    command = "conditions"

    def __init__(self, na=6, trials=20):
        self.na_list = (na,)
        self.trials = trials
        self.analyzers_per_call = 2 * trials

    def argvs(self, ctx):
        return [["conditions", "--na", str(self.na_list[0]), "--trials", str(self.trials),
                 "--seed", str(ctx.seed), "--out", str(ctx.path("conditions"))]]

    def outputs(self, ctx, argv):
        return [ctx.path("conditions.csv"), ctx.path("conditions.json")]

    def signature(self, ctx, argv, call):
        rows = "\n".join(_data_rows(ctx.path("conditions.csv")))
        return hashlib.sha256(rows.encode()).hexdigest()

    def _h_values(self, ctx) -> list[float]:
        return [float(row.split(",")[2]) for row in _data_rows(ctx.path("conditions.csv"))]

    def gates(self, ctx):
        rows = _data_rows(ctx.path("conditions.csv"))
        summary = json.loads(ctx.path("conditions.json").read_text())["summary"]
        return [
            (f"conditions.csv has 2 x {self.trials} rows", len(rows) == 2 * self.trials),
            (f"conditioned bunched_mass_max <= {BUNCHED_MASS_TOL:g}",
             summary["conditioned"]["bunched_mass_max"] <= BUNCHED_MASS_TOL),
            ("conditions: every h in [0, 2]", _in_range(self._h_values(ctx))),
        ]

    def quality(self, ctx):
        h = self._h_values(ctx)
        return {"mean_h": (statistics.fmean(h), "bits"), "best_h": (max(h), "bits")}

    def describe(self):
        return f"bellopt conditions --na {self.na_list[0]} --trials {self.trials}"


class Check(Part):
    """`bellopt check --na 6` on sampled conditioned and Haar matrices."""

    command = "check"

    def __init__(self, na=6, per_kind=4):
        self.na_list = (na,)
        self.per_kind = per_kind

    def _matrices(self, ctx) -> list[tuple[str, Path]]:
        out = []
        for i in range(self.per_kind):
            out += [("conditioned", ctx.path(f"conditioned{i}.json")),
                    ("haar", ctx.path(f"haar{i}.json"))]
        return out

    def prepare(self, ctx):
        seeds = _seeds(ctx.seed, 2 * self.per_kind)
        na = str(self.na_list[0])
        scores = []
        for (kind, path), seed in zip(self._matrices(ctx), seeds):
            ctx.cli(["sample", "--na", na, "--seed", str(seed), "--kind", kind,
                     "--out", str(path)])
            call = ctx.cli(["evaluate", "--matrix", str(path), "--na", na])
            scores.append({"matrix": path.name, "code": call.code, "stdout": call.stdout})
        ctx.path("scores.json").write_text(json.dumps(scores))

    def argvs(self, ctx):
        na = str(self.na_list[0])
        return [["check", "--matrix", str(path), "--na", na] for _, path in self._matrices(ctx)]

    def expected(self, argv):
        return (0, "PASS") if Path(argv[2]).name.startswith("conditioned") else (1, "FAIL")

    def _h_values(self, ctx) -> list[float]:
        scores = json.loads(ctx.path("scores.json").read_text())
        return [float(m.group(1)) for s in scores if (m := _H_MUTUAL.search(s["stdout"]))]

    def gates(self, ctx):
        scores = json.loads(ctx.path("scores.json").read_text())
        h = self._h_values(ctx)
        return [
            ("every sampled matrix evaluates", all(s["code"] == 0 for s in scores)
             and len(h) == len(scores)),
            ("every evaluated h in [0, 2]", _in_range(h)),
        ]

    def quality(self, ctx):
        h = self._h_values(ctx)
        return {"mean_h": (statistics.fmean(h), "bits"), "best_h": (max(h), "bits")}

    def describe(self):
        return (f"bellopt check --na {self.na_list[0]} over {self.per_kind} conditioned "
                f"and {self.per_kind} Haar matrices")


class Workload:
    """A mix of parts issued in cycles; ``wall_s`` is the time of one cycle."""

    def __init__(self, name: str, why: str, parts: list[Part]):
        self.name = name
        self.why = why
        self.parts = parts
        self.na_list = tuple(sorted({na for part in parts for na in part.na_list}))
        self.runs_optimizer = any(part.runs_optimizer for part in parts)

    def part(self, argv) -> Part:
        return next(part for part in self.parts if part.command == argv[0])

    def prepare(self, ctx) -> None:
        for part in self.parts:
            part.prepare(ctx)

    def argvs(self, ctx) -> list[list[str]]:
        return [argv for part in self.parts for argv in part.argvs(ctx)]

    def outputs(self, ctx, argv) -> list[Path]:
        return self.part(argv).outputs(ctx, argv)

    def signature(self, ctx, argv, call):
        return self.part(argv).signature(ctx, argv, call)

    def expected(self, argv) -> tuple[int, str | None]:
        return self.part(argv).expected(argv)

    def finish(self, ctx) -> None:
        for part in self.parts:
            part.finish(ctx)

    def gates(self, ctx) -> list[tuple[str, bool]]:
        return _call_gates(self, ctx) + [g for part in self.parts for g in part.gates(ctx)]

    def quality(self, ctx) -> dict[str, tuple[float, str]]:
        return {f"{part.command}.{name}": value
                for part in self.parts for name, value in part.quality(ctx).items()}

    def optimizer_results(self, ctx) -> list[Path]:
        return [path for part in self.parts for path in part.optimizer_results(ctx)]

    def describe(self) -> str:
        return "; ".join(part.describe() for part in self.parts)


WORKLOADS = {wl.name: wl for wl in (
    Workload("optimizer-na0-4",
             "the paper's ladder (sweep at N_a = 0, 2: eigh-bound FD gradients) plus "
             "optimize at N_a = 4 (K = 1716: cascade-bound FD batches)",
             [Ladder(), Optimize()]),
    Workload("nogo-na6",
             "conditions and check at N_a = 6 (K = 24310): unbatched cascade, dict "
             "OutcomeTable, mutual_information and the Ryser bunched scan; no optimizer",
             [Conditions(), Check()]),
)}
