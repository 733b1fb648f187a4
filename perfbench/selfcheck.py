"""Self-check of the benchmark itself; runs in well under a minute.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` names the workloads of ``workloads.py`` with the same
   reasons, and the metrics of ``metrics.py`` with the same units and
   directions.
2. Tiny mixes of the same four commands (N_a <= 4, a few restarts or
   trials) run untraced and traced; every metric prints with its unit and
   every gate passes.
3. Each gate fails when a file it reads is corrupted.

Exits 0 when all of this holds and prints each failure otherwise.
"""

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

from harness import Context, evaluate_gates, run_workload  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Check, Conditions, Ladder, Optimize, Workload  # noqa: E402

SEED = 3
SECONDS = 6.0

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in doc["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    for entry in doc["workloads"]:
        wl = WORKLOADS.get(entry["name"])
        expect(wl is not None and entry["why"] == wl.why, f"why of {entry['name']} matches")
    for key, specs in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        expect(listed == [(m.name, m.unit, m.better) for m in specs],
               f"BENCHMARK.json {key} matches metrics.py")


def check_metrics(result: dict, specs, label: str) -> None:
    metrics = result["metrics"]
    expect(list(metrics) == [m.name for m in specs], f"{label}: every metric is printed")
    for m in specs:
        entry = metrics.get(m.name, {})
        expect(entry.get("unit") == m.unit, f"{label}: {m.name} has unit {m.unit}")
        value = entry.get("value")
        expect(isinstance(value, float) and math.isfinite(value),
               f"{label}: {m.name} is a finite number")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: every gate passes")


# --- corruptions: (file, edit, words of the gate that must then fail) ---------

def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_calls(path, index, change):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    change(rows[index])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def edit_csv_row(path, row, column, value):
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    if value is None:
        del lines[data[row]]
    else:
        fields = lines[data[row]].split(",")
        fields[column] = value
        lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _set(key_path, value):
    def change(doc):
        target = doc
        for key in key_path[:-1]:
            target = target[key]
        target[key_path[-1]] = value
    return change


def _scale_first_probability(doc):
    doc["outcomes"][0]["p"][0] *= 1.001


def _bump(key_path, delta):
    def change(doc):
        target = doc
        for key in key_path[:-1]:
            target = target[key]
        target[key_path[-1]] += delta
    return change


def _heartbeat_h(doc):
    doc["signature"]["heartbeats"][0] = 2.5


COMMON = [
    ("calls.jsonl", lambda p: edit_calls(p, 0, _set(["code"], 3)), "call 0"),
    ("calls.jsonl", lambda p: edit_calls(p, 0, _set(["error"], "RuntimeError: boom")), "call 0"),
    ("calls.jsonl", lambda p: edit_calls(p, 0, _set(["signature"], "changed")), "repeats"),
]

CORRUPTIONS = {
    "selfcheck-optimizer": COMMON + [
        ("ladder.csv", lambda p: edit_csv_row(p, 0, 1, "1.4"), "N_a = 0 within"),
        ("ladder.csv", lambda p: edit_csv_row(p, 1, 1, "2.5"), "ladder.csv h in [0, 2]"),
        ("ladder.csv", lambda p: edit_csv_row(p, 1, 1, None), "one row per rung"),
        ("ladder.csv", lambda p: edit_csv_row(p, 1, 1, "1.0"), "sweep row equals"),
        ("calls.jsonl", lambda p: edit_calls(p, -2, _heartbeat_h), "heartbeat h in [0, 2]"),
        ("rung2.json", lambda p: edit_json(p, _set(["per_restart", 0, "h_mutual"], 2.5)),
         "rung2: every h"),
        ("rung2.json", lambda p: edit_json(p, _set(["per_restart", 0, "h_mutual"], 0.5)),
         "heartbeats match"),
        ("rung2.json", lambda p: edit_json(p, _bump(["best", "h_mutual"], 1e-8)),
         "rung2: re-scored"),
        ("rung0_table.json", lambda p: edit_json(p, _scale_first_probability), "rung0: re-scored"),
        ("rung0_evaluate.json", lambda p: edit_json(p, _set(["code"], 1)), "evaluate exits 0"),
        ("rung0_evaluate.json", lambda p: edit_json(p, _set(["stdout"], "h_mutual = 0.1\n")),
         "printed h_mutual"),
        ("optimize.json", lambda p: edit_json(p, _set(["per_restart", 0, "h_mutual"], -0.1)),
         "optimize: every h in [0, 2]"),
        ("optimize.json", lambda p: edit_json(p, _bump(["best", "h_mutual"], 1e-8)),
         "optimize: re-scored"),
        ("optimize_table.json", lambda p: edit_json(p, _scale_first_probability),
         "optimize: re-scored"),
        ("optimize_evaluate.json", lambda p: edit_json(p, _set(["code"], 1)),
         "optimize: evaluate exits 0"),
        ("optimize_evaluate.json", lambda p: edit_json(p, _set(["stdout"], "")),
         "optimize: printed h_mutual"),
    ],
    "selfcheck-nogo": COMMON + [
        ("conditions.csv", lambda p: edit_csv_row(p, 0, 2, None), "rows"),
        ("conditions.csv", lambda p: edit_csv_row(p, 0, 2, "2.5"), "conditions: every h"),
        ("conditions.json",
         lambda p: edit_json(p, _set(["summary", "conditioned", "bunched_mass_max"], 1e-9)),
         "bunched_mass_max"),
        ("calls.jsonl", lambda p: edit_calls(p, 1, _set(["last_line"], "FAIL")), "with PASS"),
        ("calls.jsonl", lambda p: edit_calls(p, 2, _set(["code"], 0)), "with FAIL"),
        ("scores.json", lambda p: edit_json(p, _set([0, "stdout"], "h_mutual = 2.5\n")),
         "every evaluated h"),
        ("scores.json", lambda p: edit_json(p, _set([1, "code"], 1)), "every sampled matrix"),
    ],
}

#: Tiny mixes with the same parts as the real workloads.
TINY = (
    Workload("selfcheck-optimizer", "tiny optimizer mix",
             [Ladder(na_list=(0, 2), restarts=2, iters=50), Optimize(na=2, restarts=1, iters=3)]),
    Workload("selfcheck-nogo", "tiny no-go mix",
             [Conditions(na=4, trials=2), Check(na=4, per_kind=1)]),
)


def check_gates_catch_corruption(wl) -> None:
    ctx = Context(seed=SEED, out=run.ROOT / ".bench_out" / f"{wl.name}-seed{SEED}-trace0")
    for name, corrupt, words in CORRUPTIONS[wl.name]:
        path = ctx.path(name)
        original = path.read_text()
        try:
            corrupt(path)
            failed = [gate for gate, ok in evaluate_gates(wl, ctx) if not ok]
        finally:
            path.write_text(original)
        expect(any(words in gate for gate in failed),
               f"{wl.name}: corrupting {name} fails the gate '{words}' (failed: {failed})")
    expect(all(ok for _, ok in evaluate_gates(wl, ctx)), f"{wl.name}: gates pass after restoring")


def main() -> int:
    check_benchmark_json()
    for wl in TINY:
        for trace, specs in ((False, END_TO_END), (True, PER_LAYER)):
            report = run_workload(wl, SEED, SECONDS, trace, run.ROOT, run.BLAS_THREADS)
            check_metrics(report["result"], specs, f"{wl.name} trace {int(trace)}")
            expect(report["info"]["cycles"] >= 2 or trace,
                   f"{wl.name}: at least two cycles, so the repeat gates run")
        check_gates_catch_corruption(wl)
        print(f"{wl.name}: checked")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
