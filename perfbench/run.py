"""bellopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports bellopt from ``src/``
and writes only under ``.bench_out/``. It pins BLAS to one thread before
numpy loads, runs the workload's ``bellopt`` commands in-process in a closed
loop (one client; each command starts when the previous one returns) for
about S seconds, checks the outputs, prints a table, and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is
the separate traced run that reports the per-layer ones. The seed picks the
program's ``--seed`` and every generated input. ``perfbench/README.md``
defines each workload and metric.
"""

import os

#: BLAS threads, pinned before numpy is imported so every run uses the same.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bellopt" / "__init__.py").is_file():
        print(f"error: no bellopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import print_report, run_workload
    from workloads import WORKLOADS

    if ns.workload not in WORKLOADS:
        parser.error(f"unknown workload {ns.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[ns.workload]
    report = run_workload(wl, ns.seed, ns.seconds, bool(ns.trace), ROOT, BLAS_THREADS)
    print_report(wl, ns.seed, bool(ns.trace), report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
