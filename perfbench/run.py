"""Benchmark of the two LIRE engines: ``python3 perfbench/run.py --workload W``.

Run from the root of a source checkout. Prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``. A line
before it, ``{"info": ...}``, records the host, the configuration and the
count-type outcomes. Exits 1 when a correctness check fails and 2 when the
checkout has no ``src/repro`` to benchmark. See perfbench/README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: a single-client benchmark must not race its own pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _blas() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="core-search or core-churn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import core_bench

    if args.workload not in core_bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(core_bench.WORKLOADS)}")
    out = core_bench.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START)

    import resource

    if not args.trace:
        # ru_maxrss is KiB on Linux
        out["metrics"]["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "blas": _blas(), "python": sys.version.split()[0],
        "clocks": "sim_* metrics are simulated microseconds from the engine's latency "
                  "model; every other time is wall clock",
        "errors": out["errors"], **out["info"],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # every workload prints every metric of the manifest's list, nothing else
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(out["metrics"]) != set(units):
        print(f"perfbench: metrics {sorted(out['metrics'])} do not match BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 3
    for err in out["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    correct = not out["errors"] and out["failed"] == 0
    print(json.dumps({"info": info}, default=str))
    metrics = {k: {"value": out["metrics"][k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
