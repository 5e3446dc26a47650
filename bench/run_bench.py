"""The repository's benchmark: end-to-end and per-layer timings, checked.

    python3 bench/run_bench.py --workload local_cells --seed 7 \
        --seconds 30 --trace 0

Run from the repository root. Workloads (their reasons are in
``BENCHMARK.json``):

* ``local_cells``: short amazon_lite Dysim, small100 T2-row and OPT
  cells, planned and evaluated in rounds; at seed 7 also the flagship
  cell (amazon_lite, Dysim b=60, T=10) and the full T2 OPT cell, untimed;
* ``spark_small100``: Spark BSP σ of the small100 Dysim seeds at M=4,
  and Spark meta-graph counting of the amazon_lite KG.

Each run starts the workload in its own process (``workloads.py``) and
prints, last, one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with tracing off; local work is scaled to
the reference speed and Spark calls are not (see ``workloads.py``; the
raw wall times are printed above the JSON line); ``setup_s`` is the median over ``SETUP_REPEATS``
processes of the raw time from process start to the first timed
operation. With ``--trace 1`` the workload process also
runs one round with every layer wrapped (``tracing.py``) and the metrics
are the per-layer ones; the lines above the JSON list every layer
number, including those not in ``BENCHMARK.json``, and the spans are
written to ``.bench_out/``.

The workload seed and the checks are described in ``workloads.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s
# Set-up samples per run: the workload process plus set-up-only probes.
# A Spark set-up (JVM and Python worker start, a warm-up meta-graph
# count) takes ~25 s: one sample.
SETUP_REPEATS = {"local_cells": 3, "spark_small100": 1}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    # One BLAS thread per process: a single client, no threads of its own
    # competing for the shared host's cores (Spark workers included).
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYSPARK_PYTHON"] = sys.executable
    env["PYSPARK_DRIVER_PYTHON"] = sys.executable
    return env


def run_child(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one workload process; return its JSON line and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    spawned_at = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready_at"] - spawned_at


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    res, setup = run_child(args, [], deadline)
    setups = [setup]
    for _ in range(SETUP_REPEATS[args.workload] - 1):
        setups.append(run_child(args, ["--setup-only"], deadline)[1])

    host = res["host"]
    print("host " + json.dumps(host))
    print(f"rounds {res['rounds']}  setup samples {len(setups)}")
    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = dict(res["times"], setup_s=statistics.median(setups),
                      peak_rss_mb=res["peak_rss_mb"])
        print("-- raw wall times (not scaled to the reference speed)")
        for name, val in sorted(res["raw_times"].items()):
            print(f"raw {name:<36} {val:>16.6f} s")
        if res["jvm_peak_rss_mb"]:
            print(f"Spark JVM peak RSS (not in peak_rss_mb) {res['jvm_peak_rss_mb']:.1f} MB")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6f} {m['unit']}")
    if args.trace:
        listed = {m["name"] for m in wanted}
        print("-- further layer numbers (trace summary only)")
        for name, val in sorted(values.items()):
            if name not in listed:
                print(f"{name:<40} {val:>16.6f}")
        summary = OUT / f"trace-{args.workload}-{args.seed}.json"
        summary.write_text(json.dumps(
            {"host": host, "layers": values, "traced_times": res["traced_times"],
             "untraced_times": res["times"]}, indent=1, sort_keys=True))
    for f in res["failures"]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
