"""Generate every evaluation table (T1–T9) and write markdown results.

Usage:
    spark-submit jobs/run_all_tables.py [--out results.md] [--quick]
        [--table T3] [--skip-spark-check]

``--quick`` shrinks every sweep to one or two cheap cells (CI smoke).
``--table T3`` runs one table only (T1–T9). The full run reproduces
EXPERIMENTS.md. A SparkSession is only needed to certify one cell on
the Spark engine; all planning runs locally (see DESIGN.md §3
layering). The job exits 1 when that cell's Spark adoption log, σ or
``σ_by_t`` differs from the local engine's
(:meth:`repro.experiments.harness.Runner.spark_check`). Needs no
``PYTHONPATH``: the script puts ``src/`` on its own path.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import harness as H  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="table_results.md")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--skip-spark-check", action="store_true")
    ap.add_argument("--table", type=str.upper, choices=[f"T{i}" for i in range(1, 10)])
    args = ap.parse_args(argv)

    r = H.Runner()
    sections: list[tuple[str, list[dict]]] = []
    t_start = time.time()

    def log(msg: str) -> None:
        print(f"[{time.time() - t_start:7.1f}s] {msg}", file=sys.stderr, flush=True)

    if args.quick:
        specs = [
            ("T1 (Fig 5a) sigma vs budget, small100 vs OPT (T=2)",
             lambda: H.table_t1_opt_budget(r, budgets=(6,), T=2)),
            ("T3 (Fig 6a-c) sigma vs budget, large datasets (T=5)",
             lambda: H.table_t3_large_budget(r, datasets=("yelp_lite",), budgets=(40,), T=5)),
        ]
    else:
        specs = [
            ("T1 (Fig 5a) sigma vs budget, small100 vs OPT (T=5)",
             lambda: H.table_t1_opt_budget(r)),
            ("T2 (Fig 5b) sigma vs #promotions, small100 vs OPT (b=8)",
             lambda: H.table_t2_opt_T(r)),
            ("T3 (Fig 6a-c) sigma vs budget, large datasets (T=10)",
             lambda: H.table_t3_large_budget(r)),
            ("T4 (Fig 6e-f) sigma vs #promotions, large datasets (yelp b=25, amazon b=60)",
             lambda: H.table_t4_large_T(r)),
            ("T5 (Fig 6d) planner time (s) vs budget, amazon_lite (T=10)",
             lambda: H.table_t5_time_budget(r)),
            ("T6 (Fig 6g) planner time (s) vs #promotions, amazon_lite (b=60)",
             lambda: H.table_t6_time_T(r)),
            ("T7 (Fig 6h) Dysim scalability across datasets (b=60, T=10)",
             lambda: H.table_t7_scalability(r)),
            ("T8 (Fig 7a) sensitivity to #meta-graphs in planning, amazon_lite (b=60, T=10)",
             lambda: H.table_t8_metagraphs(r)),
            ("T9 (Fig 7b) sensitivity to theta, amazon_lite (b=60, T=10)",
             lambda: H.table_t9_theta(r)),
        ]

    if args.table:
        specs = [(title, fn) for title, fn in specs if title.split()[0] == args.table]
        if not specs:
            ap.error(f"--quick has no table {args.table}")
    for title, fn in specs:
        log(f"running {title} ...")
        sections.append((title, fn()))
        log(f"done {title}")

    lines = ["# Measured table results", ""]
    for title, rows in sections:
        lines += [f"## {title}", "", H.to_markdown(rows), ""]

    mismatches: list[str] = []
    if not args.skip_spark_check:
        log("certifying one cell on the Spark engine ...")
        from repro.spark_session import job_session

        cell = r.run("small100", "dysim", 8, 5 if not args.quick else 2)
        spark = job_session("repro-tables")
        try:
            check = r.spark_check(spark, cell, n_samples=4)
        finally:
            spark.stop()
        mismatches = check.mismatches
        lines += [
            "## Spark-engine certification",
            "",
            f"small100 Dysim cell (b=8, T={cell.T}): local engine "
            f"sigma={check.local_sigma:.6f}, Spark engine sigma={check.spark_sigma:.6f} "
            "(sample shards of the same engine; adoption log, sigma and sigma_by_t "
            f"must match exactly): {'DIVERGED' if mismatches else 'equal'}.",
            "",
        ]

    with open(args.out, "w") as f:
        f.write("\n".join(lines))
    log(f"wrote {args.out}")
    print("\n".join(lines))
    if mismatches:
        print(f"engines diverged: {', '.join(mismatches)} differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
