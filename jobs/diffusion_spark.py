"""spark-submit entrypoint: evaluate a Dysim seed group on the Spark engine.

Plans a seed group locally, evaluates its importance-aware influence on
the Spark engine (the Monte-Carlo samples sharded over the workers) and
cross-checks the adoption log and σ against the local reference engine;
the two must agree exactly. Needs no ``PYTHONPATH``:

    spark-submit jobs/diffusion_spark.py --dataset small100 --budget 8 --T 3
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core.dysim import dysim  # noqa: E402
from repro.data.datasets import make_dataset  # noqa: E402
from repro.diffusion.local import simulate  # noqa: E402
from repro.diffusion.spark_engine import simulate_spark  # noqa: E402
from repro.spark_session import job_session  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="small100")
    ap.add_argument("--budget", type=float, default=8)
    ap.add_argument("--T", type=int, default=3)
    ap.add_argument("--samples", type=int, default=4)
    args = ap.parse_args(argv)

    spark = job_session("repro-diffusion")
    ds = make_dataset(args.dataset)
    seeds = dysim(ds.model, args.budget, args.T).seeds
    print(f"planned {len(seeds)} seeds: {seeds}")
    sp = simulate_spark(spark, ds.model, seeds, args.T, args.samples)
    spark.stop()
    lo = simulate(ds.model, seeds, args.T, args.samples)
    print(f"sigma spark={sp.sigma:.6f} local={lo.sigma:.6f}")
    log = sp.adoptions[["sample", "user", "item", "t"]].to_numpy(np.int64)
    s, u, x = np.nonzero(lo.adopt_t)
    same_log = {tuple(r) for r in log.tolist()} == {
        (a, b, c, int(lo.adopt_t[a, b, c])) for a, b, c in zip(s.tolist(), u.tolist(), x.tolist())
    }
    if not (same_log and len(log) == len(s) and sp.sigma == lo.sigma):
        print("engines diverged", file=sys.stderr)
        return 1
    print("engines agree exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
