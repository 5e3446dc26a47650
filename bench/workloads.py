"""One benchmark workload, run in its own process.

``run_bench.py`` starts this file; it is not meant to be run by hand.

    python3 bench/workloads.py --workload local_cells --seed 7 \
        --seconds 30 --trace 0 [--setup-only]

Inputs: every workload uses its preset built at dataset seed 7 (graph,
knowledge graph, preferences, costs). The workload seed sets the trial
salt (seed XOR 7) of one extra local σ evaluation per evaluated seed
group, untimed and after the timed work, whose result must repeat
across runs with the same seed. Every timed σ runs at
salt 0, so a run does the same work whatever its seed: at M=16 the σ
of one fixed seed group ranges over 446-1292 across salts (its
evaluation over 6-12 s), the Spark BSP time over 15-31 s with the
number of supersteps, and a new graph per seed moved the flagship
evaluation by 2× as well.

Load is closed-loop: one client, one operation at a time. A *round*
runs each of the workload's operations once; rounds repeat until
``--seconds`` have passed (at least one; ``max_rounds`` caps them).

The host is shared and its speed drifts by up to 2× over minutes, for
every step alike. So each timed local sample is bracketed by a *speed probe*,
a fixed loop that does not touch ``repro`` (:func:`speed_probe`), and
is scaled to the reference speed: ``wall × PROBE_REF_S / mean(probe
before, probe after)``. A metric is the sum over the workload's cells
of the median of its scaled samples in the run. The raw wall times are
reported alongside. Every operation is checked (see :class:`Workload`);
a mismatch or an exception counts as a failed operation.

The last stdout line is one JSON object; ``run_bench.py`` turns it into
the benchmark's result line.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import golden
from tracing import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
DATASET_SEED = 7
GOLDEN_SEED = 7
M_EVAL = 16  # σ-evaluation samples, as the harness's Runner
MAX_PAIRS = 100  # the harness's Runner default
SIGMA_TOL = 1e-9  # Spark σ sums the log in another order
# Speed probe time at the reference speed: about the probe's typical time
# on one core of a shared 4-core 2.0 GHz Xeon host. It only sets the
# scale of the scaled times.
PROBE_REF_S = 0.03

_PROBE_RNG = np.random.default_rng(1)
_PROBE_BIG = _PROBE_RNG.random(400_000)  # 3.2 MB, beyond a core's L2
_PROBE_IDX = _PROBE_RNG.integers(0, 400_000, 200_000)


def speed_probe() -> float:
    """Wall time of a fixed loop that does not touch ``repro`` (~30 ms).

    It mixes the three kinds of work the program does: interpreter-bound
    dict updates, numpy ops on small arrays, and gathers, scatters and a
    sort on arrays larger than a core's cache. Of the three alone, or of
    pairs, this mix followed the host's speed best: over ten 40 s runs
    it halved the range of the local plan, σ and KG-count times.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(30000):
        d[i % 97] = d.get(i % 97, 0) + i
    a = np.random.default_rng(0).random(5000)
    for _ in range(150):
        a = np.sqrt(a * a + 1e-3)
        a[a > 0.5].sum()
    for _ in range(3):
        b = _PROBE_BIG[_PROBE_IDX] * 1.0001
        np.add.at(_PROBE_BIG, _PROBE_IDX[:20000], 1e-9)
        b.sort()
    return time.perf_counter() - t0


def mod(name: str):
    """The module object (``repro.core.dysim`` the package attr is a function)."""
    return importlib.import_module(name)


class Mismatch(Exception):
    """An operation's output failed its correctness check."""


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def make_dataset(preset: str):
    return mod("repro.data.datasets").make_dataset(preset, seed=DATASET_SEED)


def plan(method: str, model, b: float, T: int, max_pairs: int = MAX_PAIRS):
    """The planner call of ``Runner.run`` for ``method``."""
    if method == "dysim":
        return mod("repro.core.dysim").dysim(model, b, T, max_pairs=max_pairs).seeds
    if method == "hag":
        return mod("repro.baselines.hag").hag(model, b, T, max_pairs=max_pairs)
    if method == "bundlegrd":
        return mod("repro.baselines.bundlegrd").bundlegrd(model, b, T)
    if method == "ps":
        return mod("repro.baselines.ps").ps(model, b, T)
    if method == "opt":
        return mod("repro.baselines.opt").opt_bruteforce(model, b, T)
    raise KeyError(method)


def simulate(model, seeds, T: int, n_samples: int, salt: int):
    return mod("repro.diffusion.local").simulate(model, seeds, T, n_samples, trial_salt=salt)


class Workload:
    """Set-up, one round of checked operations, and tear-down.

    Checks: the seed list and the salt-0 σ equal the golden ones; the
    budget is respected and every timing is in [1, T]; a salted σ equals
    that of earlier runs with the same seed and source (kept in
    ``.bench_out/ref``).
    """

    name = ""
    max_rounds = 1000
    # End-to-end times whose traced minus untraced values give the
    # tracing overhead: the traced round must run in the same (warm) state.
    overhead_metrics = ("plan_s", "eval_s", "kg_count_s")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.salt = seed ^ GOLDEN_SEED  # 0 at the golden seed
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs: dict[str, int] = defaultdict(int)
        self.jvm_rss_kb = 0  # the Spark JVM's peak, reported apart
        # (metric, cell) -> [(scaled, raw) seconds] of the current run
        self.samples: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
        self._probe = 0.0  # the last speed probe
        # (cell, M) -> (model, seeds, T) of every σ to repeat at the salt.
        self.salted: dict[tuple[str, int], tuple] = {}
        self.tracer: Tracer | None = None  # set for the traced round
        self._ref_path = OUT / "ref" / f"{self.name}-{seed}-{src_digest()[:16]}.json"
        self._ref = (
            json.loads(self._ref_path.read_text()) if self._ref_path.exists() else {}
        )

    # -- phases ---------------------------------------------------------
    def load(self) -> None:
        """Build the datasets (imports and meta-graph counting included)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.load()

    def run_ops(self) -> None:
        """The operations of one round; timings go to ``self.samples``."""
        raise NotImplementedError

    def gate(self) -> None:
        """Untimed golden checks run once, at the golden seed only."""

    def salted_checks(self) -> None:
        """Each evaluated seed group's σ at the run's salt, untimed.

        The value must equal that of earlier runs with the same seed.
        They run after the timed work, whose memory peak they would
        otherwise move: a salted sample can spread far wider.
        """
        for (cell, M), (model, seeds, T) in self.salted.items():
            def run(model=model, seeds=seeds, T=T, M=M, cell=cell):
                sigma = simulate(model, seeds, T, M, self.salt).sigma
                self.check_repeat(f"{cell}/M={M}/salt={self.salt}", sigma)

            self.op(f"{cell}/salt={self.salt}", run)

    def rounds(self, seconds: float) -> tuple[int, dict[str, float], dict[str, float]]:
        """Run rounds for ``seconds``; per metric, sum the per-cell medians.

        Returns the number of rounds, the scaled times and the raw ones.
        """
        self.samples.clear()
        self._probe = speed_probe()
        n = 0
        t0 = time.perf_counter()
        while n < self.max_rounds and (not n or time.perf_counter() - t0 < seconds):
            self.run_ops()
            n += 1
        scaled: dict[str, float] = defaultdict(float)
        raw: dict[str, float] = defaultdict(float)
        for (metric, _), secs in self.samples.items():
            scaled[metric] += statistics.median(s for s, _ in secs)
            raw[metric] += statistics.median(r for _, r in secs)
        return n, dict(scaled), dict(raw)

    def close(self) -> None:
        if self._ref:
            self._ref_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._ref_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._ref))
            tmp.replace(self._ref_path)

    # -- operations -----------------------------------------------------
    def op(self, label: str, fn):
        """Run one checked operation; return its result or None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = label  # the spans of one operation share its label
        try:
            return fn()
        except Mismatch as exc:
            self.failures.append(f"{label}: {exc}")
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        print(f"FAILED {self.failures[-1]}", file=sys.stderr)
        return None

    def timed(self, metric: str | None, cell: str, fn, *, scaled: bool = True):
        """Call ``fn``; record its scaled and raw wall time under ``metric``.

        With ``metric`` None the call is untimed. The probe that follows
        a sample is the one that precedes the next. Spark calls are not
        scaled (``scaled=False``, the raw time is recorded twice): their
        work runs on the JVM's threads and the Python workers, and a
        probe right after one shares the host with the JVM's clean-up.
        Scaled, the cold BSP time of ten runs spread 0.17 of its median,
        against 0.06 raw.
        """
        if metric is None:
            return fn()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        if not scaled:
            self.samples[(metric, cell)].append((wall, wall))
            return out
        before, self._probe = self._probe, speed_probe()
        scale = PROBE_REF_S / ((before + self._probe) / 2)
        self.samples[(metric, cell)].append((wall * scale, wall))
        return out

    def check_repeat(self, key: str, value) -> None:
        """The same seed must give the same value in every round and run."""
        if key not in self._ref:
            self._ref[key] = value
        elif self._ref[key] != value:
            raise Mismatch(f"{key}: {value!r} != earlier {self._ref[key]!r} (same seed)")

    def plan_cell(self, cell: str, method: str, model, b: float, T: int, *,
                  max_pairs: int = MAX_PAIRS, metric: str | None = "plan_s"):
        """Plan one cell (an operation); return its checked seed list."""

        def run():
            seeds = self.timed(metric, cell, lambda: plan(method, model, b, T, max_pairs))
            seeds = [tuple(int(v) for v in s) for s in seeds]
            cost = sum(float(model.cost[u, x]) for u, x, _ in seeds)
            if cost > b + 1e-9:
                raise Mismatch(f"cost {cost} exceeds budget {b}")
            if any(not 1 <= t <= T for _, _, t in seeds):
                raise Mismatch(f"timing outside [1, {T}]: {seeds}")
            if seeds != golden.SEEDS[cell]:
                raise Mismatch(f"seeds {seeds} != golden {golden.SEEDS[cell]}")
            return seeds

        return self.op(f"{cell}/plan", run)

    def eval_cell(self, cell: str, model, seeds, T: int, M: int = M_EVAL, *,
                  metric: str | None = "eval_s"):
        """σ at M samples and salt 0 (an operation)."""

        def run():
            sigma = self.timed(metric, cell, lambda: simulate(model, seeds, T, M, 0).sigma)
            want = golden.SIGMA[(cell, M)]
            if sigma != want:
                raise Mismatch(f"sigma {sigma!r} != golden {want!r}")
            self.salted[(cell, M)] = (model, seeds, T)

        self.op(f"{cell}/eval", run)

    def kg_pandas(self, ds, repeats: int) -> None:
        """Meta-graph counting of the preset's KG with the pandas path."""
        metagraphs = mod("repro.kg.metagraphs")

        def run():
            for _ in range(repeats):
                rel = self.timed(
                    "kg_count_s", ds.name,
                    lambda: metagraphs.relevance_table_pandas(ds.kg_edges, ds.metas),
                )
                if not rel.equals(ds.relevance):
                    raise Mismatch("pandas relevance table differs from the dataset's")

        self.op(f"{ds.name}/kg/pandas", run)


class LocalCells(Workload):
    """Short Dysim, T2-row and OPT cells on the local engine.

    A round plans and evaluates (σ at M=16) a short amazon_lite Dysim
    cell (b=20, T=5, a 20-pair candidate pool; kernels, TDSI and the
    graph primitives at the flagship's scale), the small100 T2 row
    (T=3, b=8: Dysim, BundleGRD, HAG, PS; CR-Greedy and frozen mode)
    and a short OPT cell (b=4, T=3: ~200 two-sample ``simulate`` calls,
    RNG and per-call overhead). It also evaluates the flagship's and
    OPT's golden seed groups (M=2 on amazon_lite, M=16 on small100) and
    counts both KGs with pandas, three times each. Every timed step takes
    at most ~2.5 s, so a run of 30 s holds four or more samples of each.

    The full flagship cell (Dysim b=60, T=10, ~10-25 s) and the full T2
    OPT cell (~15-20 s) are too long to sample more than once in a run;
    at the golden seed they are planned once, untimed, after the
    rounds (:meth:`gate`).
    """

    name = "local_cells"
    amazon_cell = "amazon_lite/dysim/b=20/T=5/pairs=20"
    row = tuple(f"small100/{m}/b=8/T=3" for m in ("dysim", "bundlegrd", "hag", "ps"))
    opt_cell = "small100/opt/b=4/T=3"

    def load(self) -> None:
        self.amazon = make_dataset("amazon_lite")
        self.small = make_dataset("small100")

    def run_ops(self) -> None:
        big, small = self.amazon.model, self.small.model
        seeds = self.plan_cell(self.amazon_cell, "dysim", big, 20, 5, max_pairs=20)
        if seeds is not None:
            self.eval_cell(self.amazon_cell, big, seeds, 5)
        self.kg_pandas(self.amazon, 3)
        for cell in self.row:
            seeds = self.plan_cell(cell, cell.split("/")[1], small, 8, 3)
            if seeds is not None:
                self.eval_cell(cell, small, seeds, 3)
        seeds = self.plan_cell(self.opt_cell, "opt", small, 4, 3)
        if seeds is not None:
            self.eval_cell(self.opt_cell, small, seeds, 3)
        self.kg_pandas(self.small, 3)
        self.eval_cell(golden.FLAGSHIP, big, golden.SEEDS[golden.FLAGSHIP], 10, 2)
        opt_row = "small100/opt/b=8/T=3"
        self.eval_cell(opt_row, small, golden.SEEDS[opt_row], 3)

    def gate(self) -> None:
        """The ROADMAP flagship cell and the full T2 OPT cell, untimed."""
        big, small = self.amazon.model, self.small.model
        seeds = self.plan_cell(golden.FLAGSHIP, "dysim", big, 60, 10, metric=None)
        if seeds is not None:
            self.eval_cell(golden.FLAGSHIP, big, seeds, 10, metric=None)
        self.plan_cell("small100/opt/b=8/T=3", "opt", small, 8, 3, metric=None)


class SparkSmall100(Workload):
    """Spark BSP σ of the small100 Dysim seeds, and Spark KG counting.

    The seed group (b=8, T=5) is planned locally as input (8 samples);
    its σ at M=4 on the Spark engine must give the local engine's
    adoption log exactly. The BSP call is the first of the session, as
    in a ``spark-submit`` job: an untimed warm-up call costs as much as
    the cold call itself (~30 s at any T), which a run cannot afford.
    The amazon_lite KG is counted on Spark five times, after a warm-up
    count in set-up, and must equal the pandas table. Set-up also runs
    one trivial Python job so that the worker start-up is not charged
    to the first Spark call.
    """

    name = "spark_small100"
    max_rounds = 1  # the timed Spark calls are the session's first
    b, T, M = 8, 5, 4
    overhead_metrics = ("plan_s", "kg_count_s")  # the traced BSP call is not cold
    cell = "small100/dysim/b=8/T=5"
    plan_samples = 8
    kg_samples = 5

    def load(self) -> None:
        self.small = make_dataset("small100")
        self.amazon = make_dataset("amazon_lite")

    def setup(self) -> None:
        self.spark = start_spark()
        self.sc = self.spark.sparkContext
        self._group = 0
        self.load()

        def identity(batches):
            yield from batches

        # Start the executor's Python workers (Arrow included) once, so
        # that neither timed call pays for it.
        self.spark.range(0, 8, numPartitions=4).mapInPandas(identity, "id long").count()
        # The first meta-graph query of a session takes 7-14 s, later ones
        # ~2.5 s: warm the SQL path so that the timed counts are steady.
        self.op(f"{self.amazon.name}/kg/spark-warm-up", lambda: self.kg_spark(None))

    def _job_group(self, kind: str) -> str:
        self._group += 1
        gid = f"{kind}-{self._group}"
        self.sc.setJobGroup(gid, f"bench {kind}")
        return gid

    def _jobs(self, kind: str, gid: str) -> None:
        self.jobs[kind] += len(self.sc.statusTracker().getJobIdsForGroup(gid))
        self.sc.setJobGroup("bench-other", "bench checks")

    def run_ops(self) -> None:
        """The input plans, the warm KG counts, then the cold Spark σ."""
        model = self.small.model
        seeds = self.plan_cell(self.cell, "dysim", model, self.b, self.T)
        for _ in range(self.plan_samples - 1):
            self.plan_cell(self.cell, "dysim", model, self.b, self.T)
        for _ in range(self.kg_samples):
            self.op(f"{self.amazon.name}/kg/spark", self.kg_spark)
        if seeds is not None:
            self.op(f"{self.cell}/spark", lambda: self.spark_eval(seeds))

    def spark_eval(self, seeds) -> None:
        engine = mod("repro.diffusion.spark_engine")
        model = self.small.model
        gid = self._job_group("bsp")
        res = self.timed("eval_s", self.cell, lambda: engine.simulate_spark(
            self.spark, model, seeds, self.T, self.M
        ), scaled=False)
        self._jobs("bsp", gid)
        loc = simulate(model, seeds, self.T, self.M, 0)
        log = res.adoptions[["sample", "user", "item", "t"]].to_numpy(np.int64)
        got = {tuple(int(v) for v in row) for row in log}
        s, u, x = np.nonzero(loc.adopt_t)
        want = {
            (int(a), int(b), int(c), int(loc.adopt_t[a, b, c])) for a, b, c in zip(s, u, x)
        }
        if len(log) != len(got) or got != want:
            raise Mismatch(
                f"Spark log ({len(log)} rows) != local ({len(want)} adoptions)"
            )
        if abs(res.sigma - loc.sigma) > SIGMA_TOL:
            raise Mismatch(f"Spark σ {res.sigma!r} != local σ {loc.sigma!r}")
        want = golden.SIGMA[(self.cell, self.M)]
        if loc.sigma != want:
            raise Mismatch(f"sigma {loc.sigma!r} != golden {want!r}")
        self.salted[(self.cell, self.M)] = (model, seeds, self.T)

    def kg_spark(self, metric: str | None = "kg_count_s") -> None:
        """Spark meta-graph counting of the amazon_lite KG, vs pandas."""
        metagraphs = mod("repro.kg.metagraphs")
        ds = self.amazon
        want = ds.relevance.astype({"meta": "int64", "x": "int64", "y": "int64"})
        if len(want) != golden.KG_ROWS[ds.name]:
            raise Mismatch(f"{len(want)} relevance rows != golden {golden.KG_ROWS[ds.name]}")

        def count():
            kg = self.spark.createDataFrame(ds.kg_edges)
            return metagraphs.relevance_table_spark(self.spark, kg, ds.metas).toPandas()

        gid = self._job_group("metagraphs")
        got = self.timed(metric, ds.name, count, scaled=False)
        self._jobs("metagraphs", gid)
        got = (
            got.sort_values(["kind", "meta", "x", "y"])
            .reset_index(drop=True)
            .astype({"meta": "int64", "x": "int64", "y": "int64"})
        )
        if not got.equals(want):
            raise Mismatch("Spark relevance rows differ from relevance_table_pandas")

    def close(self) -> None:
        gateway = self.sc._gateway
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            self.jvm_rss_kb = _vm_hwm_kb(proc.pid)
        self.spark.stop()
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        super().close()


WORKLOADS = {w.name: w for w in (LocalCells, SparkSmall100)}


def start_spark():
    """Local-mode session configured as ``jobs/diffusion_spark.py``.

    ``local[n]`` with n ≤ 4 cores; UI and console progress off; all
    scratch space inside the checkout. Workers find ``repro`` through
    ``PYTHONPATH`` (set by ``run_bench.py``).
    """
    n = min(4, len(os.sched_getaffinity(0)))
    (OUT / "spark-local").mkdir(parents=True, exist_ok=True)  # SPARK_LOCAL_DIRS
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{n}]",
        "--driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        # No hsperfdata files in /tmp; JVM temp files inside the checkout.
        "--driver-java-options "
        + shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={os.environ['TMPDIR']}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("bench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(OUT / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a process, from /proc (0 if unavailable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_info() -> dict:
    import pandas
    import pyspark

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "n/a (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "n/a (git unavailable)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src_digest(),
    }


# -- traced run ----------------------------------------------------------

def layer_metrics(tracer: Tracer, jobs: dict[str, int]) -> dict[str, float]:
    """Every per-layer number of one traced round, by metric name."""
    c = tracer.counts
    busy = tracer.busy()
    out: dict[str, float] = {}
    for _, name, *_ in TARGETS:  # layers not called in this workload read 0
        out[name + ".calls"] = 0
        out[name + ".s"] = 0.0
    for key, val in sorted(c.items()):
        if not key.startswith("site."):
            out[key] = val
    for name, secs in sorted(busy.items()):
        out[name + ".s"] = secs
    for layer, secs in sorted(tracer.self_times().items()):
        out[f"self.{layer}.s"] = secs
    out["nominees.simulate.calls"] = c.get("site.nominees.simulate.calls", 0)
    out["opt.simulate.calls"] = c.get("site.opt.simulate.calls", 0)
    calls = c.get("tdsi.sigma_pi.calls", 0)
    misses = tracer.misses("tdsi.sigma_pi", "local.simulate")
    out["tdsi.sigma_pi.misses"] = misses
    out["tdsi.sigma_pi.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    out["spark.bsp.jobs"] = jobs.get("bsp", 0)
    out["spark.metagraphs.jobs"] = jobs.get("metagraphs", 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    ready_at = time.time()
    if args.setup_only:
        wl.close()
        print(json.dumps({"ready_at": ready_at}))
        return 0

    n_rounds, times, raw_times = wl.rounds(args.seconds)
    result = {"ready_at": ready_at, "rounds": n_rounds, "times": times,
              "raw_times": raw_times}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            wl.jobs.clear()
            tracer.op = "setup"
            with tracer.span("bench.load"):
                wl.load()
            wl.tracer = tracer
            with tracer.span("bench.round"):
                traced = wl.rounds(0)[1]
        finally:
            wl.tracer = None
            tracer.uninstall()
        layers = layer_metrics(tracer, wl.jobs)
        keys = wl.overhead_metrics
        layers["trace.overhead_s"] = sum(traced.get(k, 0.0) for k in keys) - sum(
            result["times"].get(k, 0.0) for k in keys
        )
        result["layers"] = layers
        result["traced_times"] = traced
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{wl.name}-{args.seed}.jsonl.gz")

    # Peak memory of the timed work; the gate's larger cells come after.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.salted_checks()
    if args.seed == GOLDEN_SEED:
        wl.gate()
    wl.close()
    result.update(
        attempted=wl.attempted,
        failures=wl.failures,
        peak_rss_mb=rss_kb / 1024.0,
        jvm_peak_rss_mb=wl.jvm_rss_kb / 1024.0,
        host=host_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
