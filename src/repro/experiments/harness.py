"""Harness reproducing every evaluation table (DESIGN.md §4).

Each ``table_*`` function sweeps the paper's knobs, runs the planner of
every method, evaluates the resulting seed group on the *same* dynamic
diffusion engine (Def. 1's σ), and returns rows ready for markdown.
Runs are cached in the :class:`Runner`, so tables that share cells
(T3/T5/T7 and T4/T6) pay for them once. All runs are deterministic in
the dataset seed and the stateless trial RNG.

σ is evaluated with the local engine; :meth:`Runner.spark_check`
re-evaluates a cell on the Spark engine (the same engine run on shards
of the Monte-Carlo samples) and compares the adoption log, σ and
``σ_by_t`` with the local engine's, which `jobs/run_all_tables.py` uses
to certify one cell.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.bundlegrd import bundlegrd
from repro.baselines.hag import hag
from repro.baselines.opt import opt_bruteforce
from repro.baselines.ps import ps
from repro.core.dysim import dysim
from repro.core.nominees import MAX_PAIRS
from repro.data.datasets import Dataset, make_dataset
from repro.diffusion.local import simulate
from repro.dynamics.state import ModelData
from repro.params import DEFAULT, Params

METHODS = ("dysim", "bundlegrd", "hag", "ps")


@dataclass
class CellResult:
    """One (dataset, method, b, T) run: planning time + evaluated σ.

    ``params`` is the parameter set the cell ran with, so
    :meth:`Runner.spark_check` can derive its model.
    """

    dataset: str
    method: str
    b: float
    T: int
    sigma: float
    seconds: float
    seeds: list = field(repr=False, default_factory=list)
    params: Params = DEFAULT


@dataclass
class SparkCheck:
    """A cell evaluated on both engines; ``mismatches`` names what differs.

    Its entries are ``"log"``, ``"sigma"`` and ``"sigma_by_t"``; empty
    when the engines agree exactly.
    """

    local_sigma: float
    spark_sigma: float
    mismatches: list[str]


class Runner:
    """Caches datasets and per-cell runs across tables.

    Datasets are built once per name, at
    :func:`~repro.data.datasets.make_dataset`'s default seed (7). A cell
    runs on its dataset's model with :data:`~repro.params.DEFAULT`
    unless its ``params`` say otherwise; then the model is
    ``dataclasses.replace(model, params=…)``.
    """

    def __init__(self, *, mc_eval: int = 16, max_pairs: int = MAX_PAIRS) -> None:
        self.mc_eval = mc_eval
        self.max_pairs = max_pairs
        self._datasets: dict[str, Dataset] = {}
        self._cells: dict[tuple, CellResult] = {}

    def dataset(self, name: str) -> Dataset:
        if name not in self._datasets:
            self._datasets[name] = make_dataset(name)
        return self._datasets[name]

    def _model(self, dataset: str, params: Params) -> ModelData:
        """``dataset``'s model with ``params``: the cached one, or a replaced copy."""
        model = self.dataset(dataset).model
        return model if params == model.params else dataclasses.replace(model, params=params)

    def run(
        self, dataset: str, method: str, b: float, T: int, *, params: Params | None = None
    ) -> CellResult:
        """Plan with ``method`` and evaluate σ; cached per cell."""
        params = params or DEFAULT
        key = (dataset, method, b, T, params)
        if key in self._cells:
            return self._cells[key]
        model = self._model(dataset, params)
        t0 = time.perf_counter()
        if method == "dysim":
            seeds = dysim(model, b, T, max_pairs=self.max_pairs).seeds
        elif method == "hag":
            seeds = hag(model, b, T, max_pairs=self.max_pairs)
        elif method == "bundlegrd":
            seeds = bundlegrd(model, b, T)
        elif method == "ps":
            seeds = ps(model, b, T)
        elif method == "opt":
            seeds = opt_bruteforce(model, b, T)
        else:
            raise KeyError(f"unknown method {method!r}")
        seconds = time.perf_counter() - t0
        sigma = simulate(model, seeds, T, self.mc_eval).sigma
        cell = CellResult(dataset, method, b, T, sigma, seconds, seeds, params)
        self._cells[key] = cell
        return cell

    def spark_check(
        self, spark, cell: CellResult, *, n_samples: int | None = None
    ) -> SparkCheck:
        """Evaluate a cell on both engines, on its own model; compare with ``==``.

        The adoption logs, σ and ``σ_by_t`` must be equal: the Spark
        engine runs the local one on shards of the samples.
        """
        from repro.diffusion.spark_engine import simulate_spark

        model = self._model(cell.dataset, cell.params)
        M = self.mc_eval if n_samples is None else n_samples
        loc = simulate(model, cell.seeds, cell.T, M)
        sp = simulate_spark(spark, model, cell.seeds, cell.T, M)
        s, u, x = np.nonzero(loc.adopt_t)
        local_log = np.stack([s, u, x, loc.adopt_t[s, u, x]], axis=1)  # sorted rows
        cols = ["sample", "user", "item", "t"]
        spark_log = sp.adoptions.sort_values(cols)[cols].to_numpy(np.int64)
        mismatches = [
            name
            for name, same in (
                ("log", np.array_equal(spark_log, local_log)),
                ("sigma", sp.sigma == loc.sigma),
                ("sigma_by_t", np.array_equal(sp.sigma_by_t, loc.sigma_by_t)),
            )
            if not same
        ]
        return SparkCheck(loc.sigma, sp.sigma, mismatches)


# ----------------------------------------------------------------------
# Table runners — defaults match the jobs; tests shrink them.
# ----------------------------------------------------------------------

def _sweep(r: Runner, cells, methods, field: str, ndigits: int) -> list[dict]:
    """One row per ``(label, dataset, b, T)`` of ``cells``.

    A row is the ``label`` columns, then each method's cell ``field``
    (``"sigma"`` or ``"seconds"``) rounded to ``ndigits``.
    """
    return [
        {**label, **{m: round(getattr(r.run(dsn, m, b, T), field), ndigits) for m in methods}}
        for label, dsn, b, T in cells
    ]


def table_t1_opt_budget(r: Runner, *, budgets=(4, 6, 8, 10, 12), T: int = 5):
    """T1 / Fig. 5(a): σ vs budget against OPT on the 100-user sample."""
    cells = [({"b": b}, "small100", b, T) for b in budgets]
    return _sweep(r, cells, ("opt",) + METHODS, "sigma", 2)


def table_t2_opt_T(r: Runner, *, Ts=(1, 2, 3, 4, 5), b: float = 8):
    """T2 / Fig. 5(b): σ vs number of promotions against OPT."""
    cells = [({"T": T}, "small100", b, T) for T in Ts]
    return _sweep(r, cells, ("opt",) + METHODS, "sigma", 2)


def table_t3_large_budget(
    r: Runner,
    *,
    datasets=("yelp_lite", "amazon_lite", "douban_lite"),
    budgets: tuple | None = None,
    T: int = 10,
):
    """T3 / Fig. 6(a–c): σ vs budget on the large datasets.

    Budget axes differ per dataset, as in the paper's Fig. 6(a–c)
    (budgets are meaningful relative to the network's seed costs and
    size): ``None`` takes each dataset's default axis, a tuple applies to
    all. HAG is skipped on douban (the paper's Fig. 6(c) omits it — no
    result within 12 hours there; our HAG is likewise the slowest method
    on the largest dataset).
    """
    default_budgets = {
        "yelp_lite": (15, 25, 35, 45),
        "amazon_lite": (40, 60, 80, 100),
        "douban_lite": (40, 60, 80, 100),
        "gowalla_lite": (40, 60, 80, 100),
    }
    rows = []
    for dsn in datasets:
        methods = [m for m in METHODS if not (m == "hag" and dsn == "douban_lite")]
        ds_budgets = default_budgets[dsn] if budgets is None else budgets
        cells = [({"dataset": dsn, "b": b}, dsn, b, T) for b in ds_budgets]
        rows += _sweep(r, cells, methods, "sigma", 1)
    # A skipped method's column reads None ("—" in markdown).
    return [{c: row.get(c) for c in ("dataset", "b") + METHODS} for row in rows]


def table_t4_large_T(
    r: Runner,
    *,
    datasets=("yelp_lite", "amazon_lite"),
    Ts=(5, 10, 20, 40),
    b: float | None = None,
):
    """T4 / Fig. 6(e–f): σ vs number of promotions on large datasets.

    ``None`` takes each dataset's mid-range T3 budget; a number applies
    to all.
    """
    default_b = {"yelp_lite": 25, "amazon_lite": 60}
    cells = [
        ({"dataset": dsn, "T": T}, dsn, default_b[dsn] if b is None else b, T)
        for dsn in datasets
        for T in Ts
    ]
    return _sweep(r, cells, METHODS, "sigma", 1)


def table_t5_time_budget(r: Runner, *, budgets=(40, 60, 80, 100), T: int = 10):
    """T5 / Fig. 6(d): planner execution time vs budget (amazon)."""
    cells = [({"b": b}, "amazon_lite", b, T) for b in budgets]
    return _sweep(r, cells, METHODS, "seconds", 2)


def table_t6_time_T(r: Runner, *, Ts=(5, 10, 20, 40), b: float = 60):
    """T6 / Fig. 6(g): planner execution time vs T (amazon)."""
    cells = [({"T": T}, "amazon_lite", b, T) for T in Ts]
    return _sweep(r, cells, METHODS, "seconds", 2)


def table_t7_scalability(
    r: Runner,
    *,
    datasets=("yelp_lite", "gowalla_lite", "amazon_lite", "douban_lite"),
    b: float = 60,
    T: int = 10,
):
    """T7 / Fig. 6(h): Dysim execution time across datasets.

    Datasets are ordered by social-network size; gowalla (most items per
    user) should take about as long as amazon despite fewer users.
    """
    rows = []
    for dsn in datasets:
        cell = r.run(dsn, "dysim", b, T)
        ds = r.dataset(dsn)
        rows.append(
            {
                "dataset": dsn,
                "users": ds.n_users,
                "items": ds.n_items,
                "dysim_seconds": round(cell.seconds, 2),
                "sigma": round(cell.sigma, 1),
            }
        )
    return rows


def table_t8_metagraphs(
    r: Runner, *, sizes=((1, 1), (2, 2), (3, 3)), b: float = 60, T: int = 10
):
    """T8 / Fig. 7(a): Dysim σ vs number of meta-graphs (amazon).

    The diffusion world always uses the full meta-graph library (users'
    true perceptions don't depend on what the planner knows); only the
    relevance tensors *Dysim plans with* are truncated to the first
    ``n_comp`` complementary and ``n_subs`` substitutable meta-graphs.
    With fewer meta-graphs the planner mis-estimates relevance,
    preferences, and markets — the paper's "better capturing users'
    perceptions" effect. A size that covers the whole library is the
    Dysim cell of :meth:`Runner.run`, read from its cache.
    """
    full = r.dataset("amazon_lite").model
    rows = []
    for n_comp, n_subs in sizes:
        if n_comp >= len(full.s_c) and n_subs >= len(full.s_s):
            cell = r.run("amazon_lite", "dysim", b, T)
            sigma, seconds = cell.sigma, cell.seconds
        else:
            plan_model = dataclasses.replace(full, s_c=full.s_c[:n_comp], s_s=full.s_s[:n_subs])
            t0 = time.perf_counter()
            seeds = dysim(plan_model, b, T, max_pairs=r.max_pairs).seeds
            seconds = time.perf_counter() - t0
            sigma = simulate(full, seeds, T, r.mc_eval).sigma
        rows.append(
            {
                "n_metagraphs": n_comp + n_subs,
                "dysim": round(sigma, 1),
                "seconds": round(seconds, 2),
            }
        )
    return rows


def table_t9_theta(r: Runner, *, thetas=(1, 40, 120, 250), b: float = 60, T: int = 10):
    """T9 / Fig. 7(b): Dysim σ vs common-user threshold θ (amazon)."""
    rows = []
    for theta in thetas:
        cell = r.run("amazon_lite", "dysim", b, T, params=DEFAULT.with_(theta=theta))
        rows.append({"theta": theta, "dysim": round(cell.sigma, 1)})
    return rows


def to_markdown(rows: list[dict]) -> str:
    """Render rows (same keys each) as a GitHub markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for row in rows:
        out.append(
            "| " + " | ".join("—" if row[c] is None else str(row[c]) for c in cols) + " |"
        )
    return "\n".join(out)
