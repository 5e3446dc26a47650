"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer of ``repro`` from
the benchmark's side; nothing in ``src/`` changes. Every module of the
package that imported a traced function by name (``from … import
simulate``) holds its own reference, so :meth:`Tracer.install` replaces
the function in *every* loaded ``repro`` module that holds it, and
counts calls per import site as well as in total.

Each call records one span ``[name, start, end, parent, op]``; counts
are taken at the same boundary. Spans stay in memory until
:meth:`Tracer.dump` writes them when the benchmark ends.

The Spark engine's modules are never patched: its vertex programs are
closures that Spark pickles to the workers, and a closure that
referenced a wrapper from this file would fail to unpickle there.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Modules whose globals are shipped to Spark workers (see module doc).
_NO_PATCH = ("repro.diffusion.spark_engine", "repro.graph.spark_ops")


def _n_samples(a, k, out):
    return {"local.simulate.samples": k["n_samples"] if "n_samples" in k else a[3]}


def _pref_rows(a, k, out):
    return {"kernels.preference_batch.rows": len(a[0])}


def _draws(a, k, out):
    return {"rng.u01.draws": out.size}


def _markets(a, k, out):
    return {
        "clustering.markets": len(out),
        "clustering.market_users": sum(len(m.users) for m in out),
    }


# (layer, span name, defining module, attribute, extra counts).
# ``Class.method`` attributes are patched on the class.
TARGETS = [
    ("rng", "rng.u01", "repro.rng", "u01", _draws),
    ("dynamics.kernels", "kernels.preference_batch", "repro.dynamics.kernels",
     "preference_batch", _pref_rows),
    ("dynamics.kernels", "kernels.update_weights", "repro.dynamics.kernels",
     "update_weights", None),
    ("dynamics.state", "state.init_state", "repro.dynamics.state", "init_state", None),
    ("dynamics.state", "state.subgraph", "repro.dynamics.state", "ModelData.subgraph", None),
    ("diffusion.local", "local.simulate", "repro.diffusion.local", "simulate", _n_samples),
    ("diffusion.local", "local.likelihood_pi", "repro.diffusion.local", "likelihood_pi", None),
    ("graph.local", "graph.mioa_reach", "repro.graph.local", "mioa_reach", None),
    ("graph.local", "graph.bfs_hops", "repro.graph.local", "bfs_hops", None),
    ("core.nominees", "nominees.candidate_pool", "repro.core.nominees", "candidate_pool", None),
    ("core.nominees", "nominees.select_nominees", "repro.core.nominees", "select_nominees", None),
    ("core.clustering", "clustering.identify_target_markets", "repro.core.clustering",
     "identify_target_markets", _markets),
    ("core.clustering", "clustering.group_and_order", "repro.core.clustering",
     "group_and_order", None),
    ("core.dre", "dre.dr_all_items", "repro.core.dre", "dr_all_items", None),
    ("core.tdsi", "tdsi.sigma_pi", "repro.core.tdsi", "MarketEvaluator.sigma_pi", None),
    ("core.dysim", "dysim.dysim", "repro.core.dysim", "dysim", None),
    ("baselines", "baselines.opt_bruteforce", "repro.baselines.opt", "opt_bruteforce", None),
    ("baselines", "baselines.cr_greedy_timings", "repro.baselines.cr_greedy",
     "cr_greedy_timings", None),
    ("baselines", "baselines.bundlegrd", "repro.baselines.bundlegrd", "bundlegrd", None),
    ("baselines", "baselines.hag", "repro.baselines.hag", "hag", None),
    ("baselines", "baselines.ps", "repro.baselines.ps", "ps", None),
    ("diffusion.spark_engine", "spark_engine.simulate_spark", "repro.diffusion.spark_engine",
     "simulate_spark", None),
    ("kg.metagraphs", "metagraphs.relevance_table_spark", "repro.kg.metagraphs",
     "relevance_table_spark", None),
    ("kg.metagraphs", "metagraphs.relevance_table_pandas", "repro.kg.metagraphs",
     "relevance_table_pandas", None),
    ("data.datasets", "datasets.make_dataset", "repro.data.datasets", "make_dataset", None),
]

LAYER_OF = {name: layer for layer, name, *_ in TARGETS}
BENCH_LAYER = "bench"  # time inside an operation but outside every traced call


class Tracer:
    """Records spans and counts for the calls of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, site: str, fn, extra):
        counts = self.counts
        site_key = f"site.{site}.{name.rsplit('.', 1)[1]}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            counts[name + ".calls"] += 1
            counts[site_key] += 1
            if extra is not None:
                for k, v in extra(args, kwargs, out).items():
                    counts[k] += v
            return out

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every ``repro`` module that holds it."""
        for _, name, mod_name, attr, extra in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, cls_name, orig, extra))
                continue
            orig = getattr(mod, attr)
            for holder_name, holder in list(sys.modules.items()):
                if holder is None or not (
                    holder_name == "repro" or holder_name.startswith("repro.")
                ):
                    continue
                if holder_name in _NO_PATCH and holder_name != mod_name:
                    continue
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        site = holder_name.rsplit(".", 1)[-1]
                        self._set(holder, key, self._wrap(name, site, orig, extra))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    # -- reporting -------------------------------------------------------
    def busy(self) -> dict[str, float]:
        """Summed duration per span name (inclusive of nested calls)."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[LAYER_OF.get(name, BENCH_LAYER)] += (t1 - t0) - child[i]
        return out

    def misses(self, name: str, child_name: str) -> int:
        """Spans called ``name`` with a direct child span ``child_name``."""
        parents = {
            parent
            for cname, _, _, parent, _ in self.spans
            if cname == child_name and parent >= 0
        }
        return sum(1 for i in parents if self.spans[i][0] == name)

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": t0, "end": t1,
                     "parent": parent, "op": op}
                ) + "\n")

