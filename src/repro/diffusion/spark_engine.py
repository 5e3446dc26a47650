"""Spark diffusion engine: Monte-Carlo samples sharded over the workers.

σ (Def. 1) is a mean over independent Monte-Carlo campaigns, and every
draw of the local engine is keyed by ``(seed, TAG_TRIAL, salt, s, t, ζ,
u', u, x, y)`` with the *global* sample index ``s`` (a counter-based
stream, :mod:`repro.rng`). So a shard of samples run anywhere adopts
exactly what the same samples adopt in one local run.

:func:`simulate_spark` splits ``range(n_samples)`` into at most
``defaultParallelism`` contiguous shards, one per partition of
``spark.range``. One ``mapInPandas`` job runs
:func:`repro.diffusion.local.simulate` on each shard with its sample
offset and yields the shard's adoption rows. The driver collects the
log once, rebuilds ``adopt_t [M, U, I]`` and takes σ from
:func:`repro.diffusion.sigma.sigma_from_adopt_t`, as the local engine
does — so the log and σ equal the local engine's bit for bit (DESIGN.md
§5 records why this replaced a bulk-synchronous dataflow).

The worker function is a module-level function bound with
``functools.partial``: Spark pickles it by reference, so the workers
import the engine afresh instead of receiving whatever the driver's
``repro.diffusion.local`` namespace holds.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.diffusion.local import _group_seeds, simulate
from repro.diffusion.sigma import sigma_from_adopt_t
from repro.dynamics.state import ModelData

_LOG_SCHEMA = "sample int, user long, item int, t int"


@dataclass
class SparkSimResult:
    """Adoption log + σ from one Spark simulation."""

    adoptions: pd.DataFrame  # columns: sample, user, item, t
    sigma: float
    sigma_by_t: np.ndarray


def _run_shards(model, seeds, T, n_samples, n_shards, frozen, trial_salt, batches):
    """``mapInPandas`` body: the adoption rows of the shards in ``batches``.

    Shard ``k`` holds the contiguous samples ``[k·M/n, (k+1)·M/n)``.
    """
    for pdf in batches:
        for k in pdf["id"].tolist():
            lo, hi = k * n_samples // n_shards, (k + 1) * n_samples // n_shards
            adopt_t = simulate(
                model, seeds, T, hi - lo,
                frozen=frozen, trial_salt=trial_salt, first_sample=lo,
            ).adopt_t
            s, u, x = np.nonzero(adopt_t)
            yield pd.DataFrame({
                "sample": (s + lo).astype(np.int32),
                "user": u.astype(np.int64),
                "item": x.astype(np.int32),
                "t": adopt_t[s, u, x].astype(np.int32),
            })


def simulate_spark(
    spark: SparkSession,
    model: ModelData,
    seeds,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
) -> SparkSimResult:
    """Run the campaign on Spark; same log and σ as the local engine."""
    seeds = list(seeds)
    _group_seeds(model, seeds, T, n_samples)  # reject bad input before Spark
    n_shards = min(n_samples, spark.sparkContext.defaultParallelism)
    run = functools.partial(
        _run_shards, model, seeds, T, n_samples, n_shards, frozen, trial_salt
    )
    log = (
        spark.range(n_shards, numPartitions=n_shards)
        .mapInPandas(run, _LOG_SCHEMA)
        .toPandas()
    )
    adopt_t = np.zeros((n_samples, model.n_users, model.n_items), dtype=np.int16)
    cols = [log[c].to_numpy(np.int64) for c in ("sample", "user", "item")]
    adopt_t[tuple(cols)] = log["t"].to_numpy(np.int16)
    sigma, sigma_by_t = sigma_from_adopt_t(adopt_t, model.importance, T)
    return SparkSimResult(log, sigma, sigma_by_t)
