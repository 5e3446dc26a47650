"""Spark BSP diffusion engine — the distributed influence-spread dataflow.

The IMDPP diffusion of Sec. III as a bulk-synchronous DataFrame loop
(the GraphX-equivalent pattern — PySpark cannot reach GraphX, so the
frontier expansion is a join and the vertex programs run in
``mapInPandas``/``applyInPandas``):

* state lives in DataFrames — ``adopted (sample, user, item)`` and
  ``weights (sample, user, wc, ws)`` (only *dirty* users; everyone else
  is at the deterministic initial weightings, reconstructed inside the
  kernels);
* all Monte-Carlo samples propagate simultaneously (``sample`` is just
  a column);
* every probability and every Bernoulli draw is computed by the very
  same :mod:`repro.dynamics.kernels` / :mod:`repro.rng` functions the
  local engine uses, keyed by the same integer tuples — so this engine
  produces **identical adoption sets** to :func:`repro.diffusion.local.
  simulate` (asserted by tests), while scaling out the frontier work.

The public entry point returns the adoption log; σ follows via
:func:`repro.diffusion.sigma.sigma_from_adoption_rows`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.diffusion.local import TAG_TRIAL, _group_seeds
from repro.dynamics import kernels
from repro.dynamics.state import ModelData
from repro.rng import u01

_ADOPT_SCHEMA = "sample int, user long, item int"
_WEIGHTS_SCHEMA = "sample int, user long, wc array<double>, ws array<double>"


@dataclass
class SparkSimResult:
    """Adoption log + σ from one Spark simulation."""

    adoptions: pd.DataFrame  # columns: sample, user, item, t
    sigma: float
    sigma_by_t: np.ndarray


def _empty(spark: SparkSession, schema: str) -> DataFrame:
    return spark.createDataFrame([], schema)


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
    """Run the campaign distributedly; same semantics as the local engine."""
    p = model.params
    by_t = _group_seeds(model, seeds, T, n_samples)

    edges = spark.createDataFrame(
        pd.DataFrame({"src": model.src, "dst": model.dst, "binf": model.base_inf})
    ).cache()
    adopted = _empty(spark, _ADOPT_SCHEMA)
    weights = _empty(spark, _WEIGHTS_SCHEMA)
    log_frames: list[pd.DataFrame] = []

    # Static data shipped to the workers via closure capture.
    s_c, s_s = model.s_c, model.s_s
    base_pref, orig_users = model.base_pref, model.orig_users
    seed0, params = model.seed, p

    def _init_weights(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Initial (wc, ws) rows of local users, keyed by original id."""
        orig = orig_users[users]
        return (
            kernels.init_weights(orig, s_c.shape[0], seed0, kernels.TAG_WEIGHT_INIT_C),
            kernels.init_weights(orig, s_s.shape[0], seed0, kernels.TAG_WEIGHT_INIT_S),
        )

    def _step_kernel(iterator):
        """Vertex program: trials for one batch of promotion events.

        Input rows: sample, src, dst, item, binf, inter, union,
        adopted_items (array), wc, ws (arrays, null → initial), t, zeta.
        Output rows: sample, user, item (new adoptions).
        """
        for pdf in iterator:
            if len(pdf) == 0:
                continue
            n = len(pdf)
            sample = pdf["sample"].to_numpy(np.int64)
            src = pdf["src"].to_numpy(np.int64)
            dst = pdf["dst"].to_numpy(np.int64)
            x = pdf["item"].to_numpy(np.int64)
            binf = pdf["binf"].to_numpy(np.float64)
            t = pdf["t"].to_numpy(np.int64)
            zeta = pdf["zeta"].to_numpy(np.int64)

            n_items = s_c.shape[1]
            ad_mask = np.zeros((n, n_items), dtype=bool)
            for i, items in enumerate(pdf["adopted_items"]):
                if items is not None and len(items):
                    ad_mask[i, np.asarray(items, dtype=np.int64)] = True

            wc_rows = np.empty((n, s_c.shape[0]))
            ws_rows = np.empty((n, s_s.shape[0]))
            wc_init, ws_init = _init_weights(dst)
            for i, (wc_v, ws_v) in enumerate(zip(pdf["wc"], pdf["ws"])):
                wc_rows[i] = wc_init[i] if wc_v is None else np.asarray(wc_v)
                ws_rows[i] = ws_init[i] if ws_v is None else np.asarray(ws_v)

            if frozen:
                act = np.clip(binf, params.act_floor, params.act_cap)
                pref_mat = np.clip(base_pref[dst], params.pref_floor, 1.0)
            else:
                inter = pdf["inter"].fillna(0).to_numpy(np.int64)
                union = pdf["union"].fillna(0).to_numpy(np.int64)
                act = kernels.influence_strength(
                    binf, inter, union, params.gamma, params.act_floor, params.act_cap
                )
                pref_mat = kernels.preference_batch(
                    base_pref[dst], ad_mask, wc_rows, ws_rows, s_c, s_s,
                    params.beta_c, params.beta_s, params.pref_floor,
                )
            pref_x = pref_mat[np.arange(n), x]
            p_promo = act * pref_x

            hit = (
                u01(seed0, TAG_TRIAL, trial_salt, sample, t, zeta, src, dst, x, x)
                < p_promo
            )

            r_rows = np.einsum(
                "em,emi->ei", wc_rows, s_c[:, x, :].transpose(1, 0, 2)
            )
            p_ext = params.ext_scale * p_promo[:, None] * r_rows
            p_ext[ad_mask] = 0.0
            p_ext[np.arange(n), x] = 0.0
            ys = np.arange(n_items, dtype=np.int64)[None, :]
            ext_hit = (
                u01(
                    seed0, TAG_TRIAL, trial_salt,
                    sample[:, None], t[:, None], zeta[:, None],
                    src[:, None], dst[:, None], x[:, None], ys,
                )
                < p_ext
            )

            out_s = [sample[hit]]
            out_u = [dst[hit]]
            out_i = [x[hit]]
            er, ec = np.nonzero(ext_hit)
            out_s.append(sample[er])
            out_u.append(dst[er])
            out_i.append(ec.astype(np.int64))
            yield pd.DataFrame(
                {
                    "sample": np.concatenate(out_s).astype(np.int32),
                    "user": np.concatenate(out_u),
                    "item": np.concatenate(out_i).astype(np.int32),
                }
            )

    def _weights_kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        """Vertex program: end-of-step weight reinforcement for one user."""
        sample = int(pdf["sample"].iloc[0])
        user = int(pdf["user"].iloc[0])
        new_items = np.sort(pdf["new_items"].iloc[0]).astype(np.int64)
        items_after = np.asarray(pdf["adopted_items"].iloc[0], dtype=np.int64)
        ad_mask = np.zeros(s_c.shape[1], dtype=bool)
        ad_mask[items_after] = True
        wc_v, ws_v = pdf["wc"].iloc[0], pdf["ws"].iloc[0]
        if wc_v is None:
            wc_i, ws_i = _init_weights(np.asarray([user]))
            wc_u, ws_u = wc_i[0], ws_i[0]
        else:
            wc_u, ws_u = np.asarray(wc_v), np.asarray(ws_v)
        wc_n, ws_n = kernels.update_weights(
            wc_u, ws_u, ad_mask, new_items, s_c, s_s, params.eta
        )
        return pd.DataFrame(
            {"sample": [sample], "user": [user], "wc": [list(wc_n)], "ws": [list(ws_n)]}
        )

    def _adopted_sets(adf: DataFrame) -> DataFrame:
        return adf.groupBy("sample", "user").agg(
            F.sort_array(F.collect_list("item")).alias("adopted_items")
        )

    def _apply(new_adopt: DataFrame, t: int):
        """Union new adoptions into state and reinforce weights."""
        nonlocal adopted, weights
        adopted = adopted.unionByName(new_adopt).localCheckpoint(eager=True)
        if frozen:
            return
        upd = (
            new_adopt.groupBy("sample", "user")
            .agg(F.collect_list("item").alias("new_items"))
            .join(_adopted_sets(adopted), on=["sample", "user"])
            .join(weights, on=["sample", "user"], how="left")
        )
        new_w = upd.groupBy("sample", "user").applyInPandas(
            _weights_kernel, schema=_WEIGHTS_SCHEMA
        )
        weights = (
            weights.join(new_w.select("sample", "user"), on=["sample", "user"], how="left_anti")
            .unionByName(new_w)
            .localCheckpoint(eager=True)
        )

    for t in range(1, T + 1):
        pairs = by_t.get(t, [])
        if pairs:
            seed_pdf = pd.DataFrame(
                [(s, u, x) for s in range(n_samples) for u, x in pairs],
                columns=["sample", "user", "item"],
            ).astype({"sample": "int32", "user": "int64", "item": "int32"})
            frontier = (
                spark.createDataFrame(seed_pdf, _ADOPT_SCHEMA)
                .join(adopted, on=["sample", "user", "item"], how="left_anti")
                .localCheckpoint(eager=True)
            )
        else:
            frontier = _empty(spark, _ADOPT_SCHEMA)
        fr_pdf = frontier.toPandas()
        if len(fr_pdf):
            _apply(frontier, t)
            log_frames.append(fr_pdf.assign(t=t))

        for zeta in range(1, p.max_steps + 1):
            if frontier.isEmpty():
                break
            events = (
                frontier.withColumnRenamed("user", "src")
                .join(edges, on="src")
                .join(
                    adopted.withColumnRenamed("user", "dst"),
                    on=["sample", "dst", "item"],
                    how="left_anti",
                )
            )
            if not frozen:
                pair_df = events.select("sample", "src", "dst").distinct()
                a1 = adopted.select(
                    "sample", F.col("user").alias("src"), F.col("item").alias("ci")
                )
                a2 = adopted.select(
                    "sample", F.col("user").alias("dst"), F.col("item").alias("ci")
                )
                inter = (
                    pair_df.join(a1, on=["sample", "src"])
                    .join(a2, on=["sample", "dst", "ci"])
                    .groupBy("sample", "src", "dst")
                    .agg(F.count(F.lit(1)).alias("inter"))
                )
                sizes = adopted.groupBy("sample", "user").agg(
                    F.count(F.lit(1)).alias("sz")
                )
                events = (
                    events.join(inter, on=["sample", "src", "dst"], how="left")
                    .join(
                        sizes.withColumnRenamed("user", "src").withColumnRenamed("sz", "sz_src"),
                        on=["sample", "src"], how="left",
                    )
                    .join(
                        sizes.withColumnRenamed("user", "dst").withColumnRenamed("sz", "sz_dst"),
                        on=["sample", "dst"], how="left",
                    )
                    .withColumn("inter", F.coalesce(F.col("inter"), F.lit(0)))
                    .withColumn(
                        "union",
                        F.coalesce(F.col("sz_src"), F.lit(0))
                        + F.coalesce(F.col("sz_dst"), F.lit(0))
                        - F.col("inter"),
                    )
                )
            else:
                events = events.withColumn("inter", F.lit(0)).withColumn(
                    "union", F.lit(0)
                )
            events = (
                events.join(
                    _adopted_sets(adopted).withColumnRenamed("user", "dst"),
                    on=["sample", "dst"], how="left",
                )
                .join(
                    weights.withColumnRenamed("user", "dst"),
                    on=["sample", "dst"], how="left",
                )
                .withColumn("t", F.lit(t))
                .withColumn("zeta", F.lit(zeta))
            )
            new_adopt = (
                events.mapInPandas(_step_kernel, schema=_ADOPT_SCHEMA)
                .distinct()
                .localCheckpoint(eager=True)
            )
            na_pdf = new_adopt.toPandas()
            if len(na_pdf) == 0:
                break
            _apply(new_adopt, t)
            log_frames.append(na_pdf.assign(t=t))
            frontier = new_adopt

    edges.unpersist()
    log = (
        pd.concat(log_frames, ignore_index=True)
        if log_frames
        else pd.DataFrame(columns=["sample", "user", "item", "t"])
    )
    w = model.importance
    sigma_by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        sub = log[log["t"] == t]
        if len(sub):
            sigma_by_t[t] = float(w[sub["item"].to_numpy()].sum() / n_samples)
    return SparkSimResult(log, float(sigma_by_t.sum()), sigma_by_t)
