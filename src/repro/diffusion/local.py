"""Local (single-process) Monte-Carlo simulator of the IMDPP diffusion.

This is the *reference semantics* of the diffusion process of Sec. III:

* a campaign is ``T`` promotions; promotion ``t`` starts with its seeds
  adopting their items at step ``ζ_t = 0``;
* at each step ``ζ_t ≥ 1``, every user who newly adopted an item ``x``
  at ``ζ_t − 1`` promotes ``x`` to each out-neighbor ``u`` that has not
  adopted ``x``; ``u`` adopts with ``P_act(u',u) · P_pref(u,x)`` and may
  extra-adopt any relevant ``y`` with ``P_ext = P_act · P_pref(u,x) ·
  r^C(u,x,y)`` (item association, footnote 8: independent of the
  adoption of ``x`` itself);
* at the end of a step, users with new adoptions update their
  meta-graph weightings (hence relevance, preferences and influence
  strength — the ripple of Fig. 3);
* a promotion ends when a step produces no new adoption.

All randomness is keyed through :mod:`repro.rng`, so two runs (or the
local and Spark engines) that see the same ``(model.seed, sample, t,
ζ, u', u, x, y)`` tuples draw the same uniforms — marginal-gain
estimates get common random numbers for free.

Samples are independent, and so are seed groups: :func:`simulate_groups`
runs many groups in one pass, and :func:`simulate` is its one-group
case. The groups are taken in chunks of at most ``BLOCK_ROWS`` user
rows (at least one group); a chunk's (group, sample) pairs are its
*virtual samples*, stepped in blocks: ``adopted`` of a block is viewed
as ``[n·U, I]`` and a frontier pair is a row ``g = j·U + u`` (``j``
block-local) and an item. A block holds at most ``BLOCK_ROWS`` user
rows (at least one virtual sample); the per-event ``[events, I]``
arrays and the preference rows are formed ``CHUNK_ROWS`` at a time,
which bounds memory. No size changes a result: every draw is keyed by
the global sample index and never by the group, each row's state is
its own, and the kernels give the same bits for any batch (DESIGN.md
§2, "Exactness of the batched engine").

``frozen=True`` freezes ``P_pref``/``P_act``/``r^C`` at their initial
(nothing-adopted) values and skips weight updates — this is the static
evaluation Sec. IV-B prescribes for the MCP nominee score ``f`` and
what the one-shot baselines use internally.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.diffusion.sigma import sigma_from_adopt_t
from repro.dynamics import kernels
from repro.dynamics.state import ModelData, WorldState, csr_ranges, init_state
from repro.rng import fold, u01_from

TAG_TRIAL = 21  # namespaces adoption/ext trials in the hash keys
BLOCK_ROWS = 2048  # user rows (samples × users) stepped together
CHUNK_ROWS = 1024  # events, or missing preference rows, per vectorized pass

_EMPTY = np.empty(0, np.int64)


@dataclass
class SimResult:
    """Outcome of one simulation.

    ``adopt_t [M, U, I]`` is the promotion index (1-based) at which
    each (user, item) adoption happened, or 0 if never. ``sigma`` is
    the importance-aware influence (Def. 1) averaged over samples;
    ``sigma_by_t [T+1]`` splits it by promotion (index 0 unused).
    """

    state: WorldState
    adopt_t: np.ndarray
    sigma: float
    sigma_by_t: np.ndarray


def check_plan_inputs(budget: float, T: int) -> None:
    """Reject a planner's budget ``<= 0`` or horizon ``T < 1`` (``ValueError``)."""
    if not budget > 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")


def _integral(v, what: str) -> int:
    """``v`` as an int; ``ValueError`` unless it is an integral number."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"seed {what} {v!r} is not an integer") from None
    if i != v:
        raise ValueError(f"seed {what} {v!r} is not an integer")
    return i


def _group_seeds(
    model: ModelData, seeds, T: int, n_samples: int
) -> dict[int, list[tuple[int, int]]]:
    """Seed pairs by promotion, sorted; rejects inputs no engine can run.

    Raises ``ValueError`` for ``T < 1``, ``n_samples < 1``, a
    non-integral user, item or timing, a timing outside ``[1, T]``, a
    user or item id out of range, and a ``(user, item)`` pair listed
    twice in one promotion.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    by_t: dict[int, list[tuple[int, int]]] = {}
    for u, x, t in seeds:
        u, x, t = _integral(u, "user"), _integral(x, "item"), _integral(t, "timing")
        if not 1 <= t <= T:
            raise ValueError(f"seed timing {t} outside [1, {T}]")
        if not 0 <= u < model.n_users:
            raise ValueError(f"seed user {u} outside [0, {model.n_users})")
        if not 0 <= x < model.n_items:
            raise ValueError(f"seed item {x} outside [0, {model.n_items})")
        by_t.setdefault(t, []).append((u, x))
    for t, pairs in by_t.items():
        pairs.sort()
        for a, b in zip(pairs, pairs[1:]):
            if a == b:
                raise ValueError(f"seed pair {a} listed twice in promotion {t}")
    return by_t


@dataclass
class _Block:
    """Virtual samples ``j = 0 … n−1`` of a chunk, as rows ``g = j·U + u``.

    Virtual sample ``j`` is global sample ``samp[j]`` of the chunk's
    seed group ``grp[j]``. ``adopted``/``wc``/``ws``/``adopt_t`` are
    ``[n·U, ·]`` views into the chunk's arrays. ``pref`` caches
    ``P_pref`` rows in dynamic mode; ``pref_ok`` marks the rows still
    current (a row goes stale when its user adopts or re-weights).
    """

    samp: np.ndarray
    grp: np.ndarray
    adopted: np.ndarray
    wc: np.ndarray
    ws: np.ndarray
    adopt_t: np.ndarray
    ad_count: np.ndarray
    pref: np.ndarray
    pref_ok: np.ndarray

    @property
    def n(self) -> int:
        return len(self.samp)


def simulate(
    model: ModelData,
    seeds,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
    first_sample: int = 0,
) -> SimResult:
    """Run the full campaign from a fresh state.

    ``seeds`` is an iterable of ``(user, item, t)``. ``trial_salt``
    shifts the random stream (for independent replications); leaving it
    fixed gives common random numbers across seed groups. The run covers
    the global samples ``first_sample … first_sample+n_samples−1``: row
    ``s`` of the result is sample ``first_sample + s`` of a run from 0,
    bit for bit, so shards of one run can be simulated apart.
    """
    if first_sample < 0:
        raise ValueError(f"first_sample must be >= 0, got {first_sample}")
    by_t = _group_seeds(model, seeds, T, n_samples)
    return next(_run_groups(model, [by_t], T, n_samples, frozen, trial_salt, first_sample))


def simulate_groups(
    model: ModelData,
    groups,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
) -> Iterator[SimResult]:
    """:func:`simulate` of each seed group in ``groups``, sharing engine blocks.

    Result ``i`` equals ``simulate(model, groups[i], T, n_samples, …)``
    bit for bit: every draw is keyed by the sample, never by the group,
    so which groups share a block changes no draw. Every group is
    checked before any is simulated; a bad one raises ``ValueError``
    naming its index. The results come lazily, one chunk of groups at a
    time (:func:`_run_groups`), so a caller that keeps only σ holds the
    state of one chunk, not of every group.
    """
    by_ts = []
    for i, seeds in enumerate(groups):
        try:
            by_ts.append(_group_seeds(model, seeds, T, n_samples))
        except ValueError as exc:
            raise ValueError(f"seed group {i}: {exc}") from None
    return _run_groups(model, by_ts, T, n_samples, frozen, trial_salt, 0)


def _run_groups(model, by_ts, T, n_samples, frozen, salt, first_sample) -> Iterator[SimResult]:
    """Simulate the groups in chunks of at most ``BLOCK_ROWS`` user rows.

    A chunk holds at least one group; a group larger than a block has
    its samples split over several blocks.
    """
    per_chunk = max(1, BLOCK_ROWS // (n_samples * model.n_users))
    for c in range(0, len(by_ts), per_chunk):
        yield from _run_chunk(
            model, by_ts[c:c + per_chunk], T, n_samples, frozen, salt, first_sample
        )


def _run_chunk(model, by_ts, T, n_samples, frozen, salt, first_sample) -> list[SimResult]:
    """The results of one chunk of groups; their arrays are views of the chunk's."""
    U, I = model.n_users, model.n_items
    n = len(by_ts) * n_samples
    state = init_state(model, n)
    adopt_t = np.zeros((n, U, I), dtype=np.int16)
    seeds = _seed_table(by_ts, T)
    samp = np.tile(np.arange(first_sample, first_sample + n_samples), len(by_ts))
    grp = np.repeat(np.arange(len(by_ts)), n_samples)

    per_block = max(1, BLOCK_ROWS // U)
    for j0 in range(0, n, per_block):
        j1 = min(j0 + per_block, n)
        rows = (j1 - j0) * U
        blk = _Block(
            samp=samp[j0:j1],
            grp=grp[j0:j1],
            adopted=state.adopted[j0:j1].reshape(rows, I),
            wc=state.wc[j0:j1].reshape(rows, -1),
            ws=state.ws[j0:j1].reshape(rows, -1),
            adopt_t=adopt_t[j0:j1].reshape(rows, I),
            ad_count=np.zeros(rows, dtype=np.int64),
            pref=np.empty((0, I) if frozen else (rows, I)),
            pref_ok=np.zeros(rows, dtype=bool),
        )
        _run_block(model, blk, seeds, T, frozen, salt)

    results = []
    for k in range(len(by_ts)):
        s = slice(k * n_samples, (k + 1) * n_samples)
        sigma, sigma_by_t = sigma_from_adopt_t(adopt_t[s], model.importance, T)
        results.append(SimResult(
            WorldState(state.adopted[s], state.wc[s], state.ws[s]),
            adopt_t[s], sigma, sigma_by_t,
        ))
    return results


def _seed_table(by_ts, T) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per promotion with seeds: a CSR ``(start, u, x)`` over the groups.

    Group ``k``'s seed pairs of promotion ``t`` are
    ``u[start[k]:start[k+1]]``, ``x[…]``, sorted.
    """
    table = {}
    for t in range(1, T + 1):
        pairs = [by_t.get(t, []) for by_t in by_ts]
        if not any(pairs):
            continue
        start = np.concatenate([[0], np.cumsum([len(p) for p in pairs])])
        ux = np.array([pair for p in pairs for pair in p], dtype=np.int64)
        table[t] = (start, ux[:, 0], ux[:, 1])
    return table


def _run_block(model, blk, seeds, T, frozen, salt) -> None:
    U = model.n_users
    for t in range(1, T + 1):
        # --- step 0: seeds adopt their items outright -----------------
        f_g, f_x = _EMPTY, _EMPTY
        if t in seeds:
            start, su, sx = seeds[t]
            idx, counts = csr_ranges(start, blk.grp)
            g = np.repeat(np.arange(blk.n, dtype=np.int64) * U, counts) + su[idx]
            x = sx[idx]
            new = ~blk.adopted[g, x]
            f_g, f_x = g[new], x[new]
        _apply_adoptions(model, blk, f_g, f_x, t, frozen)

        for zeta in range(1, model.params.max_steps + 1):
            if len(f_g) == 0:
                break
            f_g, f_x = _step(model, blk, f_g, f_x, t, zeta, frozen, salt)
            _apply_adoptions(model, blk, f_g, f_x, t, frozen)


def _apply_adoptions(model, blk, g, x, t, frozen) -> None:
    """Record new adoptions, then run the end-of-step weight updates.

    ``(g, x)`` are unique and sorted by row, then item.
    """
    if len(g) == 0:
        return
    blk.adopted[g, x] = True
    blk.adopt_t[g, x] = t
    np.add.at(blk.ad_count, g, 1)
    if frozen:
        return
    blk.pref_ok[g] = False
    rows, new_row = np.unique(g, return_inverse=True)
    blk.wc[rows], blk.ws[rows] = kernels.update_weights(
        blk.wc[rows], blk.ws[rows], blk.adopted[rows], new_row, x,
        model.s_c, model.s_s, model.params.eta,
    )


def _step(model, blk, f_g, f_x, t, zeta, frozen, salt):
    """One propagation step of a block; returns the new frontier ``(g, x)``."""
    U, I = model.n_users, model.n_items
    # Expand frontier pairs over the out-edges of their users (CSR ranges).
    f_s, f_u = np.divmod(f_g, U)
    e_idx, counts = csr_ranges(model.out_start, f_u)
    if len(e_idx) == 0:
        return _EMPTY, _EMPTY
    ev_s = np.repeat(f_s, counts)
    ev_x = np.repeat(f_x, counts)
    ev_gd = ev_s * U + model.dst[e_idx]
    live = ~blk.adopted[ev_gd, ev_x]
    if not live.any():
        return _EMPTY, _EMPTY
    e_idx, ev_s, ev_x, ev_gd = e_idx[live], ev_s[live], ev_x[live], ev_gd[live]

    if not frozen:
        _fill_pref(model, blk, np.unique(ev_gd))
    # Keys (salt, sample, t, ζ, …) folded once per virtual sample of the block.
    prefix = fold(model.seed, TAG_TRIAL, salt, blk.samp, t, zeta)
    keys = [
        _trials(
            model, blk, prefix, e_idx[c:c + CHUNK_ROWS], ev_s[c:c + CHUNK_ROWS],
            ev_x[c:c + CHUNK_ROWS], ev_gd[c:c + CHUNK_ROWS], frozen,
        )
        for c in range(0, len(e_idx), CHUNK_ROWS)
    ]
    keys = np.unique(np.concatenate(keys))
    return np.divmod(keys, I)


def _fill_pref(model, blk, rows) -> None:
    """Compute the stale ``P_pref`` rows among ``rows`` into the cache."""
    p = model.params
    rows = rows[~blk.pref_ok[rows]]
    for c in range(0, len(rows), CHUNK_ROWS):
        r = rows[c:c + CHUNK_ROWS]
        blk.pref[r] = kernels.preference_batch(
            model.base_pref[r % model.n_users], blk.adopted[r], blk.wc[r], blk.ws[r],
            model.s_c, model.s_s, p.beta_c, p.beta_s, p.pref_floor,
        )
    blk.pref_ok[rows] = True


def _trials(model, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen):
    """Adoption and extra-adoption trials of a chunk of promotion events.

    Returns the keys ``g·I + item`` of the hits (may repeat).
    """
    p = model.params
    I = model.n_items
    src, dst = model.src[e_idx], model.dst[e_idx]
    # P_act and P_pref(dst, x) per event (frozen: the initial values).
    if frozen:
        act = model.act0[e_idx]
        pref_x = model.pref0[dst, ev_x]
    else:
        ev_gs = ev_s * model.n_users + src
        inter = (blk.adopted[ev_gs] & blk.adopted[ev_gd]).sum(axis=1)
        union = blk.ad_count[ev_gs] + blk.ad_count[ev_gd] - inter
        act = kernels.influence_strength(
            model.base_inf[e_idx], inter, union, p.gamma, p.act_floor, p.act_cap
        )
        pref_x = blk.pref[ev_gd, ev_x]
    p_promo = act * pref_x

    # Item-association (extra adoption) trials over every other item y:
    # P_ext = ext_scale · P_act(u',u) · P_pref(u,x) · r^C(u,x,y). In
    # frozen mode wc is never updated, so this reads the initial
    # perception as required. Batched: r_rows[e] = wc[dst_e] @ s_c[:, x_e, :].
    r_rows = np.einsum(
        "em,emi->ei", blk.wc[ev_gd], model.s_c[:, ev_x, :].transpose(1, 0, 2)
    )
    p_ext = p.ext_scale * p_promo[:, None] * r_rows
    p_ext[blk.adopted[ev_gd]] = 0.0
    p_ext[np.arange(len(ev_x)), ev_x] = 0.0
    # A draw is in [0, 1), so a zero-probability trial never hits: draw
    # extra adoptions only where P_ext > 0.
    er, ey = np.nonzero(p_ext > 0)

    # One draw per trial, keyed (salt, sample, t, ζ, u', u, x, y): the
    # direct adoption of x (y = x) of every event, then the extra ones.
    e = np.concatenate([np.arange(len(ev_x)), er])
    y = np.concatenate([ev_x, ey])
    hit = u01_from(prefix[ev_s[e]], src[e], dst[e], ev_x[e], y) < np.concatenate(
        [p_promo, p_ext[er, ey]]
    )
    return ev_gd[e[hit]] * I + y[hit]


def likelihood_pi(model: ModelData, state: WorldState) -> float:
    """``π`` of Eq. (7): likelihood of future adoptions given the state.

    ``AIS(v, y) = 1 − Π_{v'∈N_in(v), y∈A(v')} (1 − P_act(v', v))`` (the
    IC form of footnote 22), aggregated over every user's not-yet-adopted
    items, weighted by preference, and averaged over samples.
    """
    p = model.params
    total = 0.0
    for s in range(state.n_samples):
        adopted = state.adopted[s]
        ad_count = adopted.sum(axis=1).astype(np.int64)
        inter = (adopted[model.src] & adopted[model.dst]).sum(axis=1)
        union = ad_count[model.src] + ad_count[model.dst] - inter
        act = kernels.influence_strength(
            model.base_inf, inter, union, p.gamma, p.act_floor, p.act_cap
        )
        # Accumulate -log(1 - act) from in-neighbors holding each item.
        neglog = np.zeros((model.n_users, model.n_items))
        contrib = adopted[model.src] * (-np.log1p(-np.minimum(act, 1 - 1e-12)))[:, None]
        np.add.at(neglog, model.dst, contrib)
        ais = 1.0 - np.exp(-neglog)
        pref_rows = kernels.preference_batch(
            model.base_pref, adopted, state.wc[s], state.ws[s], model.s_c, model.s_s,
            p.beta_c, p.beta_s, p.pref_floor,
        )
        total += float((ais * pref_rows * ~adopted).sum())
    return total / state.n_samples
