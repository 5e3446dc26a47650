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
* a promotion ends when a step produces no new adoption, or after
  ``params.max_steps`` steps, whichever comes first. The cap does bind:
  in the large presets' cells, new adoptions are still rising at step
  10 (the default cap), so σ there is the spread of a cut-off process.

All randomness is keyed through :mod:`repro.rng`, so two runs (or the
local and Spark engines) that see the same ``(model.seed, sample, t,
ζ, u', u, x, y)`` tuples draw the same uniforms — marginal-gain
estimates get common random numbers for free.

Samples are independent, and so are seed groups: :func:`simulate_groups`
runs many groups in one pass, each on its own model or all on one, and
:func:`simulate` is its one-group case. The models of one call are
subgraphs of one instance (TMI scores every candidate on its own
influence region in one call); their distinct members are *stacked*:
their users, edges and initial values concatenated once per call, the
relevance tensors and parameters shared. The groups are cut into
*blocks* of at most ``BLOCK_ROWS`` user rows, at least one group each,
so a larger group is a block of its own. A block's (group, sample)
pairs are its *virtual samples*, stepped together as ragged rows:
virtual sample ``j`` owns one row per user of its group's model,
``start[j] + u`` for local user ``u``, and a frontier pair is a row and
an item. A block holds, for example, all 16 σ samples of an amazon_lite
group, or 20 small100 groups of 16 samples. Its state costs ``11·I + 73``
bytes a user row (``adopted``, ``adopt_t``, the cached preference row,
the 3 + 3 meta-graph weightings, the adoption count, the row's virtual
sample and stacked user, and the cache flag; a frozen block keeps no
preference rows, ``8·I`` less), so a full block holds ~20 MB on
amazon_lite (``I = 48``) and ~31 MB on gowalla_lite (``I = 80``), and
douban_lite's σ at M = 16, one group of 41,600 rows (``I = 64``), ~32 MB.
The per-event ``[events, I]`` arrays and the preference rows are formed
in *chunks* of ``CHUNK_ROWS`` (~2 MB on amazon_lite), which bounds the
rest. No size changes a result: every draw is keyed by the global sample
index and the model's local user ids, never by the group or the row,
each row's state is its own, and the kernels give the same bits for any
batch (DESIGN.md §2, "Exactness of the batched engine"). The trial keys
are folded in stages: ``(seed, TAG_TRIAL, salt, sample)`` once per
block, ``(t, ζ)`` once per step, ``(u', u, x)`` once per promotion
event, and each trial continues its event's fold with its ``y``.

A chunk of events takes its extra-adoption trials from one flat mask
of the live ``(event, y)`` pairs (``P_ext > 0``, ``y`` not adopted,
``y ≠ x``) over the dense ``[events, I]`` form, in row-major order, and
decides every trial on the integers (:func:`repro.rng.below`: the draw's
top 53 bits against ``p · 2⁵³``, which is ``u < p`` exactly). The engine
runs at most ``MAX_ITEMS`` = 255 items (common adoptions are counted in
uint8) and ``MAX_T`` = 32767 promotions (``adopt_t`` is int16). σ of a
block's groups is one count (:func:`repro.diffusion.sigma.sigma_groups`).

``frozen=True`` freezes ``P_pref``/``P_act``/``r^C`` at their initial
(nothing-adopted) values and skips weight updates — this is the static
evaluation Sec. IV-B prescribes for the MCP nominee score ``f`` and
what the one-shot baselines use internally.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.diffusion.sigma import sigma_groups
from repro.dynamics import kernels
from repro.dynamics.state import ModelData, WorldState, csr_ranges
from repro.params import Params
from repro.rng import below, fold, fold_from

TAG_TRIAL = 21  # namespaces adoption/ext trials in the hash keys
BLOCK_ROWS = 32768  # user rows (samples × users) stepped together
CHUNK_ROWS = 1024  # events, or missing preference rows, per vectorized pass
MAX_T = int(np.iinfo(np.int16).max)  # adopt_t holds promotion indices as int16
MAX_ITEMS = int(np.iinfo(np.uint8).max)  # common adoptions are counted in uint8

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


def _check_items(model: ModelData) -> None:
    """Reject more items than :func:`_p_act`'s uint8 count can hold."""
    if model.n_items > MAX_ITEMS:
        raise ValueError(f"the engine runs at most {MAX_ITEMS} items, got {model.n_items}")


def _group_seeds(
    model: ModelData, seeds, T: int, n_samples: int
) -> dict[int, list[tuple[int, int]]]:
    """Seed pairs by promotion, sorted; rejects inputs no engine can run.

    Raises ``ValueError`` for ``T < 1``, ``n_samples < 1``, a
    non-integral user, item or timing, a timing outside ``[1, T]``, a
    user or item id out of range, and a ``(user, item)`` pair listed
    twice in one promotion; and for what the engine's arrays cannot
    hold: ``T > MAX_T`` (``adopt_t`` is int16) or more than
    ``MAX_ITEMS`` items (common adoptions are counted in uint8).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if T > MAX_T:
        raise ValueError(f"T must be <= {MAX_T}, got {T}")
    _check_items(model)
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
class _Stack:
    """The distinct models of one engine call, concatenated.

    Stacked user ``user0[d] + u`` is user ``u`` of model ``d``, and
    ``out_start`` is the CSR over stacked users into the stacked edge
    arrays, whose ``src``/``dst`` stay model-local ids (the trial keys
    fold them). ``base_pref``/``pref0``/``wc0``/``ws0`` are per stacked
    user, ``base_inf``/``act0`` per stacked edge; the rest is shared by
    every model and read from the first. ``s_cT [I, nC, I]`` is ``s_c``
    with its item axis first, contiguous, so that a chunk gathers the
    ``s_c[:, x, :]`` slices of its events in one copy.
    """

    user0: np.ndarray
    out_start: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    base_inf: np.ndarray
    act0: np.ndarray
    base_pref: np.ndarray
    pref0: np.ndarray
    wc0: np.ndarray
    ws0: np.ndarray
    n_items: int
    s_c: np.ndarray
    s_cT: np.ndarray
    s_s: np.ndarray
    params: Params
    seed: int
    importance: np.ndarray


def _stack(models: list[ModelData]) -> _Stack:
    first = models[0]
    for m in models[1:]:
        if not (
            m.s_c is first.s_c and m.s_s is first.s_s and m.params == first.params
            and m.seed == first.seed and m.n_items == first.n_items
            and np.array_equal(m.importance, first.importance)
        ):
            raise ValueError(
                "seed group models must be subgraphs of one instance: the same "
                "s_c/s_s objects, params, seed, n_items and importance"
            )
    edge0 = np.cumsum([0] + [len(m.src) for m in models])
    cat = np.concatenate
    return _Stack(
        user0=np.cumsum([0] + [m.n_users for m in models]),
        out_start=cat([m.out_start[:-1] + e for m, e in zip(models, edge0)] + [edge0[-1:]]),
        src=cat([m.src for m in models]),
        dst=cat([m.dst for m in models]),
        base_inf=cat([m.base_inf for m in models]),
        act0=cat([m.act0 for m in models]),
        base_pref=cat([m.base_pref for m in models]),
        pref0=cat([m.pref0 for m in models]),
        wc0=cat([m.wc0 for m in models]),
        ws0=cat([m.ws0 for m in models]),
        n_items=first.n_items, s_c=first.s_c, s_s=first.s_s, params=first.params,
        seed=first.seed, importance=first.importance,
        s_cT=np.ascontiguousarray(first.s_c.transpose(1, 0, 2)),
    )


@dataclass
class _Block:
    """Virtual samples ``j = 0 … n−1`` of a block, as ragged user rows.

    Virtual sample ``j`` is a global sample ``s`` of the block's seed
    group ``grp[j]``; ``key[j]`` is its trial keys ``(seed, TAG_TRIAL,
    salt, s)`` folded, which each step continues with ``(t, ζ)``. It
    owns the rows ``start[j] + u`` for the users ``u`` of its group's
    submodel; row ``r`` belongs to virtual sample ``samp[r]`` and is
    stacked user ``user[r]``. ``pref`` caches ``P_pref`` rows
    in dynamic mode; ``pref_ok`` marks the rows still current (a row
    goes stale when its user adopts or re-weights).
    """

    grp: np.ndarray
    key: np.ndarray
    start: np.ndarray
    samp: np.ndarray
    user: np.ndarray
    adopted: np.ndarray
    wc: np.ndarray
    ws: np.ndarray
    adopt_t: np.ndarray
    ad_count: np.ndarray
    pref: np.ndarray
    pref_ok: np.ndarray


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
    return next(_run_groups([model], [by_t], T, n_samples, frozen, trial_salt, first_sample))


def simulate_groups(
    model: ModelData | Sequence[ModelData],
    groups,
    T: int,
    n_samples: int,
    *,
    frozen: bool = False,
    trial_salt: int = 0,
) -> Iterator[SimResult]:
    """:func:`simulate` of each seed group in ``groups``, sharing engine blocks.

    ``model`` is one model for every group, or one per group: subgraphs
    of one instance (the same ``s_c``/``s_s`` objects, ``params``,
    ``seed``, ``n_items`` and ``importance``; anything else raises
    ``ValueError``). Result ``i`` equals ``simulate(models[i],
    groups[i], T, n_samples, …)`` bit for bit: every draw is keyed by
    the sample and the submodel-local users, never by the group, so
    which groups share a block changes no draw. Every group is checked
    before any is simulated; a bad one raises ``ValueError`` naming its
    index. The results come lazily, one block of groups at a time
    (:func:`_run_groups`), so a caller that keeps only σ holds the state
    of one block (at most ``BLOCK_ROWS`` user rows, or one larger group:
    ~20 MB on amazon_lite, see the module docstring), not of every group.
    """
    groups = list(groups)
    if isinstance(model, ModelData):
        models = [model] * len(groups)
    else:
        models = list(model)
        if len(models) != len(groups):
            raise ValueError(f"{len(models)} models for {len(groups)} seed groups")
    by_ts = []
    for i, (m, seeds) in enumerate(zip(models, groups)):
        try:
            by_ts.append(_group_seeds(m, seeds, T, n_samples))
        except ValueError as exc:
            raise ValueError(f"seed group {i}: {exc}") from None
    return _run_groups(models, by_ts, T, n_samples, frozen, trial_salt, 0)


def _run_groups(models, by_ts, T, n_samples, frozen, salt, first_sample) -> Iterator[SimResult]:
    """Simulate the groups in blocks of at most ``BLOCK_ROWS`` user rows.

    The distinct models are stacked (and checked to be of one instance)
    before any group is simulated. A block holds at least one group, so
    a group of more than ``BLOCK_ROWS`` rows is a block of its own.
    """
    if not by_ts:
        return iter(())
    distinct = list({id(m): m for m in models}.values())
    st = _stack(distinct)
    which = {id(m): d for d, m in enumerate(distinct)}
    sub = np.array([which[id(m)] for m in models], dtype=np.int64)
    rows = n_samples * np.diff(st.user0)[sub]
    return (
        res
        for a, b in _cuts(rows)
        for res in _run_block(st, sub[a:b], by_ts[a:b], T, n_samples, frozen, salt, first_sample)
    )


def _cuts(sizes) -> list[tuple[int, int]]:
    """Consecutive runs ``[a, b)`` of ``sizes``, each summing to at most
    ``BLOCK_ROWS`` or holding one item."""
    cuts, a, total = [], 0, 0
    for b, size in enumerate(sizes.tolist()):
        if b > a and total + size > BLOCK_ROWS:
            cuts.append((a, b))
            a, total = b, 0
        total += size
    cuts.append((a, len(sizes)))
    return cuts


def _run_block(st, sub, by_ts, T, n_samples, frozen, salt, first_sample) -> list[SimResult]:
    """The results of one block of groups; their arrays are views of the block's.

    Group ``k``'s virtual samples are ``k·n_samples …``, each owning
    the rows of one sample of its submodel, so its rows are contiguous.
    """
    I = st.n_items
    n_users = np.diff(st.user0)[sub]
    grp = np.repeat(np.arange(len(by_ts)), n_samples)
    size = n_users[grp]
    start = np.concatenate([[0], np.cumsum(size)])
    samp = np.repeat(np.arange(len(grp)), size)
    user = np.arange(start[-1]) + np.repeat(st.user0[sub[grp]] - start[:-1], size)
    adopted = np.zeros((start[-1], I), dtype=bool)
    adopt_t = np.zeros((start[-1], I), dtype=np.int16)
    wc, ws = st.wc0[user], st.ws0[user]
    samples = np.arange(first_sample, first_sample + n_samples)
    blk = _Block(
        grp=grp,
        key=np.tile(fold(st.seed, TAG_TRIAL, salt, samples), len(by_ts)),
        start=start[:-1],
        samp=samp,
        user=user,
        adopted=adopted,
        wc=wc,
        ws=ws,
        adopt_t=adopt_t,
        ad_count=np.zeros(start[-1], dtype=np.int64),
        pref=np.empty((0, I) if frozen else (start[-1], I)),
        pref_ok=np.zeros(start[-1], dtype=bool),
    )
    _campaign(st, blk, _seed_table(by_ts, T), T, frozen)

    sigma, sigma_by_t = sigma_groups(adopt_t, grp[samp], len(by_ts), n_samples, st.importance, T)
    results = []
    for k, U in enumerate(n_users.tolist()):
        rows = slice(start[k * n_samples], start[(k + 1) * n_samples])
        results.append(SimResult(
            WorldState(
                adopted[rows].reshape(n_samples, U, I),
                wc[rows].reshape(n_samples, U, -1),
                ws[rows].reshape(n_samples, U, -1),
            ),
            adopt_t[rows].reshape(n_samples, U, I), float(sigma[k]), sigma_by_t[k],
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


def _campaign(st, blk, seeds, T, frozen) -> None:
    """Run the ``T`` promotions of a block, step by step."""
    for t in range(1, T + 1):
        # --- step 0: seeds adopt their items outright -----------------
        f_g, f_x = _EMPTY, _EMPTY
        if t in seeds:
            start, su, sx = seeds[t]
            idx, counts = csr_ranges(start, blk.grp)
            g = np.repeat(blk.start, counts) + su[idx]
            x = sx[idx]
            new = ~blk.adopted[g, x]
            f_g, f_x = g[new], x[new]
        _apply_adoptions(st, blk, f_g, f_x, t, frozen)

        for zeta in range(1, st.params.max_steps + 1):
            if len(f_g) == 0:
                break
            f_g, f_x = _step(st, blk, f_g, f_x, t, zeta, frozen)
            _apply_adoptions(st, blk, f_g, f_x, t, frozen)


def _apply_adoptions(st, blk, g, x, t, frozen) -> None:
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
        st.s_c, st.s_s, st.params.eta,
    )


def _step(st, blk, f_g, f_x, t, zeta, frozen):
    """One propagation step of a block; returns the new frontier ``(g, x)``."""
    I = st.n_items
    # Expand frontier pairs over the out-edges of their users (CSR ranges).
    e_idx, counts = csr_ranges(st.out_start, blk.user[f_g])
    if len(e_idx) == 0:
        return _EMPTY, _EMPTY
    ev_s = np.repeat(blk.samp[f_g], counts)
    ev_x = np.repeat(f_x, counts)
    ev_gd = blk.start[ev_s] + st.dst[e_idx]
    live = ~blk.adopted[ev_gd, ev_x]
    if not live.any():
        return _EMPTY, _EMPTY
    e_idx, ev_s, ev_x, ev_gd = e_idx[live], ev_s[live], ev_x[live], ev_gd[live]

    if not frozen:
        _fill_pref(st, blk, np.unique(ev_gd))
    # Keys (…, sample, t, ζ) folded once per virtual sample of the block.
    prefix = fold_from(blk.key, t, zeta)
    keys = [
        _trials(
            st, blk, prefix, e_idx[c:c + CHUNK_ROWS], ev_s[c:c + CHUNK_ROWS],
            ev_x[c:c + CHUNK_ROWS], ev_gd[c:c + CHUNK_ROWS], frozen,
        )
        for c in range(0, len(e_idx), CHUNK_ROWS)
    ]
    keys = np.unique(np.concatenate(keys))
    return np.divmod(keys, I)


def _fill_pref(st, blk, rows) -> None:
    """Compute the stale ``P_pref`` rows among ``rows`` into the cache."""
    p = st.params
    rows = rows[~blk.pref_ok[rows]]
    for c in range(0, len(rows), CHUNK_ROWS):
        r = rows[c:c + CHUNK_ROWS]
        blk.pref[r] = kernels.preference_batch(
            st.base_pref[blk.user[r]], blk.adopted[r], blk.wc[r], blk.ws[r],
            st.s_c, st.s_s, p.beta_c, p.beta_s, p.pref_floor,
        )
    blk.pref_ok[rows] = True


def _trials(st, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen):
    """Adoption and extra-adoption trials of a chunk of promotion events.

    Returns the keys ``g·I + item`` of the hits (may repeat).
    """
    p = st.params
    I = st.n_items
    src, dst = st.src[e_idx], st.dst[e_idx]  # submodel-local: the keys fold them
    ad_dst = blk.adopted[ev_gd]
    # P_act and P_pref(dst, x) per event (frozen: the initial values).
    if frozen:
        act = st.act0[e_idx]
        pref_x = st.pref0[blk.user[ev_gd], ev_x]
    else:
        ev_gs = blk.start[ev_s] + src
        act = _p_act(
            p, st.base_inf[e_idx], blk.adopted[ev_gs], ad_dst,
            blk.ad_count[ev_gs], blk.ad_count[ev_gd],
        )
        pref_x = blk.pref[ev_gd, ev_x]
    p_promo = act * pref_x

    # Item-association (extra adoption) trials over every other item y:
    # P_ext = ext_scale · P_act(u',u) · P_pref(u,x) · r^C(u,x,y). In
    # frozen mode wc is never updated, so this reads the initial
    # perception as required. Batched: r_rows[e] = wc[dst_e] @ s_c[:, x_e, :].
    r_rows = np.einsum("em,emi->ei", blk.wc[ev_gd], st.s_cT[ev_x])
    p_ext = p.ext_scale * p_promo[:, None] * r_rows
    # A draw is in [0, 1), so a zero-probability trial never hits: draw
    # extra adoptions only where P_ext > 0, for items y not adopted. The
    # s_c diagonal is zero (ModelData checks it), so y ≠ x is automatic.
    live = p_ext > 0
    live &= ~ad_dst
    flat = np.flatnonzero(live)  # row-major, as np.nonzero: the same trials in order
    er = flat // I
    ey = flat - er * I

    # One draw per trial, keyed (salt, sample, t, ζ, u', u, x, y): the
    # event's keys up to x are folded once, then continued with y = x for
    # the direct adoption and with each y of its extra trials.
    h = fold_from(prefix[ev_s], src, dst, ev_x)
    hit = below(h, ev_x, p_promo)
    ext = below(h[er], ey, p_ext.ravel()[flat])
    return np.concatenate([ev_gd[hit] * I + ev_x[hit], ev_gd[er[ext]] * I + ey[ext]])


def _p_act(p: Params, base_inf, ad_a, ad_b, n_a, n_b) -> np.ndarray:
    """``P_act`` of edges whose ends adopted the rows ``ad_a``/``ad_b``.

    ``n_a``/``n_b`` are the rows' adoption counts. Common adoptions are a
    0/1 dot product, exact in uint8 (``I <= MAX_ITEMS``).
    """
    inter = np.einsum("ei,ei->e", ad_a.view(np.uint8), ad_b.view(np.uint8))
    return kernels.influence_strength(
        base_inf, inter, n_a + n_b - inter, p.gamma, p.act_floor, p.act_cap
    )


def likelihood_pi(model: ModelData, state: WorldState) -> float:
    """``π`` of Eq. (7): likelihood of future adoptions given the state.

    ``AIS(v, y) = 1 − Π_{v'∈N_in(v), y∈A(v')} (1 − P_act(v', v))`` (the
    IC form of footnote 22), aggregated over every user's not-yet-adopted
    items, weighted by preference, and averaged over samples. All
    samples are one batch of rows ``s·U + u``; each sample's sum is
    formed on its own and the sums are added in sample order. More than
    ``MAX_ITEMS`` items raise ``ValueError``, as in the engine.
    """
    _check_items(model)
    p = model.params
    M, U, I = state.adopted.shape
    adopted = state.adopted.reshape(M * U, I)
    ad_count = adopted.sum(axis=1).astype(np.int64)
    offset = (np.arange(M, dtype=np.int64) * U)[:, None]
    src = (offset + model.src).ravel()
    dst = (offset + model.dst).ravel()
    ad_src = adopted[src]
    act = _p_act(
        p, np.tile(model.base_inf, M), ad_src, adopted[dst], ad_count[src], ad_count[dst]
    )
    # Sum -log(1 - act) over the in-neighbors holding each item, in edge
    # order: np.bincount adds its weights in input order, as np.add.at
    # does, and the pairs left out would add exact zeros.
    e, y = np.nonzero(ad_src)
    neglog = np.bincount(
        dst[e] * I + y, weights=-np.log1p(-np.minimum(act, 1 - 1e-12))[e],
        minlength=M * U * I,
    ).reshape(M * U, I)
    # A row with no such neighbor has AIS = 0: its terms are exact zeros,
    # and its preferences are not needed.
    rows = np.flatnonzero(neglog.any(axis=1))
    pref_rows = kernels.preference_batch(
        model.base_pref[rows % U], adopted[rows], state.wc.reshape(M * U, -1)[rows],
        state.ws.reshape(M * U, -1)[rows], model.s_c, model.s_s,
        p.beta_c, p.beta_s, p.pref_floor,
    )
    terms = np.zeros((M * U, I))
    terms[rows] = (1.0 - np.exp(-neglog[rows])) * pref_rows * ~adopted[rows]
    total = 0.0  # not sum(): Python >= 3.12 compensates float sums
    for per_sample in terms.reshape(M, -1).sum(axis=1):
        total += float(per_sample)
    return total / M
