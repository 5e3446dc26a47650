"""Pure numpy kernels for the four IMDPP factors (DESIGN.md §3).

These are the *single source of truth* for the dynamics math. The
local Monte-Carlo engine calls them; the Spark engine runs that same
engine on shards of the samples, so the two paths are bit-identical
given the same inputs (all reductions here are fixed-order numpy
reductions, and a row's result does not depend on its batch).

Shapes: ``s_c [nC, I, I]``, ``s_s [nS, I, I]`` are the symmetric
meta-graph relevance tensors; per-user weight vectors ``wc [nC]``,
``ws [nS]`` live on the probability simplex of their class.
"""
from __future__ import annotations

import numpy as np

from repro.rng import u01

# Tags namespace the hash keys of different random streams.
TAG_WEIGHT_INIT_C = 11
TAG_WEIGHT_INIT_S = 12


def normalize_rows(w: np.ndarray) -> np.ndarray:
    """Project rows onto the simplex: clip at 0 and rescale to sum 1.

    A degenerate all-zero row becomes uniform (cannot happen from the
    update rule, which only adds non-negative gains, but keeps the
    kernel total).
    """
    w = np.maximum(np.asarray(w, dtype=np.float64), 0.0)
    tot = w.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tot > 0, w / tot, 1.0 / w.shape[-1])


def init_weights(users: np.ndarray, n_meta: int, seed: int, tag: int) -> np.ndarray:
    """Initial personal weightings ``[len(users), n_meta]``: uniform + jitter.

    ``users`` are *original* user ids: the jitter is keyed by ``(seed,
    tag, user, meta)`` through the stateless hash, so both engines,
    re-runs and subgraph instances start every user from the same
    perception.
    """
    u = np.asarray(users, dtype=np.int64)[:, None]
    m = np.arange(n_meta, dtype=np.int64)[None, :]
    w = 1.0 + 0.2 * u01(seed, tag, u, m)
    return normalize_rows(w)


def preference_batch(
    base_pref_rows: np.ndarray,
    adopted_rows: np.ndarray,
    wc_rows: np.ndarray,
    ws_rows: np.ndarray,
    s_c: np.ndarray,
    s_s: np.ndarray,
    beta_c: float,
    beta_s: float,
    pref_floor: float,
) -> np.ndarray:
    """``P_pref(u, ·)`` over all items for a batch of users ``[B, I]``.

    Factor 2, cross elasticity: ``base + beta_c * Σ_{a∈A(u)} r^C(u,a,y)
    − beta_s * Σ_{a∈A(u)} r^S(u,a,y)`` clipped into ``[pref_floor, 1]``.
    Entries for already-adopted items are computed but never used by
    callers. ``Σ_{a∈A(u)} s[:, a, :]`` is formed by adding each row's
    adopted items in ascending item order (:func:`_adopted_sums`); the
    meta-graph reduction is an einsum. The tests check the result bit
    for bit against the plain ``einsum("ua,may->umy")`` form.

    A row that has adopted nothing is its clipped base: its sums are
    ``+0.0``, and adding or subtracting ``+0.0`` changes no value, so
    only the rows with adoptions are reduced.
    """
    out = np.clip(base_pref_rows, pref_floor, 1.0)
    rows = np.flatnonzero(adopted_rows.any(axis=1))
    acc_c, acc_s = _adopted_sums(adopted_rows[rows], s_c, s_s)
    comp = np.einsum("um,umy->uy", wc_rows[rows], acc_c)
    subs = np.einsum("um,umy->uy", ws_rows[rows], acc_s)
    out[rows] = np.clip(base_pref_rows[rows] + beta_c * comp - beta_s * subs, pref_floor, 1.0)
    return out


def _adopted_sums(adopted_rows: np.ndarray, *tensors: np.ndarray) -> list[np.ndarray]:
    """``Σ_{a∈A(u)} s[:, a, :]`` per row ``[B, n_meta, I]`` for each tensor.

    Each row's adopted items are added one at a time in ascending item
    order, starting from zero. The products of a 0/1 indicator are
    exact, so this is the sum the dense ``einsum("ua,may->umy")`` forms,
    in the order it forms it: the bits agree. A BLAS contraction
    (``tensordot``, ``@``) may block or thread the reduction and round
    differently, so none is used here. Work is ``O(nnz · n_meta · I)``
    instead of ``O(B · I · n_meta · I)``.
    """
    rows, items = np.nonzero(adopted_rows)  # row-major: items ascend within a row
    out = [np.zeros((len(adopted_rows), s.shape[0], s.shape[2])) for s in tensors]
    if len(rows) == 0:
        return out
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # position in its row
    for k in range(int(rank.max()) + 1):
        sel = rank == k
        r, a = rows[sel], items[sel]  # at most one item per row: r is unique
        for acc, s in zip(out, tensors):
            acc[r] += s[:, a, :].transpose(1, 0, 2)
    return out


def influence_strength(
    base_inf: np.ndarray,
    inter: np.ndarray,
    union: np.ndarray,
    gamma: float,
    act_floor: float,
    act_cap: float,
) -> np.ndarray:
    """``P_act`` per edge (factor 3): base + γ · Jaccard of adoption sets.

    ``inter``/``union`` are integer co-adoption counts; Jaccard is 0
    when the union is empty.
    """
    union = np.asarray(union, dtype=np.float64)
    jac = np.divide(inter, union, out=np.zeros_like(union), where=union > 0)
    return np.clip(base_inf + gamma * jac, act_floor, act_cap)


def update_weights(
    wc_rows: np.ndarray,
    ws_rows: np.ndarray,
    adopted_rows: np.ndarray,
    new_row: np.ndarray,
    new_item: np.ndarray,
    s_c: np.ndarray,
    s_s: np.ndarray,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reinforce and renormalize the weightings of a batch of rows (factor 1).

    Row ``r`` (weightings ``wc_rows[r]``/``ws_rows[r]``, adoptions after
    the step ``adopted_rows[r]``) newly adopted the items ``new_item[i]``
    with ``new_row[i] == r``, listed by row, then by ascending item. Per
    class, ``gain[r, m] = Σ_{y ∈ new(r)} Σ_{a ∈ A_after(r)\\{y}} s(a, y |
    m)``: each meta-graph is reinforced by the relevance its instances
    assign between the newly adopted items and everything the row now
    owns (``ModelData`` rejects a non-zero diagonal of ``s``, so ``a ≠ y``
    is automatic).

    Rows are batched by their number ``k`` of new items: the gains of a
    batch are one ``einsum("ra,rmay->rm")`` over the gathered
    ``s[:, :, new items]``, which reduces each row in the order the
    one-row ``einsum("a,may->m")`` does, so a row's bits do not depend on
    its batch (the tests check this).
    """
    ad = np.asarray(adopted_rows, dtype=np.float64)
    counts = np.bincount(new_row, minlength=len(ad))
    first = np.cumsum(counts) - counts
    gain_c = np.zeros((len(ad), s_c.shape[0]))
    gain_s = np.zeros((len(ad), s_s.shape[0]))
    for k in np.unique(counts[counts > 0]).tolist():
        r = np.flatnonzero(counts == k)
        items = new_item[first[r][:, None] + np.arange(k)]  # [R, k]
        for gain, s in ((gain_c, s_c), (gain_s, s_s)):
            gain[r] = np.einsum("ra,rmay->rm", ad[r], s[:, :, items].transpose(2, 0, 1, 3))
    return normalize_rows(wc_rows + eta * gain_c), normalize_rows(ws_rows + eta * gain_s)
