"""Static model data and mutable world state for the IMDPP simulator.

``ModelData`` holds everything that does not change during diffusion:
the social graph, the meta-graph relevance tensors, the base
preference/influence values and their initial clipped forms, item
importance, and seed costs. It is the one representation of the social
graph: the engine walks its out-edge CSR, and the graph primitives
(:mod:`repro.graph.local`) walk the same CSR or its undirected
neighbour CSR. ``WorldState`` holds what diffusion mutates: adoption
indicators and personal meta-graph weightings, with a leading
Monte-Carlo sample axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.dynamics import kernels
from repro.params import Params


@dataclass
class ModelData:
    """Immutable-by-convention inputs of one IMDPP instance.

    ``src``/``dst``/``base_inf`` are parallel edge arrays sorted by
    ``(src, dst)``; ``out_start`` is the CSR row index over ``src`` so
    a frontier user's out-edges are a contiguous slice. ``orig_users``
    maps local user ids back to the parent instance after
    :meth:`subgraph` (identity for a full instance).

    ``act0`` (per edge) and ``pref0`` (``[U, I]``) are the initial
    influence strength and preference, the base values clipped into
    the ranges of ``params``; frozen diffusion and every planner
    estimate on the initial state read them. ``wc0``/``ws0`` are the
    initial personal weightings, hashed once on first use.

    ``s_c``/``s_s`` (``[n_meta, I, I]``) must have a zero diagonal (an
    item is not related to itself): construction, :meth:`subgraph` and
    ``dataclasses.replace`` raise ``ValueError`` otherwise.
    """

    n_users: int
    n_items: int
    src: np.ndarray
    dst: np.ndarray
    base_inf: np.ndarray
    s_c: np.ndarray
    s_s: np.ndarray
    base_pref: np.ndarray
    importance: np.ndarray
    cost: np.ndarray
    params: Params
    seed: int = 0
    orig_users: np.ndarray = field(default=None)  # type: ignore[assignment]
    out_start: np.ndarray = field(init=False)
    out_deg: np.ndarray = field(init=False)
    act0: np.ndarray = field(init=False)
    pref0: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("s_c", "s_s"):
            if np.diagonal(getattr(self, name), axis1=1, axis2=2).any():
                raise ValueError(f"{name} must have a zero diagonal")
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        order = np.lexsort((self.dst, self.src))
        if not np.array_equal(order, np.arange(len(self.src))):
            self.src = self.src[order]
            self.dst = self.dst[order]
            self.base_inf = np.asarray(self.base_inf, dtype=np.float64)[order]
        self.base_inf = np.asarray(self.base_inf, dtype=np.float64)
        counts = np.bincount(self.src, minlength=self.n_users)
        self.out_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.out_deg = counts.astype(np.int64)
        if self.orig_users is None:
            self.orig_users = np.arange(self.n_users, dtype=np.int64)
        p = self.params
        self.act0 = np.clip(self.base_inf, p.act_floor, p.act_cap)
        self.pref0 = np.clip(self.base_pref, p.pref_floor, 1.0)

    @property
    def n_comp(self) -> int:
        return self.s_c.shape[0]

    @property
    def n_subs(self) -> int:
        return self.s_s.shape[0]

    def out_edges(self, u: int) -> slice:
        """Slice of the edge arrays holding ``u``'s out-edges."""
        return slice(self.out_start[u], self.out_start[u + 1])

    @cached_property
    def wc0(self) -> np.ndarray:
        """Initial complementary weightings ``[U, nC]``, keyed by original ids."""
        return kernels.init_weights(
            self.orig_users, self.n_comp, self.seed, kernels.TAG_WEIGHT_INIT_C
        )

    @cached_property
    def ws0(self) -> np.ndarray:
        """Initial substitutable weightings ``[U, nS]``, keyed by original ids."""
        return kernels.init_weights(
            self.orig_users, self.n_subs, self.seed, kernels.TAG_WEIGHT_INIT_S
        )

    @cached_property
    def nbr_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected neighbour CSR ``(start, nbr)``, built on first use.

        ``nbr[start[u]:start[u+1]]`` are ``u``'s out-neighbours, then
        its in-neighbours, each in edge order (a mutual friendship lists
        the friend twice). Social distance treats friendship as
        undirected.
        """
        ends = np.concatenate([self.src, self.dst])
        order = np.argsort(ends, kind="stable")
        counts = np.bincount(ends, minlength=self.n_users)
        start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return start, np.concatenate([self.dst, self.src])[order]

    def subgraph(self, users: np.ndarray) -> "ModelData":
        """Instance restricted to ``users`` (a target market).

        Users are relabeled contiguously (sorted by original id);
        ``orig_users`` keeps the mapping. Edges with either endpoint
        outside the set are dropped — diffusion inside a target market
        only flows through its members, matching the paper's
        per-market ``σ^τ`` estimates.
        """
        users = np.unique(np.asarray(users, dtype=np.int64))
        local = -np.ones(self.n_users, dtype=np.int64)
        local[users] = np.arange(len(users))
        keep = (local[self.src] >= 0) & (local[self.dst] >= 0)
        return ModelData(
            n_users=len(users),
            n_items=self.n_items,
            src=local[self.src[keep]],
            dst=local[self.dst[keep]],
            base_inf=self.base_inf[keep],
            s_c=self.s_c,
            s_s=self.s_s,
            base_pref=self.base_pref[users],
            importance=self.importance,
            cost=self.cost[users],
            params=self.params,
            seed=self.seed,
            orig_users=self.orig_users[users],
        )


@dataclass
class WorldState:
    """Mutable diffusion state with a leading sample axis.

    ``adopted [M, U, I]`` bool; ``wc [M, U, nC]``, ``ws [M, U, nS]``
    simplex-normalized personal weightings.
    """

    adopted: np.ndarray
    wc: np.ndarray
    ws: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.adopted.shape[0]


def csr_ranges(start: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``start[r] … start[r+1]−1`` of each of ``rows``, concatenated.

    Returns the positions and the per-row counts; ``rows`` may repeat.
    """
    counts = start[rows + 1] - start[rows]
    first = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(start[rows] - first, counts), counts


def init_state(model: ModelData, n_samples: int) -> WorldState:
    """Fresh world state: nothing adopted, jittered-uniform weightings.

    The weightings are ``model.wc0``/``ws0``, keyed by *original* user
    ids, so a subgraph instance starts from exactly the same perceptions
    its users have in the full instance.
    """
    adopted = np.zeros((n_samples, model.n_users, model.n_items), dtype=bool)
    wc = np.broadcast_to(model.wc0, (n_samples, *model.wc0.shape)).copy()
    ws = np.broadcast_to(model.ws0, (n_samples, *model.ws0.shape)).copy()
    return WorldState(adopted, wc, ws)
