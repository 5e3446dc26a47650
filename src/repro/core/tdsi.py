"""TDSI — Timing Determination by Substantial Influence (Sec. IV-B3).

For a candidate seed ``(u, x_p, t)`` in target market τ_k:

  SI = MA(S^G, (u,x_p,t)) + (T − t + 1)/T · ML(S^G, (u,x_p,t))   (Eq. 2)
  MA = σ^τ(S^G ∪ {(u,x_p,t)}) − σ^τ(S^G)                         (Eq. 5)
  ML = π^τ(S^G ∪ {(u,x_p,t)}) − π^τ(S^G)                         (Eq. 6)

σ^τ and π^τ are estimated by Monte-Carlo on the *market submodel*
(diffusion restricted to τ's members — this is what keeps Dysim's
timing search cheap, Fig. 6(g)); the stateless RNG gives common random
numbers to the with/without runs, so the marginals are low-variance.

"""
from __future__ import annotations

import numpy as np

from repro.diffusion.local import likelihood_pi, simulate_groups
from repro.dynamics.state import ModelData
from repro.kg.relevance import mean_weights, personal_relevance


class MarketEvaluator:
    """σ (and π, r̄) of seed groups on one (sub)model, each group simulated once.

    The seed-group evaluator of TMI, the frozen greedy of HAG and
    BundleGRD, CR-Greedy and TDSI/DRE;
    :func:`marginals_many` (:meth:`marginals` is its one-evaluator case)
    is the one marginal-gain request of the greedy ones.
    Seeds are given in *global* user ids and silently dropped if their
    user lies outside the submodel (they cannot contribute adoptions
    inside it when the diffusion is restricted to it, by construction);
    a group is keyed by its localized, sorted seeds. A request simulates
    its missing groups in one :func:`simulate_groups` call, and
    :func:`marginals_many` does so for the requests of several
    evaluators at once; a σ-only request (:meth:`sigmas`) computes no π
    and simulates no empty group.
    Each group is simulated on ``submodel.params.mc_plan`` samples;
    ``frozen`` selects the dynamics-blind diffusion.
    """

    def __init__(self, submodel: ModelData, T: int, *, frozen: bool = False) -> None:
        self.submodel = submodel
        self.T = T
        self.frozen = frozen
        self._local = {int(g): i for i, g in enumerate(submodel.orig_users)}
        # σ(∅) is exactly 0.0 on the engine: never simulated for σ alone.
        self._sigma: dict[tuple, float] = {(): 0.0}
        # key -> (π, mean wc, mean ws) after the group's campaign
        self._after: dict[tuple, tuple[float, np.ndarray, np.ndarray]] = {}

    def _localize(self, seeds) -> tuple:
        out = []
        for u, x, t in seeds:
            lu = self._local.get(int(u))
            if lu is not None:
                out.append((lu, int(x), int(t)))
        return tuple(sorted(out))

    def _request(self, groups, with_pi: bool) -> list[tuple]:
        """The groups' keys; the missing groups are simulated in one engine call."""
        return _request([(self, groups)], with_pi)[0]

    def sigmas(self, groups) -> list[float]:
        """σ of each seed group; computes no π."""
        return [self._sigma[k] for k in self._request(groups, False)]

    def marginals(self, base, extensions) -> list[float]:
        """``σ(base + e) − σ(base)`` for each extension ``e``, in one request."""
        return marginals_many([(self, base, extensions)])[0]

    def sigma_pis(self, groups) -> list[tuple[float, float]]:
        """``(σ^τ, π^τ)`` of each seed group, each read through :meth:`sigma_pi`."""
        self._request(groups, True)
        return [self.sigma_pi(g) for g in groups]

    def sigma_pi(self, seeds) -> tuple[float, float]:
        """(σ^τ, π^τ) of a seed group."""
        (key,) = self._request([seeds], True)
        return self._sigma[key], self._after[key][0]

    def average_relevance(self, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Market-average ``(r̄^C, r̄^S)`` after the seed group's campaign."""
        (key,) = self._request([seeds], True)
        _, wc_bar, ws_bar = self._after[key]
        sm = self.submodel
        return personal_relevance(wc_bar, sm.s_c), personal_relevance(ws_bar, sm.s_s)


def _request(requests, with_pi: bool) -> list[list[tuple]]:
    """The keys of each ``(evaluator, groups)`` request, in order.

    The groups missing from their evaluator's cache are simulated in one
    :func:`simulate_groups` call over the evaluators' submodels, so the
    evaluators must share ``T`` and ``frozen`` (``ValueError`` otherwise),
    and the engine rejects submodels of unequal ``params`` (hence
    ``mc_plan``). A σ-only request computes no π.
    """
    settings = {(ev.T, ev.frozen) for ev, _ in requests}
    if len(settings) > 1:
        raise ValueError("evaluators of one request must share T and frozen")
    keys = [[ev._localize(g) for g in groups] for ev, groups in requests]
    missing: dict[tuple[MarketEvaluator, tuple], None] = {}
    for (ev, _), ev_keys in zip(requests, keys):
        cache = ev._after if with_pi else ev._sigma
        missing.update(((ev, k), None) for k in ev_keys if k not in cache)
    if not missing:
        return keys
    ((T, frozen),) = settings
    models = [ev.submodel for ev, _ in missing]
    runs = simulate_groups(
        models, [k for _, k in missing], T, models[0].params.mc_plan, frozen=frozen
    )
    for (ev, key), res in zip(missing, runs):
        ev._sigma[key] = res.sigma
        if with_pi:
            ev._after[key] = (
                likelihood_pi(ev.submodel, res.state),
                mean_weights(res.state.wc),
                mean_weights(res.state.ws),
            )
    return keys


def marginals_many(requests) -> list[list[float]]:
    """``σ(base + e) − σ(base)`` per ``(evaluator, base, extensions)`` request.

    The one marginal-gain request of the greedy planners: every
    request's groups are one σ-only request, so the missing groups of all
    the evaluators are simulated in one engine call (:func:`_request`).
    """
    requests = [(ev, list(base), [list(e) for e in exts]) for ev, base, exts in requests]
    keys = _request(
        [(ev, [base] + [base + e for e in exts]) for ev, base, exts in requests], False
    )
    out = []
    for (ev, _, _), (key0, *ext_keys) in zip(requests, keys):
        sigma0 = ev._sigma[key0]
        out.append([ev._sigma[k] - sigma0 for k in ext_keys])
    return out


def substantial_influence(
    ev: MarketEvaluator, seed_group, candidates, T: int
) -> list[float]:
    """``SI^τ(S^G, (u, x_p, t), T)`` of Eq. (2) for each candidate ``(u, x_p, t)``.

    The seed group and every candidate's extension are one request.
    """
    base = list(seed_group)
    (sigma0, pi0), *ext = ev.sigma_pis([base] + [base + [c] for c in candidates])
    return [
        (sigma1 - sigma0) + (T - t + 1) / T * (pi1 - pi0)
        for (_, _, t), (sigma1, pi1) in zip(candidates, ext)
    ]


def timing_window(
    seed_group, T: int, T_market: int, prev_market_last_t: int
) -> list[int]:
    """Candidate timings per Algorithm 1 line 17.

    ``t ∈ [t̂, min{t̂ + 1, T^{τ_k} + max{t' ∈ S^{τ_{k−1}}}}]`` clamped
    into ``[1, T]``, where ``t̂`` is the latest timing in the seed
    group so far (1 when empty) and ``prev_market_last_t`` is 0 for the
    first market of a 𝒢. Markets of one 𝒢 are promoted in
    *consecutive* promotions (Sec. IV: the prioritized market is
    "promoted earlier"), so a market's window additionally starts after
    the previous market's last promotion.
    """
    t_hat = max((t for _, _, t in seed_group), default=1)
    lo = max(1, min(max(t_hat, prev_market_last_t + 1), T))
    hi = min(max(t_hat, lo) + 1, T_market + prev_market_last_t, T)
    hi = max(lo, hi)
    return list(range(lo, hi + 1))
