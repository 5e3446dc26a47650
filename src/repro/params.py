"""All model and algorithm hyper-parameters in one place.

The paper plugs in externally-learned estimators for its four factors;
DESIGN.md §3 documents the closed-form instantiations used here. Every
constant of those instantiations lives in :class:`Params`, so tests,
experiments, and sensitivity sweeps share one source of truth.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Params:
    """Hyper-parameters of the IMDPP dynamics and of Dysim.

    Dynamics (DESIGN.md §3):

    * ``eta`` — learning rate of meta-graph weight reinforcement.
    * ``beta_c`` / ``beta_s`` — cross-elasticity gains: how much an
      adopted complement raises / an adopted substitute lowers
      ``P_pref`` (per unit of relevance).
    * ``gamma`` — influence-learning gain on adoption-set Jaccard.
    * ``ext_scale`` — damping on the item-association probability
      ``P_ext`` (keeps association cascades from saturating the
      catalogue; the paper's learned ``P_ext`` is likewise small).
    * ``pref_floor`` — minimum preference (paper's ``P_minpref > 0``).
    * ``act_floor`` / ``act_cap`` — clip range for influence strength.
    * ``max_steps`` — cap on diffusion steps per promotion (diffusion
      stops earlier when no new adoption happens; in the large presets'
      cells the cap is what ends a promotion).

    Dysim (Sec. IV):

    * ``theta`` — common-user threshold for grouping target markets.
    * ``theta_mioa`` — minimum path probability for a user to belong
      to a target market (MIOA influence-region threshold).
    * ``link_hops`` — max social distance linking two nominees into
      one cluster.
    * ``d_cap`` — cap on a target market's diameter (PI/RI recursion
      depth).
    * ``market_cap`` — cap on a target market's user count (members
      with the highest MIOA path probability are kept); bounds the
      cost of the per-market planning simulations.
    * ``cand_users`` — nominee universe restriction: top users by
      out-degree (|V|·|I| pairs are intractable verbatim; the paper's
      implementation likewise prunes via CELF++-style laziness).
    * ``mc_plan`` — Monte-Carlo samples used inside planning
      (MCP/DR/SI estimates). The paper uses M=100 on a 1TB-RAM server;
      this is the scaled-down default, overridable per experiment.
    """

    # dynamics
    eta: float = 0.5
    beta_c: float = 0.45
    beta_s: float = 0.45
    gamma: float = 0.3
    ext_scale: float = 0.25
    pref_floor: float = 0.02
    act_floor: float = 0.01
    act_cap: float = 0.95
    max_steps: int = 10
    # dysim
    theta: int = 2
    theta_mioa: float = 0.02
    link_hops: int = 2
    d_cap: int = 4
    cand_users: int = 40
    market_cap: int = 250
    mc_plan: int = 6

    def with_(self, **kw) -> "Params":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


DEFAULT = Params()
