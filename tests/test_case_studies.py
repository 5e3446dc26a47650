"""Mechanism case studies mirroring Sec. VI-C (qualitative).

Case 1: adoptions change perceptions, which change relevance and can
steer later adoptions toward relevant (even pricier) items.
Case 2: adopting an item raises the preference for its complement, so a
later promotion of the complement succeeds more often than an
immediate joint promotion (the Kindle / Kindle-Unlimited story).
Case 3: co-adoption makes two users more similar, which raises the
influence strength between them (the Garmin nuvi story).
"""
import numpy as np
import pytest

from repro.dynamics import kernels
from repro.dynamics.state import ModelData, init_state
from repro.diffusion.local import simulate
from repro.kg.relevance import personal_relevance
from repro.params import DEFAULT


def chain_model(*, comp=0.9, n_users=4):
    """0 -> 1 -> 2 -> 3 with items 0 and 1 strongly complementary."""
    s_c = np.zeros((2, 2, 2))
    s_c[0, 0, 1] = s_c[0, 1, 0] = comp
    s_s = np.zeros((2, 2, 2))
    src = np.arange(n_users - 1)
    dst = np.arange(1, n_users)
    return ModelData(
        n_users=n_users, n_items=2, src=src, dst=dst,
        base_inf=np.full(n_users - 1, 0.8),
        s_c=s_c, s_s=s_s,
        base_pref=np.tile(np.array([0.61, 0.2]), (n_users, 1)),
        importance=np.ones(2), cost=np.ones((n_users, 2)),
        params=DEFAULT.with_(gamma=0.3), seed=3,
    )


class TestCase1PerceptionShift:
    def test_adoption_raises_relevance(self):
        m = chain_model()
        st = init_state(m, 1)
        r_before = personal_relevance(st.wc[0, 1], m.s_c)[0, 1]
        res = simulate(m, [(1, 0, 1), (1, 1, 1)], T=1, n_samples=1)
        r_after = personal_relevance(res.state.wc[0, 1], m.s_c)[0, 1]
        # User 1 adopted both complements -> the explaining meta-graph
        # gains weight -> perceived relevance between 0 and 1 grows.
        assert r_after > r_before


class TestCase2SequencedComplement:
    def test_adoption_raises_complement_preference(self):
        m = chain_model()
        res = simulate(m, [(1, 0, 1)], T=1, n_samples=1)
        p = m.params
        pref = kernels.preference_batch(
            m.base_pref[1:2], res.state.adopted[0, 1:2], res.state.wc[0, 1:2],
            res.state.ws[0, 1:2], m.s_c, m.s_s, p.beta_c, p.beta_s, p.pref_floor,
        )[0]
        assert pref[1] > m.base_pref[1, 1]

    def test_sequenced_promotion_beats_joint(self):
        m = chain_model()
        # Promote item 0 at t=1 and the complement at t=2 vs both at t=1.
        seq = simulate(m, [(0, 0, 1), (0, 1, 2)], T=2, n_samples=400)
        joint = simulate(m, [(0, 0, 1), (0, 1, 1)], T=2, n_samples=400)
        # Adoption counts of the complement downstream (users 1..3).
        seq_c = (seq.adopt_t[:, 1:, 1] > 0).mean()
        joint_c = (joint.adopt_t[:, 1:, 1] > 0).mean()
        assert seq_c > joint_c


class TestCase3InfluenceGrowth:
    def test_coadoption_raises_influence_strength(self):
        m = chain_model()
        res = simulate(m, [(0, 0, 1), (1, 0, 1)], T=1, n_samples=1)
        adopted = res.state.adopted[0]
        inter = int((adopted[0] & adopted[1]).sum())
        union = int(adopted[0].sum() + adopted[1].sum() - inter)
        p = m.params
        act_after = kernels.influence_strength(
            np.array([0.8]), [inter], [union], p.gamma, p.act_floor, p.act_cap
        )[0]
        act_before = kernels.influence_strength(
            np.array([0.8]), [0], [0], p.gamma, p.act_floor, p.act_cap
        )[0]
        assert act_after > act_before
        assert act_after == pytest.approx(min(0.8 + p.gamma, p.act_cap))
