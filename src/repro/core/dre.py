"""DRE — Dynamic Reachability Evaluation (Sec. IV-B2, Eqs. 1, 3, 4).

``DR(x) = PI(x, d) + RI(x, d)`` over a target market τ with diameter
``d``, computed from the market's *current* average relevance (after
the promotions planned so far — the dynamic part):

  PI(x, d) = Σ_y [ 𝓛^C(x,y)·r̄^C_{x,y}·w_y − 𝓛^S(x,y)·r̄^S_{x,y}·w_y
                    + PI(y, d−1) ],        PI(·, 0) = 0
  RI(x, d) = Σ_z [ 𝓛^C(z,x)·r̄^C_{z,x}·w_x − 𝓛^S(z,x)·r̄^S_{z,x}·w_x
                    + RI(z, d−1) ],        RI(·, 0) = 0

with 𝓛^C = r̄^C/(r̄^C+r̄^S), 𝓛^S = r̄^S/(r̄^C+r̄^S); the sums range
over the items *relevant* to x (r̄^C + r̄^S > 0). Both recursions are
vectorized to O(I²·d): the depth-d vector is the depth-1 gains plus
the relevance-adjacency matrix times the depth-(d−1) vector. RI's
weight ``w_x`` factors out of its recursion (every term carries it),
so RI(x,d) = w_x · G_d(x) with an unweighted recursion G.
"""
from __future__ import annotations

import numpy as np


def _likelihood_gains(
    r_bar_c: np.ndarray, r_bar_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair likelihood-weighted gain and the relevance adjacency."""
    tot = r_bar_c + r_bar_s
    with np.errstate(invalid="ignore", divide="ignore"):
        lc = np.where(tot > 0, r_bar_c / tot, 0.0)
        ls = np.where(tot > 0, r_bar_s / tot, 0.0)
    gain = lc * r_bar_c - ls * r_bar_s  # [I, I], unweighted by w yet
    rel = (tot > 0).astype(np.float64)
    return gain, rel


def dr_all_items(
    r_bar_c: np.ndarray, r_bar_s: np.ndarray, importance: np.ndarray, d: int
) -> np.ndarray:
    """``DR`` for every item at recursion depth ``d`` (vectorized)."""
    w = np.asarray(importance, dtype=np.float64)
    gain, rel = _likelihood_gains(r_bar_c, r_bar_s)

    # PI: depth-1 gains weight the *other* item's importance (w_y).
    pi_base = (gain * w[None, :]).sum(axis=1)  # Σ_y gain[x,y]·w_y
    pi = np.zeros_like(pi_base)
    for _ in range(max(0, d)):
        pi = pi_base + rel @ pi

    # RI: w_x factors out; G recursion uses column sums of the gains.
    g_base = gain.sum(axis=0)  # Σ_z gain[z,x]
    g = np.zeros_like(g_base)
    for _ in range(max(0, d)):
        g = g_base + rel @ g
    ri = w * g
    return pi + ri

