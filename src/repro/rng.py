"""Stateless, counter-based randomness shared by both diffusion engines.

Every Bernoulli trial in the simulator compares a uniform draw with its
probability (:func:`below` makes that comparison on the integers), and
every draw is a pure function of a tuple of integer keys (seed, sample,
promotion, step, actor, target, item, tag). The Spark engine runs the
local engine on shards of the Monte-Carlo samples, and a sample's draws
do not depend on which shard simulates it. That buys two things:

* the Spark engine can be tested for **exact equality** against a
  single local run, and
* marginal-gain estimates (sigma with vs. without a candidate seed) use
  common random numbers, which slashes Monte-Carlo variance.

The mix is SplitMix64 (Steele et al., "Fast splittable pseudorandom
number generators"), applied over a fold of the keys. All arithmetic is
uint64 with wraparound on one numpy uint64 array, mixed in place: a
0-d array while every key is a scalar, the keys' broadcast shape once an
array key arrives (numpy integer *arrays* wrap without overflow
warnings, so no ``np.errstate`` is needed). A fold can stop after a
prefix of the keys and be continued with :func:`fold_from`, which gives
the same bits as folding the whole tuple at once.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_START = 0x8000000000000000
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = float(1 << 53)

_S30, _S27, _S31, _S11 = (np.uint64(n) for n in (30, 27, 31, 11))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_G = np.uint64(_GOLDEN)


def _mix_inplace(z: np.ndarray) -> None:
    """SplitMix64 finalizer applied in place to a uint64 array."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31


def fold_from(acc, *keys) -> np.ndarray:
    """Continue a fold from ``acc``: ``fold_from(fold(*a), *b) == fold(*a, *b)``.

    ``acc`` is the result of an earlier fold (a uint64 scalar or array,
    broadcastable against the keys). When ``acc`` and every key are
    scalars, the result is a ``np.uint64`` scalar.
    """
    z = np.array(acc, dtype=np.uint64)
    for k in keys:
        if np.ndim(k) == 0:
            k = int(k)
            if not 0 <= k <= _MASK:
                raise ValueError(f"RNG key {k} outside [0, 2^64)")
            z += np.uint64((_GOLDEN + k) & _MASK)
        else:
            k = np.asarray(k).astype(np.uint64, copy=False)  # arrays wrap, as a C cast
            z += _G
            if k.shape == z.shape:
                z += k
            else:  # broadcasting may grow the shape
                z = z + k
        _mix_inplace(z)
    return z[()]


def fold(*keys) -> np.ndarray:
    """Fold integer keys (scalars or broadcastable arrays) into uint64.

    Each key is absorbed with the golden-ratio increment then mixed, so
    distinct key tuples land far apart even when keys are small ints.
    A scalar key outside [0, 2^64) raises ``ValueError``.
    """
    return fold_from(_START, *keys)


def u01(*keys) -> np.ndarray:
    """Uniform draws in [0, 1) keyed by the integer tuple.

    Broadcasts over array keys; returns float64 with 53 random bits.
    """
    return u01_from(_START, *keys)


def u01_from(acc, *keys) -> np.ndarray:
    """:func:`u01` of a key tuple whose prefix was folded into ``acc``."""
    return (fold_from(acc, *keys) >> _S11).astype(np.float64) / _U53


def below(acc, key, p) -> np.ndarray:
    """Bernoulli trials: ``u01_from(acc, key) < p``, compared on the integers.

    The draw is ``k · 2⁻⁵³`` for the top 53 bits ``k`` of the fold, and
    scaling by a power of two is exact, so ``u < p`` holds exactly when
    ``k < p · 2⁵³`` (``k`` converts to float64 exactly, ``k < 2⁵³``; a
    NaN ``p`` never hits, as before). This skips the float draw and its
    division on every trial.
    """
    bits = fold_from(acc, key)
    bits >>= _S11
    return bits < np.multiply(p, _U53)
