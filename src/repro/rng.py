"""Stateless, counter-based randomness shared by both diffusion engines.

Every Bernoulli draw in the simulator is a pure function of a tuple of
integer keys (seed, sample, promotion, step, actor, target, item, tag).
Both the local numpy engine and the Spark engine call the *same*
functions here, so given the same keys they see the same uniforms.
That buys two things:

* the Spark dataflow can be tested for **exact equality** against the
  local reference engine, and
* marginal-gain estimates (sigma with vs. without a candidate seed) use
  common random numbers, which slashes Monte-Carlo variance.

The mix is SplitMix64 (Steele et al., "Fast splittable pseudorandom
number generators"), applied over a fold of the keys. All arithmetic is
uint64 with wraparound: leading scalar keys are absorbed with Python
ints reduced mod 2^64, the first array key and everything after it with
numpy uint64 arrays mixed in place (numpy integer *arrays* wrap without
overflow warnings, so no ``np.errstate`` is needed). A fold can stop
after a prefix of the keys and be continued with :func:`fold_from`,
which gives the same bits as folding the whole tuple at once.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_START = 0x8000000000000000
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = float(1 << 53)

_S30, _S27, _S31, _S11 = (np.uint64(n) for n in (30, 27, 31, 11))
_M1, _M2 = np.uint64(_MIX1), np.uint64(_MIX2)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_inplace(z: np.ndarray) -> None:
    """SplitMix64 finalizer applied in place to a uint64 array."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31


def _scalar_key(k) -> int | None:
    """``k`` as a Python int if it is a scalar integer key, else None."""
    if isinstance(k, (int, np.integer)) or (isinstance(k, np.ndarray) and k.ndim == 0):
        k = int(k)
        if not 0 <= k <= _MASK:
            raise ValueError(f"RNG key {k} outside [0, 2^64)")
        return k
    return None


def fold_from(acc, *keys) -> np.ndarray:
    """Continue a fold from ``acc``: ``fold_from(fold(*a), *b) == fold(*a, *b)``.

    ``acc`` is the result of an earlier fold (a uint64 scalar or array,
    broadcastable against the keys).
    """
    acc_arr = None
    if np.ndim(acc) == 0:
        acc_int = int(acc)
    else:
        acc_arr = np.array(acc, dtype=np.uint64)
    i = 0
    if acc_arr is None:
        for i, k in enumerate(keys):
            v = _scalar_key(k)
            if v is None:
                break
            acc_int = _mix_int((acc_int + _GOLDEN + v) & _MASK)
        else:
            return np.uint64(acc_int)
        acc_arr = np.asarray(keys[i]).astype(np.uint64)  # arrays wrap, as a C cast
        acc_arr += np.uint64((acc_int + _GOLDEN) & _MASK)
        _mix_inplace(acc_arr)
        i += 1
    for k in keys[i:]:
        v = _scalar_key(k)
        if v is not None:
            acc_arr += np.uint64((_GOLDEN + v) & _MASK)
        else:
            k = np.asarray(k).astype(np.uint64, copy=False)
            acc_arr += np.uint64(_GOLDEN)
            if k.shape == acc_arr.shape:
                acc_arr += k
            else:  # broadcasting may grow the shape
                acc_arr = acc_arr + k
        _mix_inplace(acc_arr)
    return acc_arr


def fold(*keys) -> np.ndarray:
    """Fold integer keys (scalars or broadcastable arrays) into uint64.

    Each key is absorbed with the golden-ratio increment then mixed, so
    distinct key tuples land far apart even when keys are small ints.
    A negative scalar key raises ``ValueError``.
    """
    return fold_from(_START, *keys)


def _unit(bits) -> np.ndarray:
    """The top 53 bits of a fresh fold as a float64 in [0, 1)."""
    if np.ndim(bits) == 0:
        return np.float64(int(bits) >> 11) / _U53
    bits >>= _S11
    out = bits.astype(np.float64)
    out /= _U53
    return out


def u01(*keys) -> np.ndarray:
    """Uniform draws in [0, 1) keyed by the integer tuple.

    Broadcasts over array keys; returns float64 with 53 random bits.
    """
    return _unit(fold(*keys))


def u01_from(acc, *keys) -> np.ndarray:
    """:func:`u01` of a key tuple whose prefix was folded into ``acc``."""
    return _unit(fold_from(acc, *keys))


def bernoulli(p, *keys) -> np.ndarray:
    """Vectorized Bernoulli(p) trials keyed by the integer tuple."""
    return u01(*keys) < np.asarray(p, dtype=np.float64)
