"""Counter-based deterministic pseudo-random helpers.

Bit flips are derived from explicit 64-bit seeds through the splitmix64
finalizer, so results are reproducible and independent of evaluation order.
Trial inputs and LFSR phases come from numpy's `default_rng((seed, t))`
stream; `pcg64_lanes` and `bounded_uint32` compute its seeding and its
bounded integers for many trials at once, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 finalization round of a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit seed."""
    acc = 0
    for p in parts:
        acc = splitmix64(acc ^ (p & _MASK64))
    return acc


def _finalize(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The splitmix64 mixing steps, in place on a uint64 array already offset by _GOLDEN.

    `work`, a uint64 array of z's shape, takes each shifted copy of z.
    """
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=work)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=work)
        z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=work)
    return z


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """`splitmix64` over a uint64 array, element by element, wrapping mod 2^64."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(_GOLDEN)
    return _finalize(z, np.empty_like(z))


def unit_words(seed: int | np.ndarray, indices, out=None, work=None) -> np.ndarray:
    """The uint64 words behind `unit_floats`: each uniform is (word >> 11) / 2^53.

    Vectorized splitmix64 over the index array; the word at a given index
    never depends on which other indices are evaluated. `seed` is an int or
    a uint64 array that broadcasts against `indices`, one key per element.
    The words go to `out` and the hash's intermediate words to `work`,
    uint64 arrays of the broadcast shape, or to new arrays where not given;
    `out` may be `seed` itself.
    """
    if isinstance(seed, np.ndarray):
        seed = seed.astype(np.uint64, copy=False)
    else:
        seed = np.uint64(int(seed) & _MASK64)
    if work is None:
        work = np.empty(np.broadcast_shapes(np.shape(seed), np.shape(indices)), np.uint64)
    with np.errstate(over="ignore"):
        np.multiply(indices, np.uint64(_GOLDEN), out=work, dtype=np.uint64, casting="unsafe")
        z = np.add(work, seed, out=out)
        z += np.uint64(_GOLDEN)
    return _finalize(z, work)


def unit_floats(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-index uniforms in [0, 1), keyed by (seed, index); see `unit_words`."""
    z = unit_words(seed, indices)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out /= float(1 << 53)
    return out


def unit_below(words: np.ndarray, p: float, out=None) -> np.ndarray:
    """Where the uniforms of `unit_words` lie below p in [0, 1], by one integer compare per word.

    A uniform k / 2^53 is below p iff k < ceil(p * 2^53), iff its word
    (k << 11 plus 11 low bits) is below ceil(p * 2^53) << 11; that bound
    fits a uint64 for every p < 1, and at p = 1 every uniform is below.
    The booleans go to `out` where given.
    """
    if p >= 1.0:
        return np.greater_equal(words, np.uint64(0), out=out)
    return np.less(words, np.uint64(math.ceil(Fraction(p) * (1 << 53)) << 11), out=out)


# numpy's SeedSequence (pool size 4) and PCG64 seeding, vectorized over trial
# indices: the constants of NumPy NEP 19's SeedSequence and of PCG64's
# 128-bit LCG (O'Neill, HMC-CS-2014-0905). The hash words are uint32 arrays,
# whose products and differences wrap mod 2^32 as SeedSequence's do.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# the pool rows each pool word mixes into
_OTHER_ROWS = [np.array([d for d in range(4) if d != src]) for src in range(4)]


def _uint32_words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits a non-negative int into, at least one."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mul) constants of `count` successive hash calls, as (count, 1) columns.

    Call i xors with init * mult^i and multiplies by init * mult^(i+1), mod 2^32.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False  # shared by every caller of the cache
    return column[:-1], column[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of `values`, one row per hash call."""
    v = values ^ xor
    v *= mul
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _seed_words(entropy: np.ndarray) -> list[list[int]]:
    """`SeedSequence(entropy).generate_state(4, uint64)` per column of (words, T) uint32 entropy."""
    n_words, lanes = entropy.shape
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, n_words - 4))
    pool = np.zeros((4, lanes), dtype=np.uint32)
    pool[: min(n_words, 4)] = entropy[:4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    call = 4
    # every pool word mixes into every other one, then the entropy past the
    # pool mixes into every pool word
    for src, dst in enumerate(_OTHER_ROWS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[call : call + 3], mul[call : call + 3]))
        call += 3
    for src in range(4, n_words):
        pool = _mix(pool, _hashmix(entropy[src], xor[call : call + 4], mul[call : call + 4]))
        call += 4
    out = _hashmix(np.vstack((pool, pool)), *_hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).tolist()


def pcg64_lanes(seed: int, start: int, stop: int) -> tuple[list[int], list[int]]:
    """PCG64 `(state, inc)` of `np.random.default_rng((seed, t))` for t in range(start, stop).

    The SeedSequence pool hash runs on arrays, one lane per trial; trials
    with as many uint32 words share one pass. PCG64 seeds its 128-bit LCG
    from the four generated words v: inc = (v[2:4] << 1) | 1, then one step
    from state 0, add v[0:2], one more step. Trial indices run up to 2^64.
    """
    seed_words = _uint32_words(seed)
    states, incs = [], []
    lo = start
    while lo < stop:
        k = len(_uint32_words(lo))
        hi = min(stop, 1 << (32 * k))
        trials = np.arange(lo, hi, dtype=np.uint64)
        entropy = np.empty((len(seed_words) + k, hi - lo), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for i in range(k):
            # the cast keeps the low 32 bits
            entropy[len(seed_words) + i] = trials >> np.uint64(32 * i)
        for v0, v1, v2, v3 in zip(*_seed_words(entropy)):
            inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
            states.append(((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128)
            incs.append(inc)
        lo = hi
    return states, incs


def bounded_uint32(raw: np.ndarray, count: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.integers(0, bound, size=count)` from each row of raw PCG64 output words.

    For a bound below 2^32 numpy maps 32-bit halves x, the low half of each
    word first, to (x * bound) >> 32 (Lemire, ACM TOMACS 29(1), 2019).
    PCG64 keeps a spare half between calls, so consecutive `integers` calls
    read one contiguous stream of halves. Where some (x * bound) mod 2^32
    falls below (2^32 - bound) mod bound = 2^32 mod bound numpy rejects x
    and draws again; those rows are flagged, and their returned values are
    not numpy's.
    """
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :count]
    product = halves * np.uint64(bound)
    flagged = ((product & np.uint64(0xFFFFFFFF)) < np.uint64((1 << 32) % bound)).any(axis=1)
    product >>= np.uint64(32)
    return product.view(np.int64), flagged
