"""Counter-based deterministic pseudo-random helpers.

Every stochastic choice in the simulator is derived from explicit 64-bit
seeds through the splitmix64 finalizer, so results are reproducible and
independent of evaluation order.
"""

from __future__ import annotations

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


def _finalize(z: np.ndarray) -> np.ndarray:
    """The splitmix64 mixing steps, in place on a uint64 array already offset by _GOLDEN."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """`splitmix64` over a uint64 array, element by element, wrapping mod 2^64."""
    with np.errstate(over="ignore"):
        return _finalize(np.asarray(x, dtype=np.uint64) + np.uint64(_GOLDEN))


def unit_floats(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-index uniforms in [0, 1), keyed by (seed, index).

    Vectorized splitmix64 over the index array; the value at a given index
    never depends on which other indices are evaluated. `seed` is an int or
    a uint64 array that broadcasts against `indices`, one key per element.
    """
    if isinstance(seed, np.ndarray):
        seed = seed.astype(np.uint64)
    else:
        seed = np.uint64(int(seed) & _MASK64)
    with np.errstate(over="ignore"):
        z = np.asarray(indices, dtype=np.uint64) * np.uint64(_GOLDEN) + seed
        z += np.uint64(_GOLDEN)
    z = _finalize(z)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out /= float(1 << 53)
    return out
