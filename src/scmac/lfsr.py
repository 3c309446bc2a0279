"""Fibonacci linear feedback shift registers and cached maximal-length sequences.

The register shifts left each step; the bit fed into position 0 is the XOR
of the tapped bits. With a primitive tap polynomial the state walks through
all 2^w - 1 nonzero values before repeating, which is what makes the
LFSR-plus-comparator stream converter exact over a full period.

Streams are generated by slicing a cached copy of the full state cycle, so
a length-L stream costs O(L) numpy work instead of L Python-level steps.
The cache is filled once per (width, taps) pair and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionError, require_int, short_int

# Primitive polynomials for the shipped widths (tap positions, 1-indexed;
# position w is the register MSB).
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    8: (8, 6, 5, 4),
    15: (15, 14),
}


# the LFSR tables are built from a 2^w-entry state array: about 0.05 s and a
# 21 MB traced peak at width 20, doubling per extra bit
MAX_LFSR_WIDTH = 20


def register_taps(width: int, taps: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The register's taps, sorted high to low; the shipped set when `taps` is None.

    Integer taps must lie in 1..width and include the width, which makes each step invertible.
    """
    require_int("lfsr_width", width, ConversionError)
    if taps is None:
        if width not in MAXIMAL_TAPS:
            raise ConversionError(
                f"no shipped taps for lfsr_width {short_int(width)}; "
                f"pick one of {sorted(MAXIMAL_TAPS)} or set lfsr_taps"
            )
        return MAXIMAL_TAPS[width]
    taps = tuple(require_int("lfsr_taps", t, ConversionError) for t in taps)
    if width < 2 or not taps or any(t < 1 or t > width for t in taps) or width not in taps:
        shown, w = ", ".join(map(short_int, taps)), short_int(width)
        raise ConversionError(f"lfsr_taps [{shown}] must lie in 1..{w} and include the width {w}")
    return tuple(sorted(set(taps), reverse=True))


@dataclass(frozen=True)
class Lfsr:
    """Immutable LFSR state: stepping returns a new instance."""

    width: int
    taps: tuple[int, ...]
    state: int

    def __post_init__(self):
        object.__setattr__(self, "width", require_int("lfsr_width", self.width, ConversionError))
        object.__setattr__(self, "state", require_int("LFSR state", self.state, ConversionError))
        object.__setattr__(self, "taps", register_taps(self.width, self.taps))
        if not (1 <= self.state < (1 << self.width)):
            raise ConversionError(
                f"LFSR state must be a nonzero {self.width}-bit value, got {self.state}"
            )


def default_lfsr(width: int = 4, seed: int = 0b1000) -> Lfsr:
    """LFSR with the shipped maximal tap set for the given width."""
    return Lfsr(width, register_taps(width), seed)


def _tap_mask(width: int, taps: tuple[int, ...]) -> int:
    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    return mask


def _step(state: int, width: int, mask: int) -> int:
    fb = bin(state & mask).count("1") & 1
    return ((state << 1) | fb) & ((1 << width) - 1)


def lfsr_next(l: Lfsr) -> tuple[Lfsr, int]:
    """Advance one step; the new state is also the emitted w-bit output."""
    new = _step(l.state, l.width, _tap_mask(l.width, l.taps))
    return Lfsr(l.width, l.taps, new), new


def lfsr_outputs(l: Lfsr, count: int) -> list[int]:
    """The next `count` outputs, stepping from the given state."""
    out = []
    cur = l
    for _ in range(count):
        cur, v = lfsr_next(cur)
        out.append(v)
    return out


# (width, taps) -> (doubled state table, doubled LSB table)
_SEQ_CACHE: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}


def _feedback_bits(width: int, taps: tuple[int, ...], count: int) -> np.ndarray:
    """Bits fed into position 0, from state 1: b[i + width - 1] is the bit of step i.

    The first `width` entries are state 1 itself (zeros, then a one). Each
    step feeds b[k] = XOR_{t in taps} b[k - t]. Squaring the feedback
    polynomial over GF(2) spreads its lags, so b[k] = XOR_t b[k - 2^j t]
    holds once 2^j * width bits are known, and each pass fills
    2^j * min(taps) bits at once: O(log count) numpy passes, no Python step.
    """
    bits = np.zeros(count + width - 1, dtype=np.uint8)
    bits[width - 1] = 1
    low = min(taps)
    known = width
    while known < bits.size:
        spread = 1 << ((known // width).bit_length() - 1)
        end = min(known + spread * low, bits.size)
        block = bits[known - spread * taps[0] : end - spread * taps[0]].copy()
        for t in taps[1:]:
            block ^= bits[known - spread * t : end - spread * t]
        bits[known:end] = block
        known = end
    return bits


def _cycle(width: int, taps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    width = require_int("lfsr_width", width, ConversionError)
    taps = register_taps(width, taps)
    key = (width, taps)
    cached = _SEQ_CACHE.get(key)
    if cached is not None:
        return cached
    if width > MAX_LFSR_WIDTH:
        raise ConversionError(
            f"lfsr_width {short_int(width)} exceeds the supported maximum {MAX_LFSR_WIDTH}"
        )
    # the state after k steps is the width-bit window of feedback bits
    # ending at step k, newest bit lowest; with the width tap a step is
    # invertible, so state 1 comes back within 2^width steps
    count = 1 << width
    bits = _feedback_bits(width, taps, count)
    states = np.zeros(count, dtype=np.int64)
    for j in range(width):
        states <<= 1
        states |= bits[j : j + count]
    period = int(np.flatnonzero(states[1:] == 1)[0]) + 1
    # only the doubled tables stay cached; `state_cycle` widens them on demand
    seq2 = np.tile(states[:period].astype(np.min_scalar_type(count - 1)), 2)
    # a state's LSB is its newest feedback bit
    lsb2 = np.tile(bits[width - 1 : width - 1 + period], 2)
    for arr in (seq2, lsb2):
        arr.setflags(write=False)
    _SEQ_CACHE[key] = (seq2, lsb2)
    return _SEQ_CACHE[key]


def state_cycle(width: int, taps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The state cycle through 1 and a state->phase lookup table, as new int64 arrays.

    Returns (seq, phase_of) where seq[k] is the state after k steps from
    state 1 and phase_of[s] is the k with seq[k] == s (-1 for states not on
    the cycle, which only exist for non-maximal tap sets).
    """
    seq2 = _cycle(width, taps)[0]
    seq = seq2[: seq2.size // 2].astype(np.int64)
    phase_of = np.full(1 << width, -1, dtype=np.int64)
    phase_of[seq] = np.arange(seq.size, dtype=np.int64)
    return seq, phase_of


def select_table(width: int, taps: tuple[int, ...]) -> np.ndarray:
    """The cycle's LSBs twice over, as uint8: the select stream of phase p is
    `table[p + 1 : p + 1 + length]` for any length up to the period."""
    return _cycle(width, taps)[1]


def state_table(width: int, taps: tuple[int, ...]) -> np.ndarray:
    """The state cycle twice over, in the narrowest unsigned dtype that holds a state:
    the comparator stream of phase p reads `table[p + 1 : p + 1 + length]`."""
    return _cycle(width, taps)[0]


def cycle_length(width: int, taps: tuple[int, ...]) -> int:
    return state_table(width, taps).size // 2


def phase_of_state(width: int, taps: tuple[int, ...], state: int) -> int:
    _, phase_of = state_cycle(width, taps)
    p = int(phase_of[state])
    if p < 0:
        raise ConversionError(f"state {state} is not on the cycle of taps {taps}")
    return p


def threshold_bits(
    width: int, taps: tuple[int, ...], phase: int, length: int, threshold: int
) -> np.ndarray:
    """Comparator stream: bit t = 1 iff the (t+1)-th output from `phase` <= threshold.

    Over one full period the outputs visit 1..2^w-1 once each, so exactly
    min(threshold, period) bits are set.
    """
    seq2 = state_table(width, taps)
    idx = (phase + 1 + np.arange(length, dtype=np.int64)) % (seq2.size // 2)
    return (seq2[idx] <= threshold).astype(np.uint8)


def select_bits(width: int, taps: tuple[int, ...], phase: int, length: int) -> np.ndarray:
    """MUX select stream: the LSB of successive outputs from `phase`."""
    lsb2 = select_table(width, taps)
    return lsb2[(phase + 1 + np.arange(length, dtype=np.int64)) % (lsb2.size // 2)]
