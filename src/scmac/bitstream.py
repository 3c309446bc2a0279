"""Stochastic bitstreams and the elementary gate-level arithmetic on them.

A stochastic number is a fixed-length 0/1 sequence whose fraction of ones
is its value. Multiplication is a bitwise AND; scaled addition is a MUX
that picks one operand per bit position. Values are exact `Fraction`s so
equivalence tests never depend on float rounding.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._prng import unit_floats
from .errors import LengthMismatchError, StreamError


class Bitstream:
    """Immutable fixed-length sequence of 0/1 bits.

    The ASCII form writes the first bit leftmost, matching the usual
    A=01011100 notation for stochastic numbers.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise StreamError(f"bitstream must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise StreamError("bitstream must contain at least one bit")
        if not np.isin(arr, (0, 1)).all():
            raise StreamError("bitstream elements must be 0 or 1")
        out = arr.astype(np.uint8)
        out.setflags(write=False)
        self._bits = out

    @classmethod
    def from_string(cls, text: str) -> "Bitstream":
        try:
            return cls([int(c) for c in text])
        except ValueError as exc:
            raise StreamError(f"invalid bitstream literal {text!r}") from exc

    @classmethod
    def zeros(cls, length: int) -> "Bitstream":
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> "Bitstream":
        return cls(np.ones(length, dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._bits

    def __len__(self) -> int:
        return int(self._bits.size)

    def __getitem__(self, i):
        return int(self._bits[i])

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __repr__(self) -> str:
        return f"Bitstream({self.to_string()!r})"

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def ones_count(self) -> int:
        return int(self._bits.sum())

    @property
    def value(self) -> Fraction:
        return Fraction(self.ones_count(), len(self))


def value(b: Bitstream) -> Fraction:
    """Exact stochastic value: ones count over length."""
    return b.value


def sc_mul(a: Bitstream, b: Bitstream) -> Bitstream:
    """Stochastic multiply: bitwise AND of two equal-length streams."""
    if len(a) != len(b):
        raise LengthMismatchError(f"operand lengths differ: {len(a)} vs {len(b)}")
    return Bitstream(a.bits & b.bits)


def _select_bits(sel, length: int) -> np.ndarray:
    """The select stream's bits as booleans, checked against the operand length."""
    if not isinstance(sel, Bitstream):
        raise StreamError(f"cannot use {type(sel).__name__} as a select stream")
    if len(sel) != length:
        raise LengthMismatchError(f"select stream length {len(sel)} != operand length {length}")
    return sel.bits.astype(bool)


def mux_add(a: Bitstream, b: Bitstream, sel) -> Bitstream:
    """Scaled stochastic add: per bit, pass a when the select bit is 0, else b.

    With a balanced select the output value is (value(a)+value(b))/2.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"operand lengths differ: {len(a)} vs {len(b)}")
    return Bitstream(np.where(_select_bits(sel, len(a)), b.bits, a.bits))


def mux_tree_scale(k: int) -> int:
    """Denominator 2^ceil(log2 k) that MUX-tree accumulation divides by."""
    if k < 1:
        raise StreamError("tree size must be positive")
    return 1 << (k - 1).bit_length()


def mux_tree_accumulate(streams, sel) -> Bitstream:
    """Binary MUX tree over the streams; output value is (sum of values)/2^ceil(log2 k).

    `sel` is one select `Bitstream` shared by every tree level, or a
    sequence of them, one per level from the leaves up (an LFSR select takes
    successive slices of `lfsr.select_bits`). Non-power-of-two inputs are
    padded with all-zero streams; the caller accounts for the resulting
    scale via mux_tree_scale(len(streams)).
    """
    streams = list(streams)
    if not streams:
        raise StreamError("cannot accumulate an empty stream list")
    length = len(streams[0])
    for s in streams:
        if len(s) != length:
            raise LengthMismatchError("all accumulated streams must share one length")
    size = mux_tree_scale(len(streams))
    stack = np.zeros((size, length), dtype=np.uint8)
    for i, s in enumerate(streams):
        stack[i] = s.bits
    levels = size.bit_length() - 1
    if isinstance(sel, Bitstream):
        sel = [sel] * levels
    elif not isinstance(sel, (list, tuple)):
        raise StreamError(f"cannot use {type(sel).__name__} as a select stream")
    if len(sel) != levels:
        raise StreamError(f"a {size}-leaf tree needs {levels} select streams, got {len(sel)}")
    for level_sel in sel:
        stack = np.where(_select_bits(level_sel, length)[None, :], stack[1::2], stack[0::2])
    return Bitstream(stack[0])


def inject_bitflips(b: Bitstream, p: float, seed: int) -> Bitstream:
    """Flip each bit independently with probability p.

    The flip decision at bit i is a pure function of (seed, i), so the
    result is reproducible and independent of evaluation order.
    """
    if not (0.0 <= p <= 1.0):
        raise StreamError(f"flip probability must be in [0, 1], got {p}")
    if p == 0.0:
        return b
    mask = flip_mask(len(b), p, seed)
    return Bitstream(b.bits ^ mask)


def flip_mask(length: int, p: float, seed: int) -> np.ndarray:
    """uint8 mask with ones where (seed, index) draws a uniform below p."""
    u = unit_floats(seed, np.arange(length, dtype=np.uint64))
    return (u < p).astype(np.uint8)
