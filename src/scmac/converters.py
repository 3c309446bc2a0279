"""Domain-boundary converters.

Binary <-> stochastic conversion (LFSR + comparator one way, a plain ones
counter the other), a behavioral ADC, and the thermometer-coded
analog-to-stochastic converter (ASC): a reference ladder from a capacitor
voltage divider feeding a chain of sense amplifiers, where each SA is only
fired if its predecessor resolved high. Gating changes energy, never the
code, because the thermometer pattern is monotone.

Reference voltages and comparisons are exact rationals, so the ASC count
equals floor(x*(m+1)/vdd) without float boundary artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from .bitstream import Bitstream
from .errors import ConversionError
from .lfsr import Lfsr, cycle_length, phase_of_state, threshold_bits


def bsc_encode(value: int, l: Lfsr) -> Bitstream:
    """Binary-to-stochastic: compare each LFSR output against the input code.

    One full period long (2^w - 1 bits); the output at step t is 1 iff the
    LFSR value is <= the code, so code k yields exactly k ones and the
    stream value is k/(2^w - 1).
    """
    period = cycle_length(l.width, l.taps)
    if not (0 <= value <= period):
        raise ConversionError(f"code {value} outside [0, {period}]")
    phase = phase_of_state(l.width, l.taps, l.state)
    return Bitstream(threshold_bits(l.width, l.taps, phase, period, value))


def sbc_decode(b: Bitstream) -> int:
    """Stochastic-to-binary: count the ones."""
    return b.ones_count()


def adc_quantize(x: float, bits: int) -> int:
    """Behavioral ADC: floor(x * 2^bits) clamped to the top code."""
    return adc_quantize_flagged(x, bits)[0]


def adc_quantize_flagged(x: float, bits: int) -> tuple[int, bool]:
    """ADC with a saturation flag for out-of-range inputs (which are clamped)."""
    if bits < 1:
        raise ConversionError("ADC needs at least one bit")
    if isinstance(x, float) and math.isnan(x):
        raise ConversionError("ADC input is NaN")
    saturated = x < 0.0 or x > 1.0
    xc = min(max(x, 0.0), 1.0)
    code = min(int(math.floor(xc * (1 << bits))), (1 << bits) - 1)
    return code, saturated


def _clip_unit(x, out=None, flags=None) -> tuple[np.ndarray, np.ndarray]:
    """x clipped to [0, 1] as float64, and its out-of-range flags, into `out` and
    `flags` where given (arrays of x's shape) or new arrays; NaN is rejected."""
    x = np.asarray(x, dtype=np.float64)
    # one clip pass; it measured twice as fast as maximum then minimum
    out = np.clip(x, 0.0, 1.0, out=out)
    # NaN passes through the clip, so it is flagged too
    flags = np.not_equal(out, x, out=flags)
    if np.count_nonzero(flags) and np.isnan(x).any():
        raise ConversionError("converter input is NaN")
    return out, flags


@dataclass(frozen=True)
class RefLadder:
    """Strictly increasing reference voltages, exact fractions of the supply."""

    vrefs: tuple[Fraction, ...]
    vdd: Fraction

    def __post_init__(self):
        vrefs = tuple(Fraction(v) for v in self.vrefs)
        vdd = Fraction(self.vdd)
        object.__setattr__(self, "vrefs", vrefs)
        object.__setattr__(self, "vdd", vdd)
        if not vrefs:
            raise ConversionError("reference ladder must have at least one tap")
        if vdd <= 0:
            raise ConversionError("vdd must be positive")
        prev = Fraction(0)
        for v in vrefs:
            if not (prev < v < vdd):
                raise ConversionError("references must satisfy 0 < v0 < ... < vdd")
            prev = v

    @property
    def vref_volts(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.vrefs)


def ref_ladder(m: int, vdd: float = 1.0) -> RefLadder:
    """Equal-unit-capacitor divider ladder: VREF_i = (i+1)/(m+1) * vdd."""
    if m < 1:
        raise ConversionError("ladder needs m >= 1 taps")
    vdd_f = Fraction(vdd)
    return RefLadder(tuple(Fraction(i + 1, m + 1) * vdd_f for i in range(m)), vdd_f)


def _thermometer_rows(counts, m: int) -> np.ndarray:
    """(len(counts), m) thermometer bits, counts[i] leading ones in row i; each whole, in [0, m]."""
    if m < 1:
        raise ConversionError("thermometer bits must be a nonempty 0/1 sequence")
    for c in counts:
        if not 0 <= c <= m:
            raise ConversionError(f"count {c} outside [0, {m}]")
        if c % 1:
            raise ConversionError(f"count {c} is not a whole number")
    return np.arange(m) < np.asarray(counts, dtype=np.int64).reshape(-1, 1)


@dataclass(frozen=True)
class ThermometerCode:
    """Monotone 0/1 code: a 0 is never followed by a 1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ConversionError("thermometer bits must be a nonempty 0/1 sequence")
        for lo, hi in zip(bits, bits[1:]):
            if hi > lo:
                raise ConversionError(f"non-monotone thermometer pattern {bits}")

    @classmethod
    def from_count(cls, count: int, m: int) -> "ThermometerCode":
        return cls(_thermometer_rows([count], m)[0])

    @property
    def count(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class AscActivity:
    """Which sense amplifiers actually fired during one conversion."""

    fired: tuple[bool, ...]
    input_clamped: bool = False
    enabled_sa_count: int = field(init=False)

    def __post_init__(self):
        fired = tuple(bool(f) for f in self.fired)
        object.__setattr__(self, "fired", fired)
        if not fired or not fired[0]:
            raise ConversionError("SA 0 is always enabled")
        object.__setattr__(self, "enabled_sa_count", sum(fired))

    @property
    def disabled_sa_count(self) -> int:
        return len(self.fired) - self.enabled_sa_count


def asc_encode(x, ladder: RefLadder, gating: bool = True) -> tuple[ThermometerCode, AscActivity]:
    """Thermometer-code an analog input against the reference ladder.

    Y[i] = 1 iff x >= VREF_i (a tie resolves high). With gating on, SA i>0
    is only evaluated when Y[i-1] resolved high; a skipped SA outputs 0,
    which monotonicity guarantees it would have anyway, so gating is
    observationally pure and only the activity record changes.

    Accepts float or Fraction inputs; comparisons are exact either way.
    """
    if isinstance(x, float) and math.isnan(x):
        raise ConversionError("ASC input is NaN")
    if not isinstance(x, Rational):
        x = Fraction(x)
    clamped = x < 0 or x > ladder.vdd
    xc = min(max(x, Fraction(0)), ladder.vdd)

    bits = []
    fired = []
    for i, vref in enumerate(ladder.vrefs):
        enabled = (i == 0) or (not gating) or bits[i - 1] == 1
        fired.append(enabled)
        bits.append(1 if (enabled and xc >= vref) else 0)
    # keep the record well-formed when gating is off: count evaluations
    return (
        ThermometerCode(tuple(bits)),
        AscActivity(tuple(fired), input_clamped=bool(clamped)),
    )


def thermometer_quantize(x, m: int) -> int:
    """Exact level the default ladder assigns: min(floor(x*(m+1)), m) for x in [0,1]."""
    if not isinstance(x, Rational):
        x = Fraction(x)
    xc = min(max(x, Fraction(0)), Fraction(1))
    return min(int(xc * (m + 1)), m)


# inputs closer than this to a level boundary k/(m+1) are re-levelled with
# Fractions; the float product x*(m+1) is off by at most (m+1)*2^-53
_BOUNDARY_TOL = 1e-9


def unit_levels(xc, m: int) -> np.ndarray:
    """Default-ladder ASC levels min(floor(xc*(m+1)), m) of inputs `xc` already clipped to [0, 1].

    The levels come in `np.min_scalar_type(m + 1)`, by a float floor, with an
    exact Fraction fallback within 1e-9 of a boundary. This is the one array
    level rule.
    """
    scaled = xc * (m + 1)
    # the boundary flags come first, so that their float temporary is freed
    # before the levels are built
    near = np.rint(scaled)
    np.subtract(scaled, near, out=near)
    near = np.abs(near, out=near) < _BOUNDARY_TOL * (m + 1)
    # the cast truncates the non-negative product, which is its floor. Only
    # xc = 1 floors to m + 1, which the dtype holds, and as a boundary it is
    # re-levelled to m below
    levels = scaled.astype(np.min_scalar_type(m + 1))
    for i in np.flatnonzero(near):
        levels.flat[i] = thermometer_quantize(Fraction(float(xc.flat[i])), m)
    return levels


def asc_levels(x, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array ASC on the default ladder: levels, fired SAs and clamp flags.

    Entry i equals what `asc_encode(Fraction(x[i]) * vdd, ref_ladder(m, vdd))`
    returns as code count, enabled SA count and clamp flag, for every
    vdd > 0: Fraction(x)*vdd >= (k/(m+1))*vdd iff x >= k/(m+1), so the
    supply cancels exactly. The levels are `unit_levels` of x clipped to
    [0, 1]. SA i > 0 fires iff Y[i-1] resolved high, so a level-k input
    fires 1 + min(k, m-1) SAs; both come in the levels' dtype, which holds
    m + 1.
    """
    if m < 1:
        raise ConversionError("ladder needs m >= 1 taps")
    xc, clamped = _clip_unit(x)
    levels = unit_levels(xc, m)
    fired = np.minimum(levels, m - 1)
    fired += 1
    return levels, fired, clamped
