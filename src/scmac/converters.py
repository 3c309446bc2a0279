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
from .lfsr import (  # noqa: F401  (re-exported: the LFSR is a converter building block)
    MAXIMAL_TAPS,
    Lfsr,
    cycle_length,
    default_lfsr,
    lfsr_next,
    lfsr_outputs,
    phase_of_state,
    state_cycle,
    threshold_bits,
)


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


def _clip_unit(x) -> tuple[np.ndarray, np.ndarray]:
    """x clipped to [0, 1] as float64, and its out-of-range flags; NaN is rejected."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.minimum(np.maximum(x, 0.0), 1.0)
    outside = xc != x  # NaN passes through the clip, so it is flagged too
    if np.count_nonzero(outside) and np.isnan(x).any():
        raise ConversionError("converter input is NaN")
    return xc, outside


def adc_codes(x, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Array form of `adc_quantize_flagged`: int64 codes and saturation flags.

    Scaling by 2^bits is exact in binary floating point, so truncating the
    clipped, non-negative product gives the same code as the scalar ADC's
    floor for every input. Codes are int64, so at most 62 bits are allowed.
    """
    if not 1 <= bits <= 62:
        raise ConversionError(f"array ADC needs 1 to 62 bits, got {bits}")
    xc, saturated = _clip_unit(x)
    codes = (xc * float(1 << bits)).astype(np.int64)
    return np.minimum(codes, (1 << bits) - 1), saturated


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
    def m(self) -> int:
        return len(self.vrefs)

    @property
    def vref_volts(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.vrefs)


def ref_ladder(m: int, vdd: float = 1.0) -> RefLadder:
    """Equal-unit-capacitor divider ladder: VREF_i = (i+1)/(m+1) * vdd."""
    if m < 1:
        raise ConversionError("ladder needs m >= 1 taps")
    vdd_f = Fraction(vdd)
    return RefLadder(tuple(Fraction(i + 1, m + 1) * vdd_f for i in range(m)), vdd_f)


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
        if not (0 <= count <= m):
            raise ConversionError(f"count {count} outside [0, {m}]")
        return cls((1,) * count + (0,) * (m - count))

    @property
    def m(self) -> int:
        return len(self.bits)

    @property
    def count(self) -> int:
        return sum(self.bits)

    def to_bitstream(self) -> Bitstream:
        return Bitstream(self.bits)


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


def asc_levels(x, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array ASC on the default ladder: levels, fired SAs and clamp flags.

    Entry i equals what `asc_encode(Fraction(x[i]) * vdd, ref_ladder(m, vdd))`
    returns as code count, enabled SA count and clamp flag, for every
    vdd > 0: Fraction(x)*vdd >= (k/(m+1))*vdd iff x >= k/(m+1), so the
    supply cancels exactly. The level is min(floor(clip(x, 0, 1)*(m+1)), m)
    by a float floor, with an exact Fraction fallback within 1e-9 of a
    boundary. SA i > 0 fires iff Y[i-1] resolved high, so a level-k input
    fires 1 + min(k, m-1) SAs.
    """
    if m < 1:
        raise ConversionError("ladder needs m >= 1 taps")
    xc, clamped = _clip_unit(x)
    scaled = xc * (m + 1)
    levels = np.minimum(np.floor(scaled), m).astype(np.int64)
    near = np.abs(scaled - np.rint(scaled)) < _BOUNDARY_TOL * (m + 1)
    for i in np.flatnonzero(near):
        levels.flat[i] = thermometer_quantize(Fraction(float(xc.flat[i])), m)
    return levels, 1 + np.minimum(levels, m - 1), clamped
