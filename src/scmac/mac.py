"""Mixed-signal stochastic MAC: AND-gate products accumulated on a capacitor array.

The engine evaluates N pairs of m-bit stochastic numbers in two phases.
Phase 1 (S1 on, S2 off): each side of the array voltage-divides its
products across m*N + 1 unit capacitors,

    VP = n_p / (m*N + 1) * vdd
    VN = (m*N - n_n) / (m*N + 1) * vdd

where n_p (n_n) counts the 1-valued AND products over positive-signed
(negative-signed) weight pairs. Phase 2 (S2 on, S1 off) shares charge
between the two sides, landing at

    V = 1/2 * (m*N + (n_p - n_n)) / (m*N + 1) * vdd.

`charge_oracle` re-derives V by explicit per-capacitor charge bookkeeping
and is the independent check on the closed form. Each side voltage is the
exact rational count / (m*N + 1) * vdd, rounded to float once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitstream import Bitstream
from .converters import _thermometer_rows
from .errors import MacError, require_int, require_real, short_int


# The largest m*N whose float decode is exact. Each side voltage, their sum,
# the division by vdd and the product with the m*N + 1 capacitors round once,
# by at most 2^-53 relative; a side voltage or the halved sum below the
# smallest normal float adds at most 2^-1075, which is at most 2^-53 * (m*N + 1)
# counts while vdd is normal. The decoded count then errs by less than
# 13 * 2^-53 * (m*N + 1), which stays under half a count up to this bound.
MAX_COUNT = (1 << 48) - 1


@dataclass(frozen=True)
class MacConfig:
    """Array geometry: m bits per number, n_inputs IN/W pairs, supply vdd."""

    m: int
    n_inputs: int
    vdd: float = 1.0

    def __post_init__(self):
        for name in ("m", "n_inputs"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), MacError))
        object.__setattr__(self, "vdd", require_real("vdd", self.vdd, MacError))
        if self.m < 1:
            raise MacError(f"m must be >= 1, got {short_int(self.m)}")
        if self.n_inputs < 1:
            raise MacError(f"n_inputs must be >= 1, got {short_int(self.n_inputs)}")
        if self.m * self.n_inputs > MAX_COUNT:
            raise MacError(
                f"m * n_inputs = {short_int(self.m * self.n_inputs)} exceeds {MAX_COUNT}, "
                "the largest product count the voltage decode recovers exactly"
            )
        # the decode divides a voltage by vdd, so a subnormal vdd loses that
        # voltage's low bits, and it adds the two side voltages, up to 2 vdd
        if not (sys.float_info.min <= self.vdd <= sys.float_info.max / 2):
            raise MacError(
                f"vdd must be finite and at least {sys.float_info.min} and at most "
                f"{sys.float_info.max / 2}, got {self.vdd}"
            )

    @property
    def max_count(self) -> int:
        """m*N, the largest possible product count per side."""
        return self.m * self.n_inputs

    @property
    def caps_per_side(self) -> int:
        """Unit capacitors per side, including the tail capacitor."""
        return self.max_count + 1


@dataclass(frozen=True)
class SignedStochNumber:
    """m-bit magnitude stream plus a sign bit (1 = positive)."""

    magnitude: Bitstream
    sign: int

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise MacError(f"sign bit must be 0 or 1, got {self.sign}")


class MacInputs:
    """N input streams and N signed weights, stored as packed bit matrices."""

    __slots__ = ("in_bits", "w_bits", "signs")

    def __init__(self, in_bits, w_bits, signs):
        in_arr = np.ascontiguousarray(in_bits, dtype=np.uint8)
        w_arr = np.ascontiguousarray(w_bits, dtype=np.uint8)
        s_arr = np.ascontiguousarray(signs, dtype=np.uint8)
        if in_arr.ndim != 2 or w_arr.shape != in_arr.shape:
            raise MacError("IN and W bit matrices must share shape (N, m)")
        if s_arr.shape != (in_arr.shape[0],):
            raise MacError("need exactly one sign bit per weight")
        if in_arr.size == 0:
            raise MacError("need at least one input pair")
        # an array holds only 0s and 1s iff deleting every 0 and 1 byte leaves nothing
        for name, arr in (("IN", in_arr), ("W", w_arr), ("SIGN", s_arr)):
            if arr.tobytes().translate(None, b"\x00\x01"):
                raise MacError(f"{name} entries must be 0 or 1")
        for arr in (in_arr, w_arr, s_arr):
            arr.setflags(write=False)
        self.in_bits = in_arr
        self.w_bits = w_arr
        self.signs = s_arr

    @classmethod
    def from_streams(
        cls, ins: Sequence[Bitstream], weights: Sequence[SignedStochNumber]
    ) -> "MacInputs":
        if len(ins) != len(weights):
            raise MacError(f"got {len(ins)} inputs but {len(weights)} weights")
        return cls(
            np.stack([s.bits for s in ins]),
            np.stack([w.magnitude.bits for w in weights]),
            np.asarray([w.sign for w in weights]),
        )

    @classmethod
    def from_thermometer_counts(cls, in_counts, w_counts, signs, m: int) -> "MacInputs":
        """Build thermometer-coded inputs directly from their levels.

        Row i holds `ThermometerCode.from_count(counts[i], m).bits`:
        counts[i] leading ones, then zeros.
        """
        return cls(_thermometer_rows(in_counts, m), _thermometer_rows(w_counts, m), list(signs))

    @property
    def n_inputs(self) -> int:
        return int(self.in_bits.shape[0])

    @property
    def m(self) -> int:
        return int(self.in_bits.shape[1])

    def matches(self, cfg: MacConfig) -> None:
        if (self.n_inputs, self.m) != (cfg.n_inputs, cfg.m):
            raise MacError(
                f"inputs are ({self.n_inputs}, {self.m}) but config wants "
                f"({cfg.n_inputs}, {cfg.m})"
            )


@dataclass(frozen=True)
class ProductCounts:
    """1-valued AND products, split by weight sign."""

    n_p: int
    n_n: int

    def __post_init__(self):
        if self.n_p < 0 or self.n_n < 0:
            raise MacError("product counts cannot be negative")

    @property
    def difference(self) -> int:
        return self.n_p - self.n_n


def product_matrix(inputs: MacInputs) -> np.ndarray:
    """Bitwise AND products, shape (N, m)."""
    return inputs.in_bits & inputs.w_bits


def count_products(inputs: MacInputs) -> ProductCounts:
    """n_p and n_n straight from the definition."""
    per_pair = product_matrix(inputs).sum(axis=1, dtype=np.int64)
    n_p = int(per_pair @ inputs.signs)
    return ProductCounts(n_p, int(per_pair.sum()) - n_p)


def _vdd_share(count: int, caps: int, vdd: float) -> float:
    """count / caps * vdd, correctly rounded: float(Fraction(count, caps) * Fraction(vdd)).

    Python's int true division rounds correctly, so the exact rational
    needs no Fraction object.
    """
    num, den = vdd.as_integer_ratio()
    return count * num / (caps * den)


def phase1_voltages(counts: ProductCounts, cfg: MacConfig) -> tuple[float, float]:
    """Per-side voltages after the voltage-dividing phase."""
    if counts.n_p > cfg.max_count or counts.n_n > cfg.max_count:
        raise MacError(f"counts {counts} exceed m*N = {cfg.max_count}")
    vp = _vdd_share(counts.n_p, cfg.caps_per_side, cfg.vdd)
    vn = _vdd_share(cfg.max_count - counts.n_n, cfg.caps_per_side, cfg.vdd)
    return vp, vn


def charge_share(vp: float, vn: float, cfg: MacConfig) -> float:
    """Connect the two equally sized sides; both settle at the mean voltage."""
    return (vp + vn) / 2.0


def mac_evaluate(inputs: MacInputs, cfg: MacConfig) -> tuple[float, ProductCounts]:
    """Full signed MAC: count products, divide voltage, share charge.

    Returns the shared-node voltage and the product counts. One evaluation
    walks idle (EN low), accumulate (S1) and share (S2) once; activity
    accounting is the caller's job.
    """
    inputs.matches(cfg)
    counts = count_products(inputs)
    vp, vn = phase1_voltages(counts, cfg)
    return charge_share(vp, vn, cfg), counts


def baseline_voltage(cfg: MacConfig) -> float:
    """Shared voltage when n_p == n_n (the zero-MAC point)."""
    return _vdd_share(cfg.max_count, 2 * cfg.caps_per_side, cfg.vdd)


def max_voltage(cfg: MacConfig) -> float:
    """Shared voltage at full positive saturation (n_p = m*N, n_n = 0)."""
    return _vdd_share(cfg.max_count, cfg.caps_per_side, cfg.vdd)


def decode_voltage(v: float, cfg: MacConfig) -> int:
    """Invert the charge-share relation back to n_p - n_n.

    Exact for ideal voltages: the pre-rounding quantity is then an integer,
    so ties cannot occur.
    """
    tol = 1e-9 * cfg.vdd
    if not (-tol <= v <= max_voltage(cfg) + tol):
        raise MacError(f"voltage {v} outside [0, {max_voltage(cfg)}]")
    raw = 2.0 * v / cfg.vdd * cfg.caps_per_side - cfg.max_count
    return int(round(raw))


def decode_counts(n_p, n_n, cfg: MacConfig) -> np.ndarray:
    """Decoded n_p - n_n for 1-D arrays of product counts, as an int64 array.

    Equal to `decode_voltage(charge_share(*phase1_voltages(...)))` per
    element: each distinct side count is priced once by the same exact
    quotient, then sharing and the decode run as array operations in the
    scalar order. np.rint rounds half to even, as round() does.
    """
    n_p, n_n = np.asarray(n_p), np.asarray(n_n)
    if n_p.ndim != 1 or n_n.shape != n_p.shape:
        raise MacError(f"count arrays must be 1-D and equal in shape, got {n_p.shape} and {n_n.shape}")
    max_count, caps = cfg.max_count, cfg.caps_per_side
    # np.unique sorts, so its ends bound both n_p and m*N - n_n
    counts, index = np.unique(np.concatenate([n_p, max_count - n_n]), return_inverse=True)
    if counts.size and (counts[0] < 0 or counts[-1] > max_count):
        raise MacError(f"product counts must lie in [0, {max_count}]")
    if counts.dtype != np.int64 and np.any(counts % 1):
        raise MacError("product counts must be whole numbers")
    # with 0 <= c <= m*N, decode_voltage's range check cannot fail: each side is the
    # correctly rounded c * vdd / (m*N + 1), rounding is monotone, so the sides and their
    # halved sum lie in [0, max_voltage], and MacConfig's vdd <= float max / 2 keeps it finite
    side = np.array([_vdd_share(c, caps, cfg.vdd) for c in counts.astype(np.int64).tolist()])
    v = (side[index[: n_p.size]] + side[index[n_p.size :]]) / 2.0
    raw = 2.0 * v / cfg.vdd * caps - max_count
    return np.rint(raw).astype(np.int64)


def charge_oracle(inputs: MacInputs, cfg: MacConfig) -> float:
    """Shared-node voltage from explicit per-capacitor bookkeeping.

    Positive side: a capacitor is driven to vdd where its AND product is 1
    on a positive-signed pair, to 0 otherwise; the tail capacitor sits at
    0. Negative side: driven to 0 where the product is 1 on a
    negative-signed pair, to vdd otherwise; tail again at 0. Phase 2
    connects the two sides of equal unit capacitors, so the shared node
    holds the total charge over both sides' capacitance, in exact
    arithmetic rounded once.
    """
    inputs.matches(cfg)
    products = product_matrix(inputs).ravel()
    pos_pair = np.repeat(inputs.signs.astype(bool), inputs.m)

    # Driven plate levels in units of vdd, one entry per capacitor.
    pos_levels = np.concatenate([(products & pos_pair).astype(np.int64), [0]])
    neg_levels = np.concatenate([1 - (products & ~pos_pair).astype(np.int64), [0]])

    charge = Fraction(int(pos_levels.sum()) + int(neg_levels.sum())) * Fraction(cfg.vdd)
    return float(charge / (2 * cfg.caps_per_side))
