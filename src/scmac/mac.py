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
and is the independent check on the closed form. Voltages are computed as
exact rationals and converted to float once on return.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitstream import Bitstream
from .converters import ThermometerCode
from .errors import MacError


@dataclass(frozen=True)
class MacConfig:
    """Array geometry: m bits per number, n_inputs IN/W pairs, supply vdd."""

    m: int
    n_inputs: int
    vdd: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise MacError(f"m must be >= 1, got {self.m}")
        if self.n_inputs < 1:
            raise MacError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if not (0 < self.vdd < math.inf):
            raise MacError(f"vdd must be positive and finite, got {self.vdd}")

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
        for name, arr in (("IN", in_arr), ("W", w_arr), ("SIGN", s_arr)):
            if arr.max(initial=0) > 1:
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
        """Build thermometer-coded inputs directly from their levels."""
        ins = [ThermometerCode.from_count(c, m).bits for c in in_counts]
        ws = [ThermometerCode.from_count(c, m).bits for c in w_counts]
        return cls(np.asarray(ins), np.asarray(ws), np.asarray(list(signs)))

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


class MacPhase(enum.Enum):
    IDLE = "idle"
    ACCUMULATE = "accumulate"
    SHARE = "share"


# One MAC evaluation walks this sequence exactly once (EN low -> S1 -> S2).
PHASE_SEQUENCE: tuple[MacPhase, ...] = (MacPhase.IDLE, MacPhase.ACCUMULATE, MacPhase.SHARE)


def product_matrix(inputs: MacInputs) -> np.ndarray:
    """Bitwise AND products, shape (N, m)."""
    return inputs.in_bits & inputs.w_bits


def counts_from_products(products: np.ndarray, signs: np.ndarray) -> ProductCounts:
    pos = signs.astype(bool)
    per_pair = products.sum(axis=1, dtype=np.int64)
    return ProductCounts(int(per_pair[pos].sum()), int(per_pair[~pos].sum()))


def count_products(inputs: MacInputs) -> ProductCounts:
    """n_p and n_n straight from the definition."""
    return counts_from_products(product_matrix(inputs), inputs.signs)


def phase1_voltages(counts: ProductCounts, cfg: MacConfig) -> tuple[float, float]:
    """Per-side voltages after the voltage-dividing phase."""
    if counts.n_p > cfg.max_count or counts.n_n > cfg.max_count:
        raise MacError(f"counts {counts} exceed m*N = {cfg.max_count}")
    vdd = Fraction(cfg.vdd)
    vp = Fraction(counts.n_p, cfg.caps_per_side) * vdd
    vn = Fraction(cfg.max_count - counts.n_n, cfg.caps_per_side) * vdd
    return float(vp), float(vn)


def charge_share(vp: float, vn: float, cfg: MacConfig) -> float:
    """Connect the two equally sized sides; both settle at the mean voltage."""
    return (vp + vn) / 2.0


def mac_evaluate(inputs: MacInputs, cfg: MacConfig) -> tuple[float, ProductCounts]:
    """Full signed MAC: count products, divide voltage, share charge.

    Returns the shared-node voltage and the product counts. The phase walk
    for one evaluation is PHASE_SEQUENCE; activity accounting is the
    caller's job.
    """
    inputs.matches(cfg)
    counts = count_products(inputs)
    vp, vn = phase1_voltages(counts, cfg)
    return charge_share(vp, vn, cfg), counts


def baseline_voltage(cfg: MacConfig) -> float:
    """Shared voltage when n_p == n_n (the zero-MAC point)."""
    return float(Fraction(cfg.max_count, 2 * cfg.caps_per_side) * Fraction(cfg.vdd))


def max_voltage(cfg: MacConfig) -> float:
    """Shared voltage at full positive saturation (n_p = m*N, n_n = 0)."""
    return float(Fraction(cfg.max_count, cfg.caps_per_side) * Fraction(cfg.vdd))


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


@dataclass(frozen=True)
class ChargeTrace:
    """Intermediate quantities of one explicit charge-conservation run."""

    vp: float
    vn: float
    v_shared: float
    charge_phase1: float
    charge_shared: float


def charge_oracle(inputs: MacInputs, cfg: MacConfig, cap_scale=None) -> float:
    """Shared-node voltage from explicit per-capacitor bookkeeping."""
    return charge_oracle_trace(inputs, cfg, cap_scale).v_shared


def charge_oracle_trace(inputs: MacInputs, cfg: MacConfig, cap_scale=None) -> ChargeTrace:
    """Simulate every unit capacitor and conserve charge through both phases.

    Positive side: a capacitor is driven to vdd where its AND product is 1
    on a positive-signed pair, to 0 otherwise; the tail capacitor sits at
    0. Negative side: driven to 0 where the product is 1 on a
    negative-signed pair, to vdd otherwise; tail again at 0. Phase 1 node
    voltage is total charge over total capacitance per side; phase 2
    connects the nodes and recomputes from the conserved total charge.

    `cap_scale`, if given, is a pair of per-capacitor size factors (arrays
    of length m*N + 1 per side) for mismatch studies; the default is ideal
    equal unit capacitors, evaluated in exact arithmetic.
    """
    inputs.matches(cfg)
    products = product_matrix(inputs).ravel()
    pos_pair = np.repeat(inputs.signs.astype(bool), inputs.m)

    # Driven plate levels in units of vdd, one entry per capacitor.
    pos_levels = np.concatenate([(products & pos_pair).astype(np.int64), [0]])
    neg_levels = np.concatenate([1 - (products & ~pos_pair).astype(np.int64), [0]])

    if cap_scale is None:
        vdd = Fraction(cfg.vdd)
        cap_side = Fraction(cfg.caps_per_side)
        qp = Fraction(int(pos_levels.sum())) * vdd
        qn = Fraction(int(neg_levels.sum())) * vdd
        vp = qp / cap_side
        vn = qn / cap_side
        v = (qp + qn) / (2 * cap_side)
        return ChargeTrace(
            vp=float(vp),
            vn=float(vn),
            v_shared=float(v),
            charge_phase1=float(qp + qn),
            charge_shared=float(v * 2 * cap_side),
        )

    caps_p = np.asarray(cap_scale[0], dtype=np.float64)
    caps_n = np.asarray(cap_scale[1], dtype=np.float64)
    if caps_p.shape != (cfg.caps_per_side,) or caps_n.shape != (cfg.caps_per_side,):
        raise MacError(f"cap_scale arrays must have length {cfg.caps_per_side}")
    if (caps_p <= 0).any() or (caps_n <= 0).any():
        raise MacError("capacitor scale factors must be positive")
    qp = float((caps_p * pos_levels).sum()) * cfg.vdd
    qn = float((caps_n * neg_levels).sum()) * cfg.vdd
    vp = qp / caps_p.sum()
    vn = qn / caps_n.sum()
    v = (qp + qn) / (caps_p.sum() + caps_n.sum())
    return ChargeTrace(
        vp=vp,
        vn=vn,
        v_shared=v,
        charge_phase1=qp + qn,
        charge_shared=v * (caps_p.sum() + caps_n.sum()),
    )
