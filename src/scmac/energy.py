"""Activity-based energy accounting.

Total energy is the dot product of an activity log (event counts) with an
energy table (femtojoules per event). The shipped tables carry 28nm
reference unit energies for both datapath variants; two shipped activity
profiles turn them into headline numbers:

* naive profile: one event per module-level action in a single output
  cycle (one per conversion, one per MAC lane, one per SRAM word access).
  Its reduction figure is reported as-is.
* calibrated profile: counts back-solved so the default tables reproduce
  the reference design's reported totals (0.91 pJ/output and an 82.1%
  reduction for the 15-bit, 300-input configuration). This is a
  calibration artifact, not measured activity, and is labeled as such
  wherever it is printed.

Pipeline runs additionally produce their own measured logs (bit-level SRAM
counting); those are reported alongside, never silently merged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

from .converters import asc_levels
from .errors import ConfigError, EnergyModelError, require_int, require_real

FEMTO = 1e-15

@dataclass(frozen=True)
class EnergyTable:
    """Unit energies in femtojoules per event."""

    sram_cell_access: float = 0.0
    adc_convert: float = 0.0
    bsc_convert: float = 0.0
    sbc_convert: float = 0.0
    sc_logic_eval: float = 0.0
    asc_convert: float = 0.0
    mixed_signal_mac_eval: float = 0.0
    sa_fire: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            name = f"unit energy {f.name}"
            value = require_real(name, getattr(self, f.name), EnergyModelError)
            if not (0 <= value < math.inf):
                raise EnergyModelError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, f.name, value)

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Event vocabulary: activity logs share the table's fields as their keys, in
# field order, which is the row order of the energy reports.
EVENT_KEYS: tuple[str, ...] = tuple(f.name for f in fields(EnergyTable))


# 28nm reference unit energies. The converter keys follow the structures:
# bsc_convert is the LFSR+comparator unit (binary -> stochastic),
# sbc_convert the counter unit (stochastic -> binary). sa_fire defaults to
# the 15-bit ASC energy spread over its 15 sense amplifiers, so a
# fully-enabled conversion costs exactly asc_convert.
CONVENTIONAL_TABLE = EnergyTable(
    sram_cell_access=28.00,
    adc_convert=2150.0,
    bsc_convert=141.61,
    sbc_convert=185.54,
    sc_logic_eval=20.26,
)
PROPOSED_TABLE = EnergyTable(
    sram_cell_access=28.00,
    asc_convert=16.20,
    mixed_signal_mac_eval=11.86,
    sa_fire=16.20 / 15,
)


def default_tables() -> tuple[EnergyTable, EnergyTable]:
    """(conventional, proposed) reference tables."""
    return CONVENTIONAL_TABLE, PROPOSED_TABLE


class ActivityLog:
    """Non-decreasing event counters plus free-form metadata counters.

    Energy-relevant events are restricted to EVENT_KEYS so a log can always
    be priced against a table; metadata (disabled SA counts, saturation
    flags, phase walks) lives in `meta` and never reaches the dot product.
    """

    __slots__ = ("counts", "meta")

    def __init__(self, counts: Mapping[str, int] | None = None, meta=None):
        self.counts: dict[str, int] = {}
        self.meta: dict[str, int] = dict(meta or {})
        for k, v in (counts or {}).items():
            self.record(k, v)

    def record(self, key: str, count: int = 1) -> None:
        if key not in EVENT_KEYS:
            raise EnergyModelError(f"unknown event key {key!r}; expected one of {EVENT_KEYS}")
        count = int(count)
        if count < 0:
            raise EnergyModelError("event counts never decrease")
        if count:
            self.counts[key] = self.counts.get(key, 0) + count

    def note(self, key: str, count: int = 1) -> None:
        self.meta[key] = self.meta.get(key, 0) + int(count)

    def merged(self, other: "ActivityLog") -> "ActivityLog":
        out = ActivityLog(self.counts, self.meta)
        for k, v in other.counts.items():
            out.record(k, v)
        for k, v in other.meta.items():
            out.note(k, v)
        return out

    __add__ = merged

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityLog):
            return NotImplemented
        return self.counts == other.counts and self.meta == other.meta

    def __repr__(self) -> str:
        return f"ActivityLog({self.counts!r}, meta={self.meta!r})"


@dataclass
class EnergyReport:
    """Per-category energies plus the derived rate/efficiency figures.

    `categories_fj` holds the energy accumulated over `outputs` output
    cycles; everything user-facing is normalized per output.
    """

    categories_fj: dict[str, float]
    outputs: int = 1
    rate_hz: float | None = None
    efficiency_ops: dict[str, int] = field(default_factory=dict)
    fom_steps: int | None = None
    fom_ops: int | None = None
    reduction_vs_baseline_percent: float | None = None

    @property
    def total_fj(self) -> float:
        return sum(self.categories_fj.values())

    @property
    def per_output_fj(self) -> float:
        return self.total_fj / self.outputs

    @property
    def per_output_pj(self) -> float:
        return self.per_output_fj / 1000.0

    @property
    def power_uw(self) -> float | None:
        if self.rate_hz is None:
            return None
        # fJ * Hz = 1e-15 W; express in microwatts via a single division
        return self.per_output_fj * self.rate_hz / 1e9

    def efficiency_tops_per_watt(self) -> dict[str, float]:
        energy_j = self.per_output_fj * FEMTO
        return {
            label: efficiency(ops, energy_j) * 1e-12
            for label, ops in self.efficiency_ops.items()
        }

    @property
    def fom_fj_per_step(self) -> float | None:
        if self.fom_steps is None or self.fom_ops is None:
            return None
        return fom(self.per_output_fj * FEMTO, self.fom_steps, self.fom_ops) / FEMTO

    def to_json_dict(self) -> dict:
        return {
            "categories_fj": dict(self.categories_fj),
            "outputs": self.outputs,
            "total_fj": self.total_fj,
            "per_output_fj": self.per_output_fj,
            "per_output_pj": self.per_output_pj,
            "rate_hz": self.rate_hz,
            "power_uw": self.power_uw,
            "efficiency_ops": dict(self.efficiency_ops),
            "efficiency_tops_per_watt": self.efficiency_tops_per_watt(),
            "fom_steps": self.fom_steps,
            "fom_ops": self.fom_ops,
            "fom_fj_per_step": self.fom_fj_per_step,
            "reduction_vs_baseline_percent": self.reduction_vs_baseline_percent,
        }


def accumulate(log: ActivityLog, table: EnergyTable, **report_kwargs) -> EnergyReport:
    """Price an activity log against a table: per-category count x unit energy."""
    units = table.as_dict()
    unknown = set(log.counts) - set(units)
    if unknown:
        raise EnergyModelError(f"log has events with no table entry: {sorted(unknown)}")
    cats = {k: log.counts[k] * units[k] for k in EVENT_KEYS if k in log.counts}
    report = EnergyReport(categories_fj=cats, **report_kwargs)
    # finite unit energies can still overflow the total or the power drawn;
    # the total bounds every category and the per-output figures
    for name, value in (("total", report.total_fj), ("power", report.power_uw or 0.0)):
        if not math.isfinite(value):
            raise EnergyModelError(f"energy {name} overflows to {value}")
    return report


def efficiency(ops_per_output: int, energy_per_output_j: float) -> float:
    """Operations per second per watt; the output rate cancels."""
    if ops_per_output <= 0:
        raise EnergyModelError("op count must be positive")
    if energy_per_output_j <= 0:
        raise EnergyModelError("energy per output must be positive")
    ops_per_joule = ops_per_output / energy_per_output_j
    if not math.isfinite(ops_per_joule):
        raise EnergyModelError(
            f"efficiency overflows: {ops_per_output} ops per {energy_per_output_j} J"
        )
    return ops_per_joule


def fom(energy_per_output_j: float, steps: int, ops: int) -> float:
    """Energy per output quantization step, normalized by elementary op count."""
    if steps <= 0 or ops <= 0:
        raise EnergyModelError("steps and ops must be positive")
    return energy_per_output_j / (steps * ops)


def reduction_percent(baseline: EnergyReport, candidate: EnergyReport) -> float:
    """100 * (1 - candidate/baseline), on per-output totals."""
    if baseline.per_output_fj <= 0:
        raise EnergyModelError("baseline energy must be positive")
    percent = 100.0 * (1.0 - candidate.per_output_fj / baseline.per_output_fj)
    if not math.isfinite(percent):
        raise EnergyModelError("candidate energy overflows the reduction against the baseline")
    return percent


# ---------------------------------------------------------------------------
# Shipped activity profiles
# ---------------------------------------------------------------------------

# the activity profiles a comparison can price: the two shipped ones, or the
# pipelines' own measured logs
ENERGY_PROFILES = ("calibrated", "naive", "measured")

# Back-solved counts per output for the 15-bit, 300-input reference
# configuration. The conventional counts admit a structural reading (one
# 4-bit word in SRAM, one sample + one weight conversion each way, two
# accumulation trees counted, one MAC); the proposed counts are pure
# calibration chosen so the defaults price to 909.8 fJ/output. No
# straightforward event count reproduces the reported totals, hence the
# explicit calibration label.
CALIBRATED_CONVENTIONAL_COUNTS: dict[str, int] = {
    "sram_cell_access": 4,
    "adc_convert": 2,
    "bsc_convert": 2,
    "sbc_convert": 2,
    "sc_logic_eval": 1,
}
CALIBRATED_PROPOSED_COUNTS: dict[str, int] = {
    "sram_cell_access": 14,
    "asc_convert": 10,
    "mixed_signal_mac_eval": 30,
}


def calibrated_activity() -> tuple[ActivityLog, ActivityLog]:
    """The calibrated per-output profile (see module docstring; a calibration)."""
    return (
        ActivityLog(CALIBRATED_CONVENTIONAL_COUNTS),
        ActivityLog(CALIBRATED_PROPOSED_COUNTS),
    )


def naive_activity(n_inputs: int) -> tuple[ActivityLog, ActivityLog]:
    """One event per module action in one output cycle of an N-input MAC.

    Samples are freshly converted and stored each cycle; weights are
    already resident (converted offline) but are read every cycle. SRAM is
    counted per word access here; the per-bit refinement lives in the
    pipeline logs.
    """
    if n_inputs < 1:
        raise EnergyModelError("n_inputs must be positive")
    n = n_inputs
    conventional = ActivityLog(
        {
            "adc_convert": n,  # sample conversions
            "sram_cell_access": 3 * n,  # write samples, read samples + weights
            "bsc_convert": 2 * n,  # regenerate both operand streams
            "sc_logic_eval": n,  # one AND/MUX lane per pair
            "sbc_convert": 2,  # positive and negative tree counters
        }
    )
    proposed = ActivityLog(
        {
            "asc_convert": n,
            "sram_cell_access": 3 * n,
            "mixed_signal_mac_eval": n,  # one capacitor lane per pair
        }
    )
    return conventional, proposed


@dataclass(frozen=True)
class Pricing:
    """How a comparison prices its (conventional, proposed) pair, and the checks of each field.

    `energy_profile` selects the activity counts used for the headline
    comparison: "calibrated" (back-solved reference-design counts),
    "naive" (one event per module action), or "measured" (the pipelines'
    own logs, per-bit SRAM). `efficiency_ops` maps labels to op counts,
    and {} stands for the back-solved 150-op figure; the structural 2N-1
    count is always added, in place if a label of that name is given.
    """

    tables: tuple[EnergyTable, EnergyTable] = field(default_factory=default_tables)
    energy_profile: str = "calibrated"
    efficiency_ops: dict[str, int] = field(default_factory=dict)
    fom_steps: int = 2395
    fom_ops: int = 1

    def __post_init__(self):
        if self.energy_profile not in ENERGY_PROFILES:
            raise ConfigError(f"unknown energy_profile {self.energy_profile!r}")
        tables = self.tables
        if not (isinstance(tables, tuple) and len(tables) == 2
                and all(isinstance(t, EnergyTable) for t in tables)):
            raise ConfigError(f"tables must be two EnergyTables, got {tables!r}")
        if not isinstance(self.efficiency_ops, Mapping):
            raise ConfigError(f"efficiency_ops must be a mapping, got {self.efficiency_ops!r}")
        # counts are kept as Python ints, as the reports echo them
        for name in ("fom_steps", "fom_ops"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), ConfigError))
        if self.fom_steps < 1 or self.fom_ops < 1:
            raise ConfigError("fom_steps and fom_ops must be positive")
        # the energy model divides by these counts as floats
        counts = {}
        for name, ops in self.efficiency_ops.items():
            counts[name] = ops = require_int(f"efficiency_ops.{name}", ops, ConfigError)
            if ops < 1:
                raise ConfigError(f"efficiency_ops.{name} must be positive")
            if ops > sys.float_info.max:
                raise ConfigError(f"efficiency_ops.{name} must be at most {sys.float_info.max:.6e}")
        object.__setattr__(self, "efficiency_ops", counts)
        if self.fom_steps * self.fom_ops > sys.float_info.max:
            raise ConfigError(f"fom_steps * fom_ops must be at most {sys.float_info.max:.6e}")

    def price(self, logs, run) -> tuple[EnergyReport, EnergyReport]:
        """The (conventional, proposed) reports of two runs of `run`'s N, trials and output
        rate, whose own logs are `logs`; the proposed report carries the reduction."""
        if self.energy_profile == "calibrated":
            logs, outputs = calibrated_activity(), 1
        elif self.energy_profile == "naive":
            logs, outputs = naive_activity(run.n_inputs), 1
        else:
            outputs = run.trials
        labels = self.efficiency_ops or {"back_solved": 150}
        ops = {**labels, "structural_2n_minus_1": 2 * run.n_inputs - 1}
        priced = dict(outputs=outputs, rate_hz=run.output_rate_hz, efficiency_ops=ops,
                      fom_steps=self.fom_steps, fom_ops=self.fom_ops)
        conventional, proposed = (accumulate(log, table, **priced) for log, table in zip(logs, self.tables))
        proposed.reduction_vs_baseline_percent = reduction_percent(conventional, proposed)
        return conventional, proposed


# ---------------------------------------------------------------------------
# ASC gating statistics
# ---------------------------------------------------------------------------


def expected_enabled_sas(m: int, survival: Callable[[float], float]) -> float:
    """Closed-form chain-gating average: 1 + sum_i P(x >= i/(m+1)).

    `survival(a)` is P(input magnitude >= a) with the input normalized to
    full scale; SA i (i >= 1) fires exactly when the input clears reference
    i-1 at i/(m+1) of the supply.
    """
    if m < 1:
        raise EnergyModelError("m must be >= 1")
    return 1.0 + sum(survival(i / (m + 1)) for i in range(1, m))


def brute_force_enabled_average(m: int, xs) -> float:
    """Average fired-SA count over explicit inputs (an array or a sequence of
    floats), via the array converter."""
    _, fired, _ = asc_levels(xs, m)
    if fired.size == 0:
        raise EnergyModelError("need at least one sample")
    return int(fired.sum()) / fired.size


def gating_energy_saving(m: int, expected_enabled: float) -> float:
    """Fraction of ASC energy saved vs firing all m SAs every conversion."""
    return 1.0 - expected_enabled / m


def uniform_survival(a: float) -> float:
    """P(X >= a) for X uniform on [0, 1]."""
    return min(max(1.0 - a, 0.0), 1.0)


def zero_peaked_survival(sigma: float) -> Callable[[float], float]:
    """P(|X| >= a) for X ~ N(0, sigma), magnitudes clipped to [0, 1]."""

    def survival(a: float) -> float:
        if a <= 0.0:
            return 1.0
        if a > 1.0:
            return 0.0
        return 1.0 - math.erf(a / (sigma * math.sqrt(2.0)))

    return survival
