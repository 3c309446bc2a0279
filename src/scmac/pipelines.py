"""End-to-end datapaths over synthetic sensor data.

Two variants of the same N-input MAC system:

* conventional: ADC -> binary SRAM -> LFSR-comparator stream conversion ->
  AND products -> positive/negative MUX accumulation trees -> ones
  counters. Stochastic, unbiased, with variance shrinking as 1/L.
* proposed: thermometer ASC -> digital SRAM -> mixed-signal capacitor MAC
  -> voltage decode. Deterministic coding, so the decoded result equals
  the exact quantized oracle.

Signed values use sign-magnitude in both variants; the conventional MUX
array is split into a positive and a negative tree whose counts are
subtracted, mirroring the n_p/n_n split of the capacitor array.

Every trial is reproducible from (config seed, trial index). Activity is
logged per event with bit-level SRAM counting; energy pricing happens in
`run_comparison` against a configurable profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import mac as mac_mod
from ._prng import mix, splitmix64_array, unit_floats
from .bitstream import mux_tree_scale
from .converters import adc_codes, asc_levels, thermometer_quantize
from .distributions import InputDistribution, Uniform
from .energy import ActivityLog, EnergyReport
from .errors import ConfigError, SizeMismatchError
from .lfsr import MAXIMAL_TAPS, cycle_length, state_cycle
from .mac import MacConfig, ProductCounts

VARIANTS = ("conventional", "proposed")

# `state_cycle` walks the whole 2^w - 1 cycle in Python and keeps a 2^w
# phase table: about 1.4 s and 60 MB at width 20, doubling per extra bit
MAX_LFSR_WIDTH = 20


def _maximal_period(width: int, taps: tuple[int, ...]) -> int:
    """Period of a maximal-length (width, taps) LFSR; ConfigError otherwise.

    The comparator mapping and the conventional oracle both assume the
    cycle visits every state 1..2^width - 1: a shorter cycle decodes a
    different expectation than the oracle computes.
    """
    if width > MAX_LFSR_WIDTH:
        raise ConfigError(f"lfsr_width {width} exceeds the supported maximum {MAX_LFSR_WIDTH}")
    if width < 2 or not taps or any(t < 1 or t > width for t in taps) or width not in taps:
        raise ConfigError(
            f"lfsr_taps {list(taps)} must lie in 1..{width} and include the width {width}"
        )
    period = cycle_length(width, taps)
    if period != (1 << width) - 1:
        raise ConfigError(
            f"lfsr_taps {list(taps)} are not maximal for width {width}: "
            f"period {period}, not {(1 << width) - 1}"
        )
    return period


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one datapath variant.

    `m` is the stochastic word width of the proposed coding, `binary_bits`
    the conventional ADC/BSC precision, `stream_length` the conventional
    SC-logic bitstream length (any L up to the LFSR period; the comparator
    threshold is rescaled so the per-bit one-probability stays exact).
    """

    variant: str
    n_inputs: int
    m: int = 15
    vdd: float = 1.0
    binary_bits: int = 4
    stream_length: int = 15
    lfsr_width: int = 15
    lfsr_taps: tuple[int, ...] | None = None
    output_rate_hz: float = 10e6
    distribution: InputDistribution = field(default_factory=Uniform)
    flip_probability: float = 0.0
    trials: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n_inputs < 1 or self.m < 1 or self.binary_bits < 1:
            raise ConfigError("n_inputs, m and binary_bits must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (0 < self.output_rate_hz < math.inf):
            raise ConfigError(f"output rate must be positive and finite, got {self.output_rate_hz}")
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ConfigError("flip_probability must lie in [0, 1]")
        if not (0 < self.vdd < math.inf):
            raise ConfigError(f"vdd must be positive and finite, got {self.vdd}")
        taps = self.lfsr_taps
        if taps is None:
            if self.lfsr_width not in MAXIMAL_TAPS:
                raise ConfigError(
                    f"no shipped taps for lfsr_width {self.lfsr_width}; "
                    f"pick one of {sorted(MAXIMAL_TAPS)} or set lfsr_taps"
                )
            taps = MAXIMAL_TAPS[self.lfsr_width]
        object.__setattr__(self, "lfsr_taps", tuple(taps))
        period = _maximal_period(self.lfsr_width, self.lfsr_taps)
        if self.stream_length < 1 or self.stream_length > period:
            raise ConfigError(
                f"stream_length must lie in [1, {period}] for a width-"
                f"{self.lfsr_width} LFSR, got {self.stream_length}"
            )

    @property
    def mac_config(self) -> MacConfig:
        return MacConfig(self.m, self.n_inputs, self.vdd)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_inputs": self.n_inputs,
            "m": self.m,
            "vdd": self.vdd,
            "binary_bits": self.binary_bits,
            "stream_length": self.stream_length,
            "lfsr_width": self.lfsr_width,
            "lfsr_taps": list(self.lfsr_taps),
            "output_rate_hz": self.output_rate_hz,
            "input_distribution": self.distribution.to_json_dict(),
            "flip_probability": self.flip_probability,
            "trials": self.trials,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermometerQuantizer:
    """Oracle spec for the proposed coding: AND of thermometer codes counts min."""

    m: int


@dataclass(frozen=True)
class LfsrStreamQuantizer:
    """Oracle spec for the conventional coding: exact expected decoded value.

    Covers the whole stochastic path: floor-scaled comparator thresholds,
    AND products of independently phased streams, per-level MUX selects
    (LFSR LSB, so P(1) = 2^(w-1)/(2^w - 1)), optional bit flips on the
    product streams, and the 2^ceil(log2 N) tree rescale.
    """

    binary_bits: int
    lfsr_width: int
    lfsr_taps: tuple[int, ...]
    flip_probability: float = 0.0


def _comparator_thresholds(x, binary_bits: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    # floor-scale the n-bit ADC codes onto the LFSR range; the full-period
    # ones count is exactly this threshold
    top = (1 << binary_bits) - 1
    if top * period >= 1 << 63:
        raise ConfigError(
            f"binary_bits {binary_bits} is too wide for a period-{period} LFSR: "
            "comparator thresholds would overflow int64"
        )
    codes, saturated = adc_codes(x, binary_bits)
    return (codes * period) // top, saturated


@lru_cache(maxsize=None)
def _mux_leaf_weight_numerators(levels: int, one_num: int, period: int) -> tuple[int, ...]:
    # weight of leaf j over common denominator period^levels; the select
    # bit at level l picks the high branch with probability one_num/period
    zero_num = period - one_num
    out = []
    for j in range(1 << levels):
        ones = bin(j).count("1")
        out.append(one_num**ones * zero_num ** (levels - ones))
    return tuple(out)


def _expected_value(thr_s, thr_w, positive, width: int, period: int, flip: Fraction) -> Fraction:
    """Exact expected conventional decode from the comparator thresholds.

    Multiplies and accumulates in Python ints: a threshold product reaches
    period^2, and the flip denominator (2^58 for p = 0.02) times the leaf
    weights overflows any fixed-width integer.
    """
    scale = mux_tree_scale(thr_s.size)
    levels = scale.bit_length() - 1
    # product-bit one-probability over a common integer denominator
    full = period * period
    den = full * flip.denominator
    # the MUX selects are LFSR LSBs: 2^(w-1) of the period's states are odd
    w_nums = _mux_leaf_weight_numerators(levels, 1 << (width - 1), period)
    total = 0
    for w, a, b, pos in zip(w_nums, thr_s.tolist(), thr_w.tolist(), positive.tolist()):
        # flips turn p into p(1-f) + (1-p)f, still over denominator `den`
        num = a * b * flip.denominator + flip.numerator * (full - 2 * a * b)
        total += w * num if pos else -w * num
    return Fraction(scale * total, period**levels * den)


def _conventional_expected_value(samples, weights, quant: LfsrStreamQuantizer) -> Fraction:
    period = _maximal_period(quant.lfsr_width, quant.lfsr_taps)
    weights = np.asarray(weights, dtype=np.float64)
    thr_s, _ = _comparator_thresholds(samples, quant.binary_bits, period)
    thr_w, _ = _comparator_thresholds(np.abs(weights), quant.binary_bits, period)
    return _expected_value(
        thr_s, thr_w, weights >= 0.0, quant.lfsr_width, period, Fraction(quant.flip_probability)
    )


def exact_oracle(samples, weights, quantizer):
    """Exact reference value for a quantized signed dot product.

    ThermometerQuantizer: integer sum of sign * min(level_s, level_w),
    because the AND of two thermometer codes has min(count_a, count_b)
    ones. LfsrStreamQuantizer: the exact expected decoded value of the
    conventional stochastic path, as a Fraction.
    """
    if len(samples) != len(weights):
        raise SizeMismatchError(f"{len(samples)} samples vs {len(weights)} weights")
    if isinstance(quantizer, ThermometerQuantizer):
        total = 0
        for s, w in zip(samples, weights):
            a = thermometer_quantize(Fraction(float(s)), quantizer.m)
            b = thermometer_quantize(Fraction(abs(float(w))), quantizer.m)
            total += min(a, b) if float(w) >= 0.0 else -min(a, b)
        return total
    if isinstance(quantizer, LfsrStreamQuantizer):
        return _conventional_expected_value(samples, weights, quantizer)
    raise ConfigError(f"unknown quantizer spec {quantizer!r}")


# ---------------------------------------------------------------------------
# Trial workers
# ---------------------------------------------------------------------------


def _flip_row_keys(seed: int, trial: int, n: int) -> np.ndarray:
    """Flip-mask seeds of one trial's input rows: mix(seed, 0xF11B, trial, i) for i < n."""
    acc = np.uint64(mix(seed, 0xF11B, trial))
    return splitmix64_array(acc ^ np.arange(n, dtype=np.uint64))


def _conventional_trial(samples, weights, cfg: PipelineConfig, rng, trial: int, log: ActivityLog):
    """One conventional output, evaluating only the leaf the MUX tree selects.

    Tree level l sends slot 2k + sel_l[t] to slot k, so at bit t the output
    is leaf j(t) = sum_l sel_l[t] << l. Each bit is one product bit
    S_j[t] & W_j[t] (flipped by its keyed draw), or 0 when j(t) is a padding
    leaf; the per-trial work is O(N + L * levels), never N * L.
    """
    n_bits = cfg.binary_bits
    width, taps = cfg.lfsr_width, cfg.lfsr_taps
    seq, _ = state_cycle(width, taps)
    period = seq.size
    length = cfg.stream_length
    n = cfg.n_inputs

    weights = np.asarray(weights, dtype=np.float64)
    positive = weights >= 0.0
    thr_s, sat_s = _comparator_thresholds(samples, n_bits, period)
    thr_w, sat_w = _comparator_thresholds(np.abs(weights), n_bits, period)
    saturated = np.count_nonzero(sat_s | sat_w)
    if saturated:
        log.note("adc_saturation", saturated)
    log.record("adc_convert", n)  # sensor samples only; weights are preloaded

    # binary store: write fresh samples, read samples + weights (+1 sign bit)
    log.record("sram_cell_access", n * n_bits)
    log.record("sram_cell_access", n * n_bits + n * (n_bits + 1))

    phases_s = rng.integers(0, period, size=n)
    phases_w = rng.integers(0, period, size=n)
    log.record("bsc_convert", 2 * n)
    log.record("sc_logic_eval", n)

    scale = mux_tree_scale(n)
    levels = scale.bit_length() - 1
    log.note("mux_pad_streams", 2 * (scale - n))

    # one select network feeds both trees, as a single MUX array would
    t = np.arange(length, dtype=np.int64)
    leaf = np.zeros(length, dtype=np.int64)
    if levels:
        sel_phases = rng.integers(0, period, size=levels)
        for level, phase in enumerate(sel_phases.tolist()):
            leaf |= (seq[(phase + 1 + t) % period] & 1) << level
    real = leaf < n  # padding leaves are all-zero and never flipped
    t, leaf = t[real], leaf[real]
    bits = (seq[(phases_s[leaf] + 1 + t) % period] <= thr_s[leaf]) & (
        seq[(phases_w[leaf] + 1 + t) % period] <= thr_w[leaf]
    )
    if cfg.flip_probability > 0.0:
        keys = _flip_row_keys(cfg.seed, trial, n)[leaf]
        bits ^= unit_floats(keys, t) < cfg.flip_probability
    pos = positive[leaf]
    pos_count = np.count_nonzero(bits & pos)
    neg_count = np.count_nonzero(bits & ~pos)
    log.record("sbc_convert", 2)
    log.record("sram_cell_access", 2 * length.bit_length())  # assumed output write-back

    decoded = (pos_count - neg_count) * scale / length
    flip = Fraction(cfg.flip_probability)
    return decoded, float(_expected_value(thr_s, thr_w, positive, width, period, flip))


def _proposed_trial(samples, weights, cfg: PipelineConfig, rng, trial: int, log: ActivityLog):
    m = cfg.m
    n = cfg.n_inputs

    weights = np.asarray(weights, dtype=np.float64)
    positive = weights >= 0.0
    in_levels, fired, clamped = asc_levels(samples, m)
    w_levels, _, _ = asc_levels(np.abs(weights), m)
    # gated pricing: only fired SAs draw energy; per-conversion and
    # disabled tallies stay in metadata so nothing is double-priced
    fired_total = int(fired.sum())
    log.record("sa_fire", fired_total)
    log.note("asc_conversions", n)
    log.note("sa_disabled", n * m - fired_total)
    n_clamped = np.count_nonzero(clamped)
    if n_clamped:
        log.note("asc_input_clamped", n_clamped)

    # stochastic store: write fresh sample codes, read samples + weights (+ sign)
    log.record("sram_cell_access", n * m)
    log.record("sram_cell_access", n * m + n * (m + 1))

    # the AND of two thermometer codes has min(count_a, count_b) leading ones
    exact = np.minimum(in_levels, w_levels)
    per_pair = exact
    if cfg.flip_probability > 0.0:
        products = np.arange(m) < exact[:, None]
        keys = _flip_row_keys(cfg.seed, trial, n)[:, None]
        products ^= unit_floats(keys, np.arange(m)) < cfg.flip_probability
        per_pair = products.sum(axis=1, dtype=np.int64)
    counts = ProductCounts(int(per_pair[positive].sum()), int(per_pair[~positive].sum()))
    mac_cfg = cfg.mac_config
    vp, vn = mac_mod.phase1_voltages(counts, mac_cfg)
    v = mac_mod.charge_share(vp, vn, mac_cfg)
    log.record("mixed_signal_mac_eval", n)
    for phase in mac_mod.PHASE_SEQUENCE:
        log.note(f"mac_phase_{phase.value}")
    log.record("sram_cell_access", (2 * m * n).bit_length())  # assumed output write-back

    decoded = mac_mod.decode_voltage(v, mac_cfg)
    # the quantized oracle reads the same levels: sign * min(level_s, level_w)
    oracle = int(exact[positive].sum()) - int(exact[~positive].sum())
    return float(decoded), float(oracle)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """Per-trial decodes and oracles, activity, and optional energy pricing."""

    variant: str
    config: dict
    seed: int
    decoded: np.ndarray
    oracle: np.ndarray
    activity: ActivityLog
    energy: EnergyReport | None = None

    @property
    def errors(self) -> np.ndarray:
        return self.decoded - self.oracle

    @property
    def trials(self) -> int:
        return int(self.decoded.size)

    @property
    def max_abs_error(self) -> float:
        return float(np.abs(self.errors).max())

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean(self.errors**2)))

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    def statistics(self) -> dict[str, float]:
        return {
            "max_abs_error": self.max_abs_error,
            "rmse": self.rmse,
            "mean_error": self.mean_error,
        }

    def trial_rows(self):
        for t in range(self.trials):
            yield {
                "trial": t,
                "decoded": float(self.decoded[t]),
                "oracle": float(self.oracle[t]),
                "error": float(self.decoded[t] - self.oracle[t]),
            }

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "config": self.config,
            "seed": self.seed,
            "trials": self.trials,
            "statistics": self.statistics(),
            "decoded": [float(x) for x in self.decoded],
            "oracle": [float(x) for x in self.oracle],
            "activity": {"counts": dict(self.activity.counts), "meta": dict(self.activity.meta)},
            "energy": self.energy.to_json_dict() if self.energy else None,
        }


def _check_fixed_inputs(samples, weights, cfg: PipelineConfig):
    samples = np.asarray(samples, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if samples.shape != (cfg.n_inputs,) or weights.shape != (cfg.n_inputs,):
        raise SizeMismatchError(
            f"expected {cfg.n_inputs} samples and weights, got "
            f"{samples.shape} and {weights.shape}"
        )
    return samples, weights


def _run_pipeline(samples, weights, cfg: PipelineConfig) -> ExperimentResult:
    fixed = samples is not None or weights is not None
    if fixed:
        if samples is None or weights is None:
            raise SizeMismatchError("provide both samples and weights, or neither")
        samples, weights = _check_fixed_inputs(samples, weights, cfg)

    worker = _conventional_trial if cfg.variant == "conventional" else _proposed_trial
    log = ActivityLog()
    decoded = np.empty(cfg.trials, dtype=np.float64)
    oracle = np.empty(cfg.trials, dtype=np.float64)
    for t in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, t))
        if fixed:
            s_t, w_t = samples, weights
        else:
            s_t, w_t = cfg.distribution.draw(rng, cfg.n_inputs)
        decoded[t], oracle[t] = worker(s_t, w_t, cfg, rng, t, log)

    return ExperimentResult(
        variant=cfg.variant,
        config=cfg.to_json_dict(),
        seed=cfg.seed,
        decoded=decoded,
        oracle=oracle,
        activity=log,
    )


def conventional_pipeline(samples, weights, cfg: PipelineConfig) -> ExperimentResult:
    """Run the conventional datapath; pass samples=weights=None to draw per trial."""
    if cfg.variant != "conventional":
        raise ConfigError(f"config variant is {cfg.variant!r}")
    return _run_pipeline(samples, weights, cfg)


def proposed_pipeline(samples, weights, cfg: PipelineConfig) -> ExperimentResult:
    """Run the proposed datapath; pass samples=weights=None to draw per trial."""
    if cfg.variant != "proposed":
        raise ConfigError(f"config variant is {cfg.variant!r}")
    return _run_pipeline(samples, weights, cfg)


@dataclass
class ComparisonResult:
    """Both variants on identical inputs, plus the energy comparison."""

    conventional: ExperimentResult
    proposed: ExperimentResult
    reduction_percent: float
    energy_profile: str

    def to_json_dict(self) -> dict:
        return {
            "energy_profile": self.energy_profile,
            "reduction_percent": self.reduction_percent,
            "conventional": self.conventional.to_json_dict(),
            "proposed": self.proposed.to_json_dict(),
        }


def _shared_parameters(cfg: PipelineConfig) -> tuple:
    return (
        cfg.n_inputs,
        cfg.trials,
        cfg.seed,
        cfg.output_rate_hz,
        cfg.distribution,
        cfg.flip_probability,
    )


def run_comparison(
    conv_cfg: PipelineConfig,
    prop_cfg: PipelineConfig,
    *,
    tables=None,
    energy_profile: str = "calibrated",
    efficiency_ops: dict[str, int] | None = None,
    fom_steps: int = 2395,
    fom_ops: int = 1,
    samples=None,
    weights=None,
) -> ComparisonResult:
    """Run both pipelines on identical inputs and price their energy.

    `energy_profile` selects the activity counts used for the headline
    comparison: "calibrated" (back-solved reference-design counts),
    "naive" (one event per module action), or "measured" (the pipelines'
    own logs, per-bit SRAM). The default op-count conventions report both
    the back-solved 150-op figure and the structural 2N-1 figure.
    """
    from .energy import accumulate, calibrated_activity, default_tables, naive_activity
    from .energy import reduction_percent as _reduction

    if _shared_parameters(conv_cfg) != _shared_parameters(prop_cfg):
        raise ConfigError(
            "comparison requires both variants to share n_inputs, trials, seed, "
            "rate, distribution and flip probability"
        )
    if energy_profile not in ("calibrated", "naive", "measured"):
        raise ConfigError(f"unknown energy profile {energy_profile!r}")

    conv_table, prop_table = tables if tables is not None else default_tables()
    conv_res = conventional_pipeline(samples, weights, conv_cfg)
    prop_res = proposed_pipeline(samples, weights, prop_cfg)

    if efficiency_ops is None:
        efficiency_ops = {"back_solved": 150, "structural_2n_minus_1": 2 * conv_cfg.n_inputs - 1}

    if energy_profile == "calibrated":
        conv_log, prop_log = calibrated_activity()
        outputs = (1, 1)
    elif energy_profile == "naive":
        conv_log, prop_log = naive_activity(conv_cfg.n_inputs)
        outputs = (1, 1)
    else:
        conv_log, prop_log = conv_res.activity, prop_res.activity
        outputs = (conv_cfg.trials, prop_cfg.trials)

    common = dict(efficiency_ops=efficiency_ops, fom_steps=fom_steps, fom_ops=fom_ops)
    conv_res.energy = accumulate(
        conv_log, conv_table, outputs=outputs[0], rate_hz=conv_cfg.output_rate_hz, **common
    )
    prop_res.energy = accumulate(
        prop_log, prop_table, outputs=outputs[1], rate_hz=prop_cfg.output_rate_hz, **common
    )
    red = _reduction(conv_res.energy, prop_res.energy)
    prop_res.energy.reduction_vs_baseline_percent = red
    return ComparisonResult(conv_res, prop_res, red, energy_profile)
