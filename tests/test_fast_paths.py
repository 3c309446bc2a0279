"""Differential tests: each array fast path against its scalar reference model."""

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmac import (
    ConfigError,
    ConversionError,
    MacConfig,
    MacError,
    PipelineConfig,
    SizeMismatchError,
    conventional_pipeline,
    exact_oracle,
    proposed_pipeline,
)
from scmac import lfsr as lfsr_mod
from scmac import mac as mac_mod
from scmac import pipelines
from scmac._prng import (
    bounded_uint32,
    mix,
    pcg64_lanes,
    splitmix64_array,
    unit_below,
    unit_floats,
    unit_words,
)
from scmac.bitstream import flip_mask, mux_tree_scale
from scmac.config import ExperimentConfig
from scmac.converters import (
    _clip_unit,
    adc_quantize_flagged,
    asc_encode,
    asc_levels,
    ref_ladder,
    unit_levels,
)
from scmac.distributions import Explicit, InputDistribution, Uniform, ZeroPeakedGaussian
from scmac.energy import ActivityLog
from scmac.lfsr import MAXIMAL_TAPS, cycle_length, select_table, state_cycle, state_table
from scmac.mac import ProductCounts, charge_share, decode_voltage, phase1_voltages
from scmac.pipelines import _comparator_thresholds, _flip_row_keys

MS = (1, 3, 7, 14, 15, 16)
VDDS = (1.0, 0.8, 1.3)
# non-shipped maximal tap sets, the second wider than any shipped register
CUSTOM_TAPS = ((15, (15, 4)), (16, (16, 15, 13, 4)))


def _scalar_asc(xs, m, vdd):
    """Per-input (count, enabled SAs, clamped) from the gated SA-chain model."""
    ladder = ref_ladder(m, vdd)
    out = []
    for x in xs:
        code, activity = asc_encode(Fraction(float(x)) * ladder.vdd, ladder)
        out.append((code.count, activity.enabled_sa_count, activity.input_clamped))
    return out


def _assert_asc_matches(xs, m, vdd):
    levels, fired, clamped = asc_levels(np.asarray(xs, dtype=np.float64), m)
    got = list(zip(levels.tolist(), fired.tolist(), clamped.tolist()))
    assert got == _scalar_asc(xs, m, vdd)


def _boundary_points(m):
    xs = [-0.0, -1e-300, -0.5, 1.5, np.nextafter(1.0, 2.0)]
    for i in range(m + 2):
        b = i / (m + 1)
        xs += [b, np.nextafter(b, -1.0), np.nextafter(b, 2.0)]
    return xs


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("vdd", VDDS)
def test_asc_levels_at_every_level_boundary(m, vdd):
    _assert_asc_matches(_boundary_points(m), m, vdd)


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from(MS),
    vdd=st.sampled_from(VDDS),
    xs=st.lists(
        st.floats(-0.5, 1.5, allow_nan=False) | st.sampled_from([-0.0, 0.0, 1.0]),
        min_size=1,
        max_size=40,
    ),
)
def test_asc_levels_match_scalar_asc(m, vdd, xs):
    _assert_asc_matches(xs, m, vdd)


@settings(max_examples=100, deadline=None)
@given(
    m=st.sampled_from(MS),
    k=st.integers(0, 17),
    ulps=st.integers(-3, 3),
)
def test_asc_levels_near_rational_boundaries(m, k, ulps):
    x = k / (m + 1)
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, 2.0 if ulps > 0 else -1.0))
    _assert_asc_matches([x], m, 1.0)


def test_asc_levels_rejects_nan():
    with pytest.raises(ConversionError):
        asc_levels([0.5, float("nan")], 4)


def _thresholds(xs, bits, period, out=None, codes=None):
    """`_comparator_thresholds` of inputs clipped by `_clip_unit`, and their out-of-range flags."""
    clipped, flags = _clip_unit(xs)
    return _comparator_thresholds(clipped, bits, period, out, codes), flags


def _prepared(samples, weights):
    """`row_step`'s inputs from (T, N) samples and weights, prepared as a pipeline draw block."""
    return pipelines._prepare_inputs(np.hstack([samples, weights]))


def _assert_adc_matches(xs, bits):
    """The thresholds at period 2^n - 1, where each equals its code, against the scalar ADC."""
    xs = np.asarray(xs, dtype=np.float64)
    codes, saturated = _thresholds(xs, bits, (1 << bits) - 1)
    want = [adc_quantize_flagged(float(x), bits) for x in xs]
    assert list(zip(codes.tolist(), saturated.tolist())) == want


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(1, 16),
    xs=st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=40),
)
def test_adc_codes_match_scalar_adc(bits, xs):
    _assert_adc_matches(xs, bits)


@pytest.mark.parametrize("bits", (1, 4, 8))
def test_adc_codes_at_code_boundaries(bits):
    xs = [-0.0, -0.25, 1.25]
    for k in range((1 << bits) + 1):
        b = k / (1 << bits)
        xs += [b, np.nextafter(b, -1.0), np.nextafter(b, 2.0)]
    _assert_adc_matches(xs, bits)


def test_adc_codes_widest_supported_width():
    """61 bits at the narrowest register, period 3: code * 3 // (2^61 - 1) of the scalar code."""
    bits, period = 61, 3
    xs = [0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, 1.5]
    cfg = PipelineConfig(
        variant="conventional",
        n_inputs=len(xs),
        binary_bits=bits,
        lfsr_width=2,
        lfsr_taps=(2, 1),
        stream_length=period,
    )
    codes, want_flags = zip(*(adc_quantize_flagged(x, bits) for x in xs))
    want = [c * period // ((1 << bits) - 1) for c in codes]
    got, flags = _thresholds(np.array(xs), bits, period)
    assert got.tolist() == want and flags.tolist() == list(want_flags)
    # and in a run's buffers, whose codes need all of int64
    run = pipelines._ConventionalRun(cfg)
    run.reserve(1, 1)
    out, codes = run.thresholds[0, :1], run.codes[:1]
    got, flags = _thresholds(np.array([xs]), bits, period, out, codes)
    assert got.tolist() == [want] and flags.tolist() == [list(want_flags)]
    assert run.codes.dtype == np.int64
    for bits in (0, 62):
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, binary_bits=bits)


def _threshold_inputs(bits: int) -> list[float]:
    """Code edges k / 2^n (all of them up to 2^10 codes, else a spread), both float
    neighbours of each, 0, 1 and inputs beyond both ends of [0, 1]."""
    top = 1 << bits
    if bits <= 10:
        ks = range(top + 1)
    else:
        spread = np.random.default_rng(bits).integers(0, top, 64).tolist()
        middle, last = range(top // 2 - 2, top // 2 + 2), range(top - 3, top + 1)
        ks = sorted({*range(4), *middle, *last, *spread})
    xs = [0.0, -0.0, 1.0, -5e-324, -0.5, 1.5, 1e308, np.inf, -np.inf]
    for k in ks:
        edge = k / top
        xs += [edge, float(np.nextafter(edge, -1.0)), float(np.nextafter(edge, 2.0))]
    return xs


@pytest.mark.parametrize(
    "bits, width", [(1, 15), (2, 3), (4, 15), (7, 8), (10, 20), (16, 15), (33, 20), (48, 15)]
)
def test_comparator_thresholds_match_adc_codes(bits, width):
    """floor(code * P / (2^n - 1)) of scalar ADC codes, and their flags, in new and run buffers."""
    xs = np.array(_threshold_inputs(bits))
    period = (1 << width) - 1
    codes, want_flags = zip(*(adc_quantize_flagged(x, bits) for x in xs.tolist()))
    want, want_flags = [c * period // ((1 << bits) - 1) for c in codes], list(want_flags)
    got, flags = _thresholds(xs, bits, period)
    assert got.tolist() == want and flags.tolist() == want_flags
    # a run's buffers: the state table's dtype and the narrowest codes that hold 2^n * P
    cfg = PipelineConfig(
        variant="conventional",
        n_inputs=xs.size,
        binary_bits=bits,
        lfsr_width=width,
        lfsr_taps=WIDTH_TAPS[width],
        stream_length=period,
    )
    run = pipelines._ConventionalRun(cfg)
    run.reserve(1, 1)
    out, codes = run.thresholds[0, :1], run.codes[:1]
    got, flags = _thresholds(xs[None, :], bits, period, out, codes)
    assert got is out and got.tolist() == [want] and flags.tolist() == [want_flags]
    assert np.iinfo(run.codes.dtype).min <= -(period << bits)
    assert run.codes.dtype.itemsize <= (8 if bits + width > 31 else 4)
    for bad in ([0.5, np.nan], [np.nan]):
        with pytest.raises(ConversionError):
            _thresholds(np.array(bad), bits, period)
        x = np.zeros((1, xs.size))
        x[0, : len(bad)] = bad
        with pytest.raises(ConversionError):
            _thresholds(x, bits, period, out, codes)


# The shared input prep: one clip of a draw block's samples and weight
# magnitudes feeds the conventional thresholds and the proposed levels.


def _prep_edges(m: int, bits: int) -> list[float]:
    """Every level edge k/(m+1) and code edge k/2^n with both float neighbours,
    signed zeros, 1, both infinities and inputs beyond both ends of [0, 1]."""
    xs = [0.0, -0.0, 1.0, np.inf, -np.inf, -5e-324, -0.5, 1.5, 1e308]
    for den in (m + 1, 1 << bits):
        for k in range(den + 1):
            edge = k / den
            xs += [edge, float(np.nextafter(edge, -1.0)), float(np.nextafter(edge, 2.0))]
    return xs


# m + 1 = 2^n at (1, 1), (7, 3), (15, 4) and (255, 8), where the levels widen
# past uint8; m = 254 is the widest in uint8
@pytest.mark.parametrize(
    "m, bits", [(1, 1), (7, 3), (14, 4), (15, 4), (254, 8), (255, 8), (300, 5)]
)
def test_shared_prep_matches_scalar_converters(m, bits):
    """Levels, thresholds, fired SAs, clamps, saturations and oracles of one prepared block."""
    samples = _prep_edges(m, bits)
    # the edges again, reversed, with every other sign flipped: -0.0 and 0.0 trade places
    weights = [-x if i % 2 else x for i, x in enumerate(reversed(samples))]
    n = len(samples)
    conv_cfg = PipelineConfig(variant="conventional", n_inputs=n, m=m, binary_bits=bits)
    prop_cfg = dataclasses.replace(conv_cfg, variant="proposed")
    unit, positive, outside = _prepared(np.array([samples]), np.array([weights]))
    conv, prop = pipelines._ConventionalRun(conv_cfg), pipelines._ProposedRun(prop_cfg)
    for run in (conv, prop):
        run.reserve(1, 1)
        run.row_step(range(1), unit, positive, outside)

    ladder, top = ref_ladder(m), (1 << bits) - 1
    magnitudes = [abs(w) for w in weights]
    assert positive[0].tolist() == [w >= 0.0 for w in weights]
    # asc_encode takes Fractions, so an infinity is clamped as +-2 is
    finite = [x if math.isfinite(x) else math.copysign(2.0, x) for x in samples + magnitudes]
    asc = [asc_encode(Fraction(x), ladder) for x in finite]
    levels = [code.count for code, _ in asc]
    assert outside[0].tolist() == [activity.input_clamped for _, activity in asc]
    got_levels = unit_levels(unit, m)
    assert got_levels.dtype == np.min_scalar_type(m + 1) and got_levels[0].tolist() == levels
    assert prop.fired == sum(activity.enabled_sa_count for _, activity in asc[:n])
    assert prop.clamped == sum(activity.input_clamped for _, activity in asc[:n])
    products = [min(a, b) for a, b in zip(levels[:n], levels[n:])]
    n_p = sum(p for p, w in zip(products, weights) if w >= 0.0)
    assert (prop.n_p[0, 0], prop.n_n[0, 0]) == (n_p, sum(products) - n_p)
    assert prop.oracle[0] == 2 * n_p - sum(products)

    adc = [adc_quantize_flagged(x, bits) for x in samples + magnitudes]
    thresholds = [code * conv.period // top for code, _ in adc]
    assert conv.thresholds[:, 0].tolist() == [thresholds[:n], thresholds[n:]]
    assert [flag for _, flag in adc] == outside[0].tolist()
    assert conv.saturated == sum(a or b for (_, a), (_, b) in zip(adc[:n], adc[n:]))


@pytest.mark.parametrize("variant", pipelines.VARIANTS)
@pytest.mark.parametrize("side", ("samples", "weights"))
def test_fixed_input_nan_is_refused(variant, side):
    cfg = PipelineConfig(variant=variant, n_inputs=3, trials=2)
    inputs = {"samples": [0.5, 0.25, 1.0], "weights": [-0.5, 0.0, 1.5]}
    inputs[side][1] = float("nan")
    with pytest.raises(ConversionError):
        pipelines._run_pipeline(inputs["samples"], inputs["weights"], cfg)


def _scalar_expected_value(samples, weights, quant: PipelineConfig) -> Fraction:
    """Per-input loop over scalar ADC codes and comparator thresholds.

    The reference the array oracle must equal exactly.
    """
    n_inputs = len(samples)
    period = cycle_length(quant.lfsr_width, quant.lfsr_taps)
    scale = mux_tree_scale(n_inputs)
    levels = scale.bit_length() - 1
    top = (1 << quant.binary_bits) - 1
    flip = Fraction(quant.flip_probability)
    den = period * period * flip.denominator
    leaf_diff = [0] * scale
    for j in range(n_inputs):
        code_s, _ = adc_quantize_flagged(float(samples[j]), quant.binary_bits)
        code_w, _ = adc_quantize_flagged(abs(float(weights[j])), quant.binary_bits)
        num = ((code_s * period) // top) * ((code_w * period) // top)
        num = num * flip.denominator + flip.numerator * (period * period - 2 * num)
        leaf_diff[j] = num if float(weights[j]) >= 0.0 else -num
    one = 1 << (quant.lfsr_width - 1)
    total = 0
    for j in range(scale):
        ones = bin(j).count("1")
        total += one**ones * (period - one) ** (levels - ones) * leaf_diff[j]
    return Fraction(scale * total, period**levels * den)


def _oracle_cfg(n: int, bits: int, register, flip: float) -> PipelineConfig:
    """A one-trial conventional config that the exact oracle reads."""
    return PipelineConfig(
        variant="conventional",
        n_inputs=n,
        binary_bits=bits,
        lfsr_width=register[0],
        lfsr_taps=register[1],
        flip_probability=flip,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 7, 300]),
    flip=st.sampled_from([0.0, 0.02, 0.5]),
    register=st.sampled_from([(15, MAXIMAL_TAPS[15]), (4, MAXIMAL_TAPS[4]), *CUSTOM_TAPS]),
    bits=st.sampled_from([1, 4, 8]),
)
def test_expected_value_matches_scalar_reference(seed, n, flip, register, bits):
    rng = np.random.default_rng(seed)
    # include out-of-range and exact-zero entries, which saturate or tie
    samples = rng.uniform(-0.2, 1.2, n)
    weights = rng.uniform(-1.2, 1.2, n)
    samples[::5] = 0.0
    weights[1::6] = -0.0
    quant = _oracle_cfg(n, bits, register, flip)
    want = _scalar_expected_value(samples, weights, quant)
    assert exact_oracle(samples, weights, quant) == want


@pytest.mark.parametrize("flip", (0.0, 0.02, 0.5))
def test_expected_value_sums_python_ints_past_int64(flip):
    # a 41-bit period makes every threshold product pass 2^63 on its own
    width, n = 41, 7
    period = (1 << width) - 1
    rng = np.random.default_rng(9)
    thr_s = rng.integers(0, period + 1, size=(3, n))
    thr_w = rng.integers(0, period + 1, size=(3, n))
    thr_s[0, 0] = thr_w[0, 0] = period
    positive = rng.uniform(size=(3, n)) < 0.5
    f = Fraction(flip)
    plan = pipelines._OraclePlan(n, width, period)
    sign = np.where(positive, 1, -1)
    products = thr_s.astype(plan.dtype) * thr_w.astype(plan.dtype) * sign
    nums = plan.numerators(plan.group_sums(products), plan.group_sums(sign), f)
    for k in range(3):
        want = _expected_value(thr_s[k], thr_w[k], positive[k], width, period, f)
        assert Fraction(nums[k], plan.den(f)) == want


@pytest.mark.parametrize("n", (1, 7, 300))
def test_expected_value_int64_bound_boundary(n, monkeypatch):
    """Both sides of the N * period^2 bound give the same exact oracle."""
    width, taps = CUSTOM_TAPS[1]
    period = cycle_length(width, taps)
    rng = np.random.default_rng(n)
    samples, weights = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    quant = _oracle_cfg(n, 8, (width, taps), 0.02)
    want = _scalar_expected_value(samples, weights, quant)
    for bound in (n * period**2, n * period**2 + 1):
        monkeypatch.setattr(pipelines, "_INT64_SUM_BOUND", bound)
        assert exact_oracle(samples, weights, quant) == want


@pytest.mark.parametrize("n", (1, 7, 300))
@pytest.mark.parametrize("flip", (0.0, 0.02, 0.5))
def test_conventional_trial_oracle_matches_scalar_reference(n, flip):
    width, taps = CUSTOM_TAPS[1]
    cfg = PipelineConfig(
        variant="conventional",
        n_inputs=n,
        trials=1,
        seed=5,
        flip_probability=flip,
        lfsr_width=width,
        lfsr_taps=taps,
        stream_length=64,
    )
    rng = np.random.default_rng(n)
    samples, weights = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    res = conventional_pipeline(samples, weights, cfg)
    assert res.oracle[0] == float(_scalar_expected_value(samples, weights, cfg))


def _popcount_matmul_sums(thr_s, thr_w, positive, levels: int):
    """S_k and C_k as the oracle summed them before the plan: one 0/1 column per popcount."""
    leaves = np.arange(thr_s.shape[1])
    popcount = np.zeros(leaves.size, dtype=np.int64)
    for level in range(levels):
        popcount += (leaves >> level) & 1
    groups = (popcount[:, None] == np.arange(levels + 1)).astype(np.int64)
    sign = np.where(positive, 1, -1)
    return (thr_s * thr_w * sign) @ groups, sign @ groups, groups.any(axis=0)


# an N that is not a power of two leaves the top popcount group empty
@pytest.mark.parametrize("n", (1, 2, 3, 7, 300, 512, 513))
@pytest.mark.parametrize("dtype", ("int64", "object"))
def test_oracle_plan_group_sums_match_popcount_matmul(n, dtype, monkeypatch):
    if dtype == "object":
        monkeypatch.setattr(pipelines, "_INT64_SUM_BOUND", 1)
    width, period = 15, 2**15 - 1
    rng = np.random.default_rng(n)
    thr_s, thr_w = rng.integers(0, period + 1, size=(2, 6, n))
    positive = rng.uniform(size=(6, n)) < 0.5
    positive[0] = True
    plan = pipelines._OraclePlan(n, width, period)
    assert plan.dtype == (object if dtype == "object" else np.int64)
    sign = np.where(positive, 1, -1)
    got_s = plan.group_sums((thr_s * thr_w).astype(plan.dtype) * sign)
    got_c = plan.group_sums(sign)
    want_s, want_c, present = _popcount_matmul_sums(thr_s, thr_w, positive, plan.levels)
    assert present.all() == (n & (n - 1) == 0)
    assert got_s.tolist() == want_s[:, present].tolist()
    assert got_c.tolist() == want_c[:, present].tolist()


# Per-trial reference workers: the conventional and proposed trials as they
# ran before trials were batched, one generator and one call per trial, with
# the per-input Python-int oracle. The batched workers must equal them.


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


def _trial_flip_row_keys(seed: int, trial: int, n: int) -> np.ndarray:
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
    period = cycle_length(width, taps)
    # int64, as a uint8 state would overflow the select shifts below
    seq = state_table(width, taps)[:period].astype(np.int64)
    length = cfg.stream_length
    n = cfg.n_inputs

    weights = np.asarray(weights, dtype=np.float64)
    positive = weights >= 0.0
    thr_s, sat_s = _thresholds(samples, n_bits, period)
    thr_w, sat_w = _thresholds(np.abs(weights), n_bits, period)
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
        keys = _trial_flip_row_keys(cfg.seed, trial, n)[leaf]
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
        keys = _trial_flip_row_keys(cfg.seed, trial, n)[:, None]
        products ^= unit_floats(keys, np.arange(m)) < cfg.flip_probability
        per_pair = products.sum(axis=1, dtype=np.int64)
    counts = ProductCounts(int(per_pair[positive].sum()), int(per_pair[~positive].sum()))
    mac_cfg = cfg.mac_config
    vp, vn = mac_mod.phase1_voltages(counts, mac_cfg)
    v = mac_mod.charge_share(vp, vn, mac_cfg)
    log.record("mixed_signal_mac_eval", n)
    for phase in ("idle", "accumulate", "share"):
        log.note(f"mac_phase_{phase}")
    log.record("sram_cell_access", (2 * m * n).bit_length())  # assumed output write-back

    decoded = mac_mod.decode_voltage(v, mac_cfg)
    # the quantized oracle reads the same levels: sign * min(level_s, level_w)
    oracle = int(exact[positive].sum()) - int(exact[~positive].sum())
    return float(decoded), float(oracle)


def _per_trial_run(samples, weights, cfg: PipelineConfig):
    """(decoded, oracle, log) of the per-trial loop the batched pipeline replaced."""
    fixed = samples is not None
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
    return decoded, oracle, log


@dataclass(frozen=True)
class _OutOfRange(InputDistribution):
    """Inputs that overshoot both ends of the range, so the ADC saturates and the ASC clamps:
    numpy's `uniform(-0.3, 1.3)` samples and `uniform(-1.3, 1.3)` weights."""

    kind = "out_of_range"

    def fill_row(self, rng, row):
        rng.random(out=row)

    def shape_block(self, block):
        # numpy's uniform(low, high) is low + (high - low) * x
        n = block.shape[1] // 2
        for part, (low, high) in ((block[:, :n], (-0.3, 1.3)), (block[:, n:], (-1.3, 1.3))):
            part *= high - low
            part += low


def _assert_batched_matches_per_trial(samples, weights, cfg):
    run = conventional_pipeline if cfg.variant == "conventional" else proposed_pipeline
    res = run(samples, weights, cfg)
    decoded, oracle, log = _per_trial_run(samples, weights, cfg)
    assert np.array_equal(res.decoded, decoded)
    assert np.array_equal(res.oracle, oracle)
    assert res.activity == log
    return res


def _run(cfg):
    """The run object `_run_pipeline` builds for `cfg`."""
    if cfg.variant == "conventional":
        return pipelines._ConventionalRun(cfg)
    return pipelines._ProposedRun(cfg)


def _width(cfg):
    """The widest per-trial array of `cfg`'s run: (N,), the (L,) leaf index or the (N, m) flips."""
    if cfg.variant == "conventional":
        return max(cfg.n_inputs, cfg.stream_length)
    return cfg.n_inputs * cfg.m if cfg.flip_probability > 0.0 else cfg.n_inputs


def _chunks(*cfgs):
    """Each variant's chunk in `_run_pipeline` of `cfgs`, by the chunk rule written out.

    A chunk takes about `_CHUNK_ELEMENTS` elements of its run's widest
    per-trial array, or as many trials as fit one trial of the widest run,
    up to the trials whose inputs and phase words come to `_CHUNK_ELEMENTS`;
    each is then cut to a multiple of the smallest.
    """
    elements, n = pipelines._CHUNK_ELEMENTS, cfgs[0].n_inputs
    widths = {}
    for cfg in cfgs:
        widths[cfg.variant] = max(widths.get(cfg.variant, 0), _width(cfg))
    # the conventional run draws 2N input phases and one select phase per tree level
    phases = 2 * n + mux_tree_scale(n).bit_length() - 1 if "conventional" in widths else 0
    per_block = elements // (2 * n + -(-phases // 2))
    budget = max(elements, *widths.values())
    chunks = {v: max(1, elements // w, min(budget // w, per_block)) for v, w in widths.items()}
    small = min(chunks.values())
    return {variant: chunk // small * small for variant, chunk in chunks.items()}


def _boundary_counts(*chunks):
    return sorted({t for c in chunks for t in (c - 1, c, c + 1, 2 * c + 1) if t >= 1})


def _trial_counts(cfg):
    return _boundary_counts(_chunks(cfg)[cfg.variant])


@pytest.mark.parametrize("variant", ("conventional", "proposed"))
@pytest.mark.parametrize("n", (1, 7, 300))
@pytest.mark.parametrize("flip", (0.0, 0.02, 1.0))
@pytest.mark.parametrize("fixed", (True, False), ids=("fixed", "drawn"))
def test_batched_workers_match_per_trial_references(variant, n, flip, fixed, monkeypatch):
    # a small chunk budget puts chunk boundaries inside short runs
    monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", 1 << 7)
    width, taps = 15, MAXIMAL_TAPS[15]
    lengths = (1, 15, 8191, cycle_length(width, taps)) if variant == "conventional" else (15,)
    rng = np.random.default_rng(n)
    samples = rng.uniform(-0.1, 1.1, n) if fixed else None
    weights = rng.uniform(-1.1, 1.1, n) if fixed else None
    for length in lengths:
        base = PipelineConfig(
            variant=variant,
            n_inputs=n,
            stream_length=length,
            flip_probability=flip,
            distribution=_OutOfRange(),
            seed=2**63 + 5,
        )
        for trials in _trial_counts(base):
            cfg = dataclasses.replace(base, trials=trials)
            _assert_batched_matches_per_trial(samples, weights, cfg)


@pytest.mark.parametrize("variant", ("conventional", "proposed"))
@pytest.mark.parametrize("flip", (0.0, 0.02))
def test_batched_workers_match_per_trial_at_reference_shape(variant, flip):
    base = PipelineConfig(variant=variant, n_inputs=300, flip_probability=flip, seed=3)
    for trials in _trial_counts(base):
        _assert_batched_matches_per_trial(None, None, dataclasses.replace(base, trials=trials))


# at N=1, trial 0 of this seed draws in-range `_OutOfRange` inputs
SATURATING_SEED = 2


@pytest.mark.parametrize("variant", ("conventional", "proposed"))
def test_first_saturation_after_trial_zero_is_logged(variant):
    cfg = PipelineConfig(
        variant=variant, n_inputs=1, trials=40, seed=SATURATING_SEED, distribution=_OutOfRange()
    )
    s0, w0 = cfg.distribution.draw(np.random.default_rng((cfg.seed, 0)), 1)
    assert 0.0 <= s0[0] <= 1.0 and abs(w0[0]) <= 1.0
    res = _assert_batched_matches_per_trial(None, None, cfg)
    key = "adc_saturation" if variant == "conventional" else "asc_input_clamped"
    assert res.activity.meta[key] > 0


def test_batched_pipelines_omit_zero_saturation_counts():
    for variant in ("conventional", "proposed"):
        cfg = PipelineConfig(variant=variant, n_inputs=7, trials=30, seed=4)
        res = _assert_batched_matches_per_trial(None, None, cfg)
        assert "adc_saturation" not in res.activity.meta
        assert "asc_input_clamped" not in res.activity.meta


# Full-matrix conventional trial: every (input, bit) product, per-row flip
# masks, then the whole MUX tree. The selected-leaf worker must equal it.


def _stream_matrix(width, taps, phases, length, thresholds) -> np.ndarray:
    """(N, length) comparator streams, one row per (phase, threshold) pair."""
    seq, _ = state_cycle(width, taps)
    period = seq.size
    idx = (phases[:, None] + 1 + np.arange(length, dtype=np.int64)[None, :]) % period
    return (seq[idx] <= np.asarray(thresholds, dtype=np.int64)[:, None]).astype(np.uint8)


def _select_matrix(width, taps, phases, length) -> np.ndarray:
    seq, _ = state_cycle(width, taps)
    period = seq.size
    idx = (phases[:, None] + 1 + np.arange(length, dtype=np.int64)[None, :]) % period
    return (seq[idx] & 1).astype(np.uint8)


def _mux_tree_counts(leaves: np.ndarray, selects: np.ndarray) -> int:
    """Ones count of the tree output; leaves is (2^c, L), selects (c, L)."""
    stack = leaves
    for level in range(selects.shape[0]):
        pick = selects[level].astype(bool)[None, :]
        stack = np.where(pick, stack[1::2], stack[0::2])
    return int(stack[0].sum())


def _full_matrix_trial(samples, weights, cfg: PipelineConfig, rng, trial: int, log: ActivityLog):
    n_bits = cfg.binary_bits
    width, taps = cfg.lfsr_width, cfg.lfsr_taps
    period = cycle_length(width, taps)
    length = cfg.stream_length
    n = cfg.n_inputs

    weights = np.asarray(weights, dtype=np.float64)
    positive = weights >= 0.0
    thr_s, sat_s = _thresholds(samples, n_bits, period)
    thr_w, sat_w = _thresholds(np.abs(weights), n_bits, period)
    saturated = np.count_nonzero(sat_s | sat_w)
    if saturated:
        log.note("adc_saturation", saturated)
    log.record("adc_convert", n)

    log.record("sram_cell_access", n * n_bits)
    log.record("sram_cell_access", n * n_bits + n * (n_bits + 1))

    phases_s = rng.integers(0, period, size=n)
    phases_w = rng.integers(0, period, size=n)
    streams_s = _stream_matrix(width, taps, phases_s, length, thr_s)
    streams_w = _stream_matrix(width, taps, phases_w, length, thr_w)
    log.record("bsc_convert", 2 * n)

    products = streams_s & streams_w
    log.record("sc_logic_eval", n)
    if cfg.flip_probability > 0.0:
        for i in range(n):
            products[i] ^= flip_mask(length, cfg.flip_probability, mix(cfg.seed, 0xF11B, trial, i))

    scale = mux_tree_scale(n)
    levels = scale.bit_length() - 1
    log.note("mux_pad_streams", 2 * (scale - n))
    pos_leaves = np.zeros((scale, length), dtype=np.uint8)
    neg_leaves = np.zeros((scale, length), dtype=np.uint8)
    pos_leaves[:n][positive] = products[positive]
    neg_leaves[:n][~positive] = products[~positive]

    if levels:
        sel_phases = rng.integers(0, period, size=levels)
        selects = _select_matrix(width, taps, sel_phases, length)
    else:
        selects = np.zeros((0, length), dtype=np.uint8)
    pos_count = _mux_tree_counts(pos_leaves, selects)
    neg_count = _mux_tree_counts(neg_leaves, selects)
    log.record("sbc_convert", 2)
    log.record("sram_cell_access", 2 * length.bit_length())

    decoded = (pos_count - neg_count) * scale / length
    flip = Fraction(cfg.flip_probability)
    return decoded, float(_expected_value(thr_s, thr_w, positive, width, period, flip))


def _batched_trial(samples, weights, cfg: PipelineConfig, trial: int):
    """(decoded, oracle, log) of one trial through the conventional run's `row_step` and `count`.

    The trial is drawn as the pipeline draws it and counted as a one-trial
    block and chunk at its own row; that row alone is then finished as a
    one-trial run.
    """
    rng = np.random.default_rng((cfg.seed, trial))
    period = cycle_length(cfg.lfsr_width, cfg.lfsr_taps)
    levels = mux_tree_scale(cfg.n_inputs).bit_length() - 1
    phases = [rng.integers(0, period, size=k)[None] for k in (cfg.n_inputs, cfg.n_inputs, levels)]
    rows = np.asarray(samples)[None], np.asarray(weights)[None]
    run = pipelines._ConventionalRun(dataclasses.replace(cfg, trials=trial + 1))
    run.reserve(1, 1)
    block = range(trial, trial + 1)
    run.row_step(block, *_prepared(*rows))
    run.count(slice(0, 1), _flip_row_keys(cfg.seed, block, cfg.n_inputs), *phases)
    # the rows before the trial were never counted
    run.cfg = dataclasses.replace(cfg, trials=1)
    run.decoded, run.s_sums = run.decoded[..., trial:], run.s_sums[trial:]
    if run.c_sums is not None:
        run.c_sums = run.c_sums[trial:]
    run.finish()
    res = run.result(run.cfg)
    return res.decoded[0], res.oracle[0], res.activity


# the full-matrix reference holds int64 (N, L) index matrices: cap N * L
FULL_MATRIX_CELLS = 300 * 8191


@pytest.mark.parametrize(
    "register", [(3, MAXIMAL_TAPS[3]), (4, MAXIMAL_TAPS[4]), (15, MAXIMAL_TAPS[15]), CUSTOM_TAPS[0]]
)
@pytest.mark.parametrize("n", (1, 2, 3, 7, 300))
def test_selected_leaf_trial_matches_full_matrix(register, n):
    width, taps = register
    period = cycle_length(width, taps)
    lengths = sorted({ell for ell in (1, 15, 8191, period) if ell <= period})
    rng = np.random.default_rng(n)
    samples = rng.uniform(-0.1, 1.1, n)
    magnitudes = rng.uniform(0.0, 1.1, n)
    signs = {"positive": 1.0, "negative": -1.0, "mixed": np.where(np.arange(n) % 3, 1.0, -1.0)}
    for length in lengths:
        if n * length > FULL_MATRIX_CELLS:
            continue
        for flip in (0.0, 0.02, 1.0):
            for label, sign in signs.items():
                cfg = PipelineConfig(
                    variant="conventional",
                    n_inputs=n,
                    lfsr_width=width,
                    lfsr_taps=taps,
                    stream_length=length,
                    flip_probability=flip,
                    seed=2**63 + 5,
                )
                weights = sign * magnitudes
                trial = 3
                want_log = ActivityLog()
                decoded, oracle, got_log = _batched_trial(samples, weights, cfg, trial)
                want = _full_matrix_trial(
                    samples, weights, cfg, np.random.default_rng((cfg.seed, trial)), trial, want_log
                )
                case = (length, flip, label)
                assert (decoded, oracle) == want, case
                assert got_log == want_log, case


@pytest.mark.parametrize("seed", (0, 1, 2**63 + 5, 2**64 - 1, 2**64 + 3, 2**130 + 7))
def test_flip_row_keys_match_scalar_mix(seed):
    # trials of one and two 32-bit words, up to the last one a run allows
    for trials in (range(7, 9), range(2**32 - 1, 2**32 + 1), range(2**48 - 3, 2**48)):
        keys = _flip_row_keys(seed, trials, 40)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [[mix(seed, 0xF11B, t, i) for i in range(40)] for t in trials]


def test_unit_floats_broadcast_matches_scalar_calls():
    seeds = np.array([0, 1, 12345, 2**63, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    idx = np.arange(64, dtype=np.uint64)
    want = np.stack([unit_floats(int(s), idx) for s in seeds])
    assert np.array_equal(unit_floats(seeds[:, None], idx), want)
    # one seed per element, as the selected-leaf flip draw uses them
    picks = np.arange(seeds.size * 3) % seeds.size
    pos = np.arange(picks.size, dtype=np.uint64) * np.uint64(7)
    scalar = [unit_floats(int(seeds[k]), pos[i : i + 1])[0] for i, k in enumerate(picks)]
    assert np.array_equal(unit_floats(seeds[picks], pos), scalar)


def test_unit_below_matches_the_float_compare_at_its_boundaries():
    """The integer compare equals `unit_floats(k, t) < f` at f = j * 2^-53 and its float neighbours.

    The j are the 53-bit values of drawn words, so words sit exactly on each bound.
    """
    seeds = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)[:, None]
    idx = np.arange(2048, dtype=np.uint64)
    words, floats = unit_words(seeds, idx), unit_floats(seeds, idx)
    assert np.array_equal((words >> np.uint64(11)) / 2.0**53, floats)
    drawn = (int(w) >> 11 for w in words.ravel()[::61])
    for j in sorted({0, 1, 2, 2**52, 2**53 - 2, 2**53 - 1, *drawn}):
        f = j / 2**53
        for p in (np.nextafter(f, 0.0), f, np.nextafter(f, 1.0)):
            assert np.array_equal(unit_below(words, float(p)), floats < p), (j, p)
    for p in (0.0, 5e-324, 0.02, 0.5, 1.0):
        assert np.array_equal(unit_below(words, p), floats < p), p


@pytest.mark.parametrize("flip", (0.02, 1 / 15, 1.0))
def test_proposed_flip_draw_matches_per_row_flip_mask(flip):
    m, n, trials = 15, 40, 3
    rng = np.random.default_rng(4)
    samples, weights = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    cfg = PipelineConfig(
        variant="proposed", n_inputs=n, m=m, trials=trials, seed=2**64 - 1, flip_probability=flip
    )
    res = proposed_pipeline(samples, weights, cfg)
    exact = np.minimum(asc_levels(samples, m)[0], asc_levels(np.abs(weights), m)[0])
    mac_cfg = cfg.mac_config
    for t in range(trials):
        products = (np.arange(m) < exact[:, None]).astype(np.uint8)
        for i in range(n):
            products[i] ^= flip_mask(m, flip, mix(cfg.seed, 0xF11B, t, i))
        per_pair = products.sum(axis=1)
        counts = ProductCounts(int(per_pair[weights >= 0].sum()), int(per_pair[weights < 0].sum()))
        v = charge_share(*phase1_voltages(counts, mac_cfg), mac_cfg)
        assert res.decoded[t] == float(decode_voltage(v, mac_cfg))


@pytest.mark.parametrize("vdd", VDDS)
def test_proposed_activity_matches_scalar_asc(vdd):
    m, n = 7, 40
    rng = np.random.default_rng(11)
    samples = rng.uniform(-0.3, 1.3, n)
    samples[:3] = [-0.0, 3 / 8, np.nextafter(5 / 8, 0.0)]
    weights = rng.uniform(-1.2, 1.2, n)
    cfg = PipelineConfig(variant="proposed", n_inputs=n, m=m, vdd=vdd, trials=1, seed=2)
    res = proposed_pipeline(samples, weights, cfg)
    scalar = _scalar_asc(samples, m, vdd)
    assert res.activity.counts["sa_fire"] == sum(f for _, f, _ in scalar)
    assert res.activity.meta["sa_disabled"] == sum(m - f for _, f, _ in scalar)
    assert res.activity.meta["asc_conversions"] == n
    assert res.activity.meta["asc_input_clamped"] == sum(c for _, _, c in scalar)
    assert res.decoded[0] == res.oracle[0]


def test_proposed_activity_omits_zero_clamp_count():
    cfg = PipelineConfig(variant="proposed", n_inputs=3, m=4, trials=2, seed=2)
    res = proposed_pipeline([0.1, 0.5, 1.0], [0.5, -0.5, 0.25], cfg)
    assert "asc_input_clamped" not in res.activity.meta


# One draw per comparison: `run_comparison` evaluates both datapaths from the
# same per-trial draws. It must equal two separate single-variant runs.


def _assert_logs_identical(got: ActivityLog, want: ActivityLog):
    # insertion order too: the shared loop must log as single-variant runs do
    assert list(got.counts.items()) == list(want.counts.items())
    assert list(got.meta.items()) == list(want.meta.items())


def _comparison_trial_counts(conv, prop):
    # the boundaries of each run's own chunk and of its chunk in a comparison,
    # where the narrower run may take the wider one's budget and the larger
    # chunk is cut to a multiple of the smaller
    own = [_chunks(cfg)[cfg.variant] for cfg in (conv, prop)]
    return _boundary_counts(*own, *_chunks(conv, prop).values())


@pytest.mark.parametrize("n", (1, 7, 300))
@pytest.mark.parametrize("flip", (0.0, 0.02))
@pytest.mark.parametrize("fixed", (True, False), ids=("fixed", "drawn"))
def test_comparison_matches_separate_pipelines(n, flip, fixed, monkeypatch):
    # a small budget gives the two runs different chunks, so the comparison
    # cuts the larger one
    monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", 1 << 7)
    rng = np.random.default_rng(n + 1)
    samples = rng.uniform(-0.1, 1.1, n) if fixed else None
    weights = rng.uniform(-1.1, 1.1, n) if fixed else None
    for length in (1, 15, 8191):
        shared = dict(n_inputs=n, flip_probability=flip, distribution=_OutOfRange(), seed=2**63 + 5)
        conv = PipelineConfig(variant="conventional", stream_length=length, **shared)
        prop = PipelineConfig(variant="proposed", m=7, vdd=0.8, **shared)
        for trials in _comparison_trial_counts(conv, prop):
            conv_t = dataclasses.replace(conv, trials=trials)
            prop_t = dataclasses.replace(prop, trials=trials)
            both = pipelines.run_comparison(
                conv_t, prop_t, samples=samples, weights=weights, energy_profile="measured"
            )
            for got, want in (
                (both.conventional, conventional_pipeline(samples, weights, conv_t)),
                (both.proposed, proposed_pipeline(samples, weights, prop_t)),
            ):
                case = (length, trials, got.variant)
                assert np.array_equal(got.decoded, want.decoded), case
                assert np.array_equal(got.oracle, want.oracle), case
                _assert_logs_identical(got.activity, want.activity)
                assert (got.variant, got.seed, got.config) == (want.variant, want.seed, want.config)


@pytest.mark.parametrize("flip", (0.0, 0.02))
@pytest.mark.parametrize("length", (1, 15, 8191))
def test_runs_count_whole_aligned_chunks(flip, length, monkeypatch):
    """Each run counts whole chunks in trial order; a comparison may widen them and cuts the larger.

    In a comparison a run takes as many elements per chunk as the wider
    run's one-trial chunk, up to a draw block's worth of trials, if that is
    more than its own budget; the run with the smaller chunk then keeps it,
    and the other run's chunk is the largest multiple of it not above its
    own.
    """
    monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", 1 << 7)
    shared = dict(n_inputs=7, trials=41, flip_probability=flip, seed=3)
    conv = PipelineConfig(variant="conventional", stream_length=length, **shared)
    # with flips, m=5 gives a proposed chunk of 3, which does not divide the
    # conventional chunk of 8 at L=15
    for m in (15, 5):
        prop = PipelineConfig(variant="proposed", m=m, **shared)
        own = {cfg.variant: _chunks(cfg)[cfg.variant] for cfg in (conv, prop)}
        aligned = _chunks(conv, prop)
        for cfgs, chunks in (((conv,), own), ((prop,), own), ((conv, prop), aligned)):
            run = partial(pipelines._run_pipeline, None, None, *cfgs)
            calls = _worker_inputs(monkeypatch, run)[1]
            for cfg in cfgs:
                sizes = [len(trials) for trials, _ in calls[cfg.variant]]
                chunk = chunks[cfg.variant]
                case = (m, len(cfgs), cfg.variant, chunk)
                assert sizes[:-1] == [chunk] * (len(sizes) - 1), case
                assert 1 <= sizes[-1] <= chunk, case
                covered = [t for trials, _ in calls[cfg.variant] for t in trials]
                assert covered == list(range(cfg.trials)), case


def _step_calls(monkeypatch, run):
    """The blocks and chunks of `run()`.

    "keys" maps to the blocks whose flip keys were hashed, "clips" to the
    shapes of the inputs clipped, (variant, "rows") to each run's `row_step`
    blocks and (variant, "count") to its chunks.
    """
    calls = {"keys": [], "clips": []}
    real_keys, real_clip = pipelines._flip_row_keys, pipelines._clip_unit

    def keys_spy(seed, trials, n):
        calls["keys"].append(trials)
        return real_keys(seed, trials, n)

    def clip_spy(x, *buffers):
        calls["clips"].append(np.shape(x))
        return real_clip(x, *buffers)

    with monkeypatch.context() as m:
        m.setattr(pipelines, "_flip_row_keys", keys_spy)
        m.setattr(pipelines, "_clip_unit", clip_spy)
        for cls in (pipelines._ConventionalRun, pipelines._ProposedRun):

            def rows_spy(self, trials, *arrays, _real=cls.row_step):
                calls.setdefault((self.cfg.variant, "rows"), []).append(trials)
                return _real(self, trials, *arrays)

            def count_spy(self, rows, *arrays, _real=cls.count):
                calls.setdefault((self.cfg.variant, "count"), []).append(self.block[rows])
                return _real(self, rows, *arrays)

            m.setattr(cls, "row_step", rows_spy)
            m.setattr(cls, "count", count_spy)
        run()
    return calls


def test_long_stream_sweep_works_its_rows_once_and_counts_proposed_in_one_call(monkeypatch):
    """The sweep family's one 4-trial block: one key hash, one row step each, one proposed count."""
    pairs = [
        tuple(
            PipelineConfig(
                variant=variant, n_inputs=300, trials=4, stream_length=length, flip_probability=flip
            )
            for variant in ("conventional", "proposed")
        )
        for length in (8191, 32767)
        for flip in (0.0, 0.02)
    ]
    calls = _step_calls(monkeypatch, lambda: pipelines.run_comparisons(pairs))
    assert calls["keys"] == [range(4)]
    assert calls["conventional", "rows"] == calls["proposed", "rows"] == [range(4)]
    # a 32767-bit trial fills a conventional chunk
    assert calls["conventional", "count"] == [range(t, t + 1) for t in range(4)]
    assert calls["proposed", "count"] == [range(4)]


def test_reference_shape_clips_each_block_once_for_both_runs(monkeypatch):
    """N=300, 200 trials: eight draw blocks, each one (T, 2N) clip read by both row steps."""
    conv = PipelineConfig(variant="conventional", n_inputs=300, trials=200)
    prop = dataclasses.replace(conv, variant="proposed")
    calls = _step_calls(monkeypatch, lambda: pipelines.run_comparison(conv, prop))
    blocks = calls["conventional", "rows"]
    assert calls["proposed", "rows"] == blocks and len(blocks) == 8
    assert calls["clips"] == [(len(block), 600) for block in blocks]


@pytest.mark.parametrize("flip", (0.0, 0.02))
def test_criterion_6_shape_works_its_rows_once_per_block(flip, monkeypatch):
    """N=4, L=1024: blocks of 624 trials, each worked once and counted in chunks of 8."""
    cfg = PipelineConfig(
        variant="conventional", n_inputs=4, stream_length=1024, flip_probability=flip, trials=1300
    )
    calls = _step_calls(monkeypatch, lambda: conventional_pipeline(None, None, cfg))
    blocks = [range(0, 624), range(624, 1248), range(1248, 1300)]
    assert calls["conventional", "rows"] == blocks
    # the keys are hashed only where a flip reads them
    assert calls["keys"] == (blocks if flip else [])
    chunks = [range(lo, min(lo + 8, 1300)) for lo in range(0, 1300, 8)]
    assert calls["conventional", "count"] == chunks


@dataclass(frozen=True)
class _CountingUniform(Uniform):
    """Uniform draws that tally how often a trial's row is filled."""

    draws: list = dataclasses.field(default_factory=list, compare=False, hash=False)
    kind = "counting_uniform"

    def fill_row(self, rng, row):
        self.draws.append(row.size // 2)
        super().fill_row(rng, row)


def test_comparison_draws_each_trial_once():
    dist = _CountingUniform()
    shared = dict(n_inputs=7, trials=30, seed=3, distribution=dist)
    pipelines.run_comparison(
        PipelineConfig(variant="conventional", **shared), PipelineConfig(variant="proposed", **shared)
    )
    assert len(dist.draws) == 30


@pytest.mark.parametrize(
    "field, conv_value, prop_value",
    [
        ("trials", 3, 4),
        ("output_rate_hz", 10e6, 20e6),
        ("distribution", Uniform(), ZeroPeakedGaussian(0.3)),
        ("flip_probability", 0.0, 0.02),
    ],
)
def test_comparison_rejects_each_mismatched_shared_parameter(field, conv_value, prop_value):
    # seed and n_inputs are covered in test_pipelines
    base = {"n_inputs": 4, field: conv_value}
    conv = PipelineConfig(variant="conventional", **base)
    prop = PipelineConfig(variant="proposed", **{**base, field: prop_value})
    with pytest.raises(ConfigError, match="share"):
        pipelines.run_comparison(conv, prop)


def test_comparison_still_checks_variants():
    conv = PipelineConfig(variant="conventional", n_inputs=4)
    with pytest.raises(ConfigError, match="variant"):
        pipelines.run_comparison(conv, conv)


# One draw per sweep family: `run_comparisons` runs the pairs of many grid
# points from one draw, one conventional run at the longest stream length for
# every length and flip, and one proposed run. Each point must equal its own
# `run_comparison`.

FAMILY_LENGTHS = (1, 15, 1024)
FAMILY_FLIPS = (0.0, 5e-324, 0.02, 0.5, 1.0)


def _family_pairs(distribution, trials=6):
    shared = dict(n_inputs=7, trials=trials, seed=2**63 + 5, distribution=distribution)
    return [
        tuple(
            PipelineConfig(variant=variant, stream_length=length, flip_probability=flip, **shared)
            for variant in ("conventional", "proposed")
        )
        for length in FAMILY_LENGTHS
        for flip in FAMILY_FLIPS
    ]


@pytest.mark.parametrize("profile", ("calibrated", "naive", "measured"))
@pytest.mark.parametrize(
    "distribution", (Uniform(), ZeroPeakedGaussian(0.3)), ids=("uniform", "zpg")
)
def test_run_comparisons_match_per_point_comparisons(profile, distribution, monkeypatch):
    # a small budget puts chunk boundaries inside the runs
    monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", 1 << 7)
    pairs = _family_pairs(distribution)
    family = pipelines.run_comparisons(pairs, energy_profile=profile)
    assert len(family) == len(pairs)
    for (conv, prop), got in zip(pairs, family):
        want = pipelines.run_comparison(conv, prop, energy_profile=profile)
        case = (conv.stream_length, conv.flip_probability)
        assert got.to_json_dict() == want.to_json_dict(), case
        for side in ("conventional", "proposed"):
            _assert_logs_identical(getattr(got, side).activity, getattr(want, side).activity)


def test_run_pipeline_builds_one_run_per_variant():
    cfgs = [cfg for pair in _family_pairs(Uniform(), trials=3) for cfg in pair]
    runs = {"conventional": [], "proposed": []}
    with pytest.MonkeyPatch.context() as m:
        for cls in (pipelines._ConventionalRun, pipelines._ProposedRun):

            def spy(self, *args, _real=cls.__init__):
                runs[args[0].variant].append(self)
                return _real(self, *args)

            m.setattr(cls, "__init__", spy)
        results = pipelines._run_pipeline(None, None, *cfgs)
    (conv,), (prop,) = runs["conventional"], runs["proposed"]
    assert (conv.lengths, conv.flips) == (list(FAMILY_LENGTHS), list(FAMILY_FLIPS))
    assert prop.flips == list(FAMILY_FLIPS)
    assert [(r.variant, r.config) for r in results] == [
        (cfg.variant, cfg.to_json_dict()) for cfg in cfgs
    ]


def test_run_pipeline_and_run_comparisons_of_nothing_are_empty():
    assert pipelines._run_pipeline(None, None) == []
    assert pipelines.run_comparisons([]) == []


def _three_family_pairs():
    """Five pairs from three families, interleaved: (N, m) of (4, 3), (8, 3) and (4, 5)."""
    keys = ("n_inputs", "m", "stream_length", "flip_probability")
    points = [(4, 3, 15, 0.0), (8, 3, 15, 0.02), (4, 5, 7, 0.0), (4, 3, 7, 0.02), (8, 3, 31, 0.0)]
    shared = dict(trials=3, seed=11, distribution=ZeroPeakedGaussian(0.3))
    return [
        tuple(
            PipelineConfig(variant=variant, **dict(zip(keys, point)), **shared)
            for variant in ("conventional", "proposed")
        )
        for point in points
    ]


@pytest.mark.parametrize("profile", ("calibrated", "naive", "measured"))
def test_run_comparisons_runs_each_family_from_one_draw(profile, monkeypatch):
    """Pairs that cannot share a draw run in families, one `_run_pipeline` call each."""
    pairs = _three_family_pairs()
    calls = []
    real = pipelines._run_pipeline

    def spy(samples, weights, *cfgs):
        calls.append(cfgs)
        return real(samples, weights, *cfgs)

    monkeypatch.setattr(pipelines, "_run_pipeline", spy)
    got = pipelines.run_comparisons(pairs, energy_profile=profile)
    # families in the order of their first pair, each with its pairs in order
    assert calls == [(*pairs[0], *pairs[3]), (*pairs[1], *pairs[4]), pairs[2]]
    want = [pipelines.run_comparison(*pair, energy_profile=profile) for pair in pairs]
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


def test_run_comparisons_checks_fixed_inputs_of_every_family_before_drawing(monkeypatch):
    monkeypatch.setattr(pipelines, "_draw_trials", lambda *args: pytest.fail("drew trials"))
    # the first family's N is 4, which the inputs fit; the second's is 8
    with pytest.raises(SizeMismatchError, match="expected 8 samples"):
        pipelines.run_comparisons(_three_family_pairs(), samples=[0.5] * 4, weights=[-0.25] * 4)


@pytest.mark.parametrize(
    "pricing",
    [
        {"fom_steps": 0},
        {"fom_ops": -1},
        {"fom_steps": True},
        {"fom_steps": 2.5},
        {"efficiency_ops": {"x": 0}},
        {"efficiency_ops": {"x": 2.5}},
        {"efficiency_ops": None},
        {"tables": (None, None)},
        {"tables": None},
        {"energy_profile": "bogus"},
    ],
    ids=("steps-0", "ops-neg", "steps-bool", "steps-frac", "eff-0", "eff-frac", "eff-none",
         "tables-nones", "tables-none", "profile"),
)
def test_run_comparisons_checks_pricing_before_drawing(pricing, monkeypatch):
    """Each pricing fault fails before the first draw, as the config refuses it."""
    with pytest.raises(ConfigError) as want:
        ExperimentConfig(**pricing)
    monkeypatch.setattr(pipelines, "_draw_trials", lambda *args: pytest.fail("drew trials"))
    with pytest.raises(ConfigError) as got:
        pipelines.run_comparisons(_three_family_pairs(), **pricing)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "change",
    [
        {"n_inputs": 5},
        {"trials": 4},
        {"seed": 4},
        {"distribution": ZeroPeakedGaussian()},
        # a conventional run reads LFSR phases drawn below its period
        {"lfsr_width": 4, "lfsr_taps": None},
    ],
    ids=lambda change: next(iter(change)),
)
def test_run_pipeline_rejects_configs_that_draw_differently(change):
    base = PipelineConfig(variant="conventional", n_inputs=4, trials=3, seed=3)
    other = dataclasses.replace(base, **change)
    with pytest.raises(ConfigError, match="share"):
        pipelines._run_pipeline(None, None, base, other)


@pytest.mark.parametrize(
    "variant, change, names",
    [
        ("conventional", {"binary_bits": 6}, "binary_bits"),
        ("conventional", {"lfsr_taps": (15, 14, 13, 11)}, "lfsr_taps"),
        ("proposed", {"m": 7}, "m"),
        ("proposed", {"vdd": 0.8}, "vdd"),
        ("proposed", {"m": 7, "vdd": 0.8}, "m, vdd"),
    ],
)
def test_run_pipeline_rejects_configs_of_a_variant_that_count_differently(variant, change, names):
    """Configs of one variant share its run, so only L and the flip may differ."""
    base = PipelineConfig(variant=variant, n_inputs=4, trials=3, seed=3)
    # fields the variant does not read may differ
    other = dataclasses.replace(base, stream_length=7, flip_probability=0.02)
    if variant == "conventional":
        other = dataclasses.replace(other, m=7, vdd=0.8)
    else:
        other = dataclasses.replace(other, binary_bits=6, lfsr_taps=(15, 14, 13, 11))
    assert len(pipelines._run_pipeline(None, None, base, other)) == 2
    with pytest.raises(ConfigError, match=f"{variant} configs run together must share {names}$"):
        pipelines._run_pipeline(None, None, base, dataclasses.replace(base, **change))


# The proposed decode before it ran on arrays: Fraction voltages, one trial at a time.


def _fraction_phase1_voltages(counts: ProductCounts, cfg: MacConfig) -> tuple[float, float]:
    if counts.n_p > cfg.max_count or counts.n_n > cfg.max_count:
        raise MacError(f"counts {counts} exceed m*N = {cfg.max_count}")
    vdd = Fraction(cfg.vdd)
    vp = Fraction(counts.n_p, cfg.caps_per_side) * vdd
    vn = Fraction(cfg.max_count - counts.n_n, cfg.caps_per_side) * vdd
    return float(vp), float(vn)


def _fraction_max_voltage(cfg: MacConfig) -> float:
    return float(Fraction(cfg.max_count, cfg.caps_per_side) * Fraction(cfg.vdd))


def _fraction_decode_voltage(v: float, cfg: MacConfig) -> int:
    tol = 1e-9 * cfg.vdd
    if not (-tol <= v <= _fraction_max_voltage(cfg) + tol):
        raise MacError(f"voltage {v} outside [0, {_fraction_max_voltage(cfg)}]")
    raw = 2.0 * v / cfg.vdd * cfg.caps_per_side - cfg.max_count
    return int(round(raw))


def _per_trial_decode(n_p, n_n, mac_cfg: MacConfig) -> np.ndarray:
    decoded = np.empty(len(n_p), dtype=np.float64)
    for k, counts in enumerate(zip(n_p.tolist(), n_n.tolist())):
        vp, vn = _fraction_phase1_voltages(ProductCounts(*counts), mac_cfg)
        decoded[k] = _fraction_decode_voltage(charge_share(vp, vn, mac_cfg), mac_cfg)
    return decoded


MAC_VDDS = (1.0, 0.8, 1.3, 0.1)


@pytest.mark.parametrize("vdd", MAC_VDDS)
@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 3), (15, 1), (5, 7)])
def test_decode_counts_matches_per_trial_fraction_decode(m, n, vdd):
    cfg = MacConfig(m, n, vdd)
    grid = np.arange(cfg.max_count + 1)
    n_p, n_n = (a.ravel() for a in np.meshgrid(grid, grid))
    got = mac_mod.decode_counts(n_p, n_n, cfg)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_trial_decode(n_p, n_n, cfg))
    assert np.array_equal(got, n_p - n_n)
    # the scalar model prices with the same quotient and agrees too
    for a, b in zip(n_p.tolist(), n_n.tolist()):
        counts = ProductCounts(a, b)
        assert phase1_voltages(counts, cfg) == _fraction_phase1_voltages(counts, cfg)
    assert mac_mod.max_voltage(cfg) == _fraction_max_voltage(cfg)
    half = Fraction(cfg.max_count, 2 * cfg.caps_per_side) * Fraction(cfg.vdd)
    assert mac_mod.baseline_voltage(cfg) == float(half)


def test_decode_counts_keeps_order_and_repeats():
    cfg = MacConfig(15, 300, 1.0)
    rng = np.random.default_rng(6)
    n_p = rng.integers(0, cfg.max_count + 1, 500)
    n_n = rng.integers(0, cfg.max_count + 1, 500)
    n_p[::7] = n_n[::7]
    assert np.array_equal(mac_mod.decode_counts(n_p, n_n, cfg), _per_trial_decode(n_p, n_n, cfg))
    assert mac_mod.decode_counts([], [], cfg).size == 0


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "n_p, n_n",
    [
        ([13], [0]),
        ([0], [13]),
        ([-1], [0]),
        ([0], [-1]),
        ([2, 13], [3, 4]),
        ([1, 2], [1]),
        # m*N - n_n wraps at the int64 ends; the sorted side counts still catch it
        ([_INT64.min], [0]),
        ([_INT64.max], [0]),
        ([0], [_INT64.min]),
        ([0], [_INT64.max]),
    ],
)
def test_decode_counts_rejects_bad_counts(n_p, n_n):
    cfg = MacConfig(3, 4, 0.8)  # m*N = 12
    with pytest.raises(MacError):
        mac_mod.decode_counts(n_p, n_n, cfg)


@settings(max_examples=40, deadline=None)
@given(caps=st.integers(1, 4501), vdd=st.sampled_from(MAC_VDDS))
def test_vdd_share_equals_fraction_for_every_count(caps, vdd):
    want = [float(Fraction(c, caps) * Fraction(vdd)) for c in range(caps + 1)]
    assert [mac_mod._vdd_share(c, caps, vdd) for c in range(caps + 1)] == want


# LFSR tables without a Python step per state


def _walked_cycle(width: int, taps: tuple[int, ...]) -> list[int]:
    mask = lfsr_mod._tap_mask(width, taps)
    seq, state = [1], lfsr_mod._step(1, width, mask)
    while state != 1:
        seq.append(state)
        state = lfsr_mod._step(state, width, mask)
    return seq


@pytest.mark.parametrize(
    "width, taps", [*MAXIMAL_TAPS.items(), CUSTOM_TAPS[0], CUSTOM_TAPS[1], (20, (20, 17)), (4, (4, 2))]
)
def test_state_cycle_equals_stepped_walk(width, taps):
    seq, phase_of = state_cycle(width, taps)
    want = _walked_cycle(width, taps)
    assert seq.dtype == np.int64 and seq.tolist() == want
    expected_phase = np.full(1 << width, -1, dtype=np.int64)
    expected_phase[want] = np.arange(len(want))
    assert np.array_equal(phase_of, expected_phase)
    lsb2 = select_table(width, taps)
    assert lsb2.dtype == np.uint8
    assert lsb2.tolist() == [s & 1 for s in want] * 2


def test_state_cycle_of_non_maximal_taps_keeps_short_period():
    assert cycle_length(4, (4, 2)) == 6
    with pytest.raises(ConfigError, match="period 6"):
        PipelineConfig(variant="conventional", n_inputs=4, lfsr_width=4, lfsr_taps=(4, 2))


def test_state_cycle_without_the_width_tap_raises():
    with pytest.raises(ConversionError):
        state_cycle(4, (3,))


def _selected_inputs(lsb2, sel_phases, length: int, n: int):
    """Bit position t, flat input index and trial row of every real selected bit.

    `_ConventionalRun.selected_inputs` in the buffers of a width-15 run of
    stream length `length` reserved for one chunk of every trial row; the
    row and the bit position come from the flat position.
    """
    n_trials, levels = sel_phases.shape
    cfg = PipelineConfig(variant="conventional", n_inputs=n, stream_length=length, trials=n_trials)
    run = pipelines._ConventionalRun(cfg)
    assert np.array_equal(run.lsb2, lsb2) and run.plan.levels == levels
    run.reserve(n_trials, 1)
    pos, flat = run.selected_inputs(sel_phases)
    rows, t = np.divmod(pos, length)
    return t, flat, rows


def _gathered_selected_inputs(seq, sel_phases, length: int, n: int):
    """The select network as one wrapped gather per level, before the LSB table."""
    n_trials, levels = sel_phases.shape
    t = np.arange(length)
    leaf = np.zeros((n_trials, length), dtype=np.int64)
    for level in range(levels):
        leaf |= (np.take(seq, sel_phases[:, level, None] + 1 + t, mode="wrap") & 1) << level
    real = leaf < n
    leaf += np.arange(0, n_trials * n, n)[:, None]
    return np.broadcast_to(t, real.shape)[real], leaf[real]


# leaf widths on both sides of the uint8 and uint16 boundaries, and tree
# depths on both sides of each byte of levels: 7|8, 8|9, 15|16 and 16|17
@pytest.mark.parametrize(
    "n", (1, 2, 3, 128, 129, 255, 256, 257, 300, 32768, 32769, 65536, 65537)
)
def test_selected_inputs_match_wrapped_gather(n):
    width, taps = 15, MAXIMAL_TAPS[15]
    seq, _ = state_cycle(width, taps)
    levels = mux_tree_scale(n).bit_length() - 1
    rng = np.random.default_rng(n)
    sel_phases = rng.integers(0, seq.size, size=(3, levels))
    # phases at the end of the cycle wrap mid-stream
    sel_phases[0] = seq.size - 1
    for length in (1, 15, seq.size):
        t, flat, rows = _selected_inputs(select_table(width, taps), sel_phases, length, n)
        want = _gathered_selected_inputs(seq, sel_phases, length, n)
        assert all(np.array_equal(g, w) for g, w in zip((t, flat), want, strict=True)), length
        assert np.array_equal(rows, flat // n), length
        assert flat.dtype == np.int64


# The select layer gathered by flat position. The version it replaced, kept
# verbatim: the (T, L) leaf index selected with 2-D boolean masks.


def _masked_selected_inputs(lsb2, sel_phases, length: int, n: int):
    """Bit position and flat input index row * N + j(t) of every real selected bit.

    Tree level l sends slot 2k + sel_l[t] to slot k, so at bit t the tree
    outputs leaf j(t) = sum_l sel_l[t] << l. Leaves j >= N are all-zero
    padding, never flipped, and are dropped. A select stream of phase p is
    the contiguous window lsb2[p + 1 : p + 1 + L] of the doubled LSB table.
    """
    n_trials, levels = sel_phases.shape
    # row p is the window lsb2[p : p + L]; rows stop at size - L, inside the table
    windows = np.lib.stride_tricks.as_strided(
        lsb2, (lsb2.size - length + 1, length), lsb2.strides * 2, writeable=False
    )
    # the narrowest dtype that holds every leaf; cast before shifting, as a
    # uint8 select shifted by 8 or more levels would overflow
    dtype = np.min_scalar_type((1 << levels) - 1)
    leaf = np.zeros((n_trials, length), dtype=dtype)
    for level in range(levels):
        leaf |= windows[sel_phases[:, level] + 1].astype(dtype) << level
    real = leaf < n
    flat = leaf.astype(np.int64)
    flat += np.arange(0, n_trials * n, n)[:, None]
    return np.broadcast_to(np.arange(length), real.shape)[real], flat[real]


# leaf widths on both sides of the uint8 and uint16 boundaries, and tree
# depths on both sides of each byte of levels: 7|8, 8|9, 15|16 and 16|17
@pytest.mark.parametrize(
    "n", (1, 2, 128, 129, 255, 256, 257, 300, 32768, 32769, 65536, 65537)
)
@pytest.mark.parametrize("n_trials", (1, 4))
def test_selected_inputs_match_masked_reference(n, n_trials):
    width, taps = 15, MAXIMAL_TAPS[15]
    lsb2 = select_table(width, taps)
    period = lsb2.size // 2
    levels = mux_tree_scale(n).bit_length() - 1
    rng = np.random.default_rng((n, n_trials))
    sel_phases = rng.integers(0, period, size=(n_trials, levels))
    # phases at the end of the cycle wrap mid-stream
    sel_phases[0] = period - 1
    sel_phases[-1, :1] = period - 2
    for length in (1, 15, 8191, period):
        t, flat, rows = _selected_inputs(lsb2, sel_phases, length, n)
        want_t, want_flat = _masked_selected_inputs(lsb2, sel_phases, length, n)
        assert np.array_equal(t, want_t) and np.array_equal(flat, want_flat), length
        assert np.array_equal(rows, want_flat // n), length
        assert t.dtype == flat.dtype == rows.dtype == np.int64


# A shorter stream is the first L bits of the longest, so the conventional run
# counts every stream length from the selected bits of its longest one.
@pytest.mark.parametrize("n", (1, 7, 300))
@pytest.mark.parametrize("n_trials", (1, 3, 8))
def test_selected_inputs_of_a_shorter_stream_are_a_prefix_of_the_longest(n, n_trials):
    width, taps = 15, MAXIMAL_TAPS[15]
    lsb2 = select_table(width, taps)
    period = lsb2.size // 2
    levels = mux_tree_scale(n).bit_length() - 1
    rng = np.random.default_rng((n, n_trials))
    sel_phases = rng.integers(0, period, size=(n_trials, levels))
    # phases at the end of the cycle wrap mid-stream
    sel_phases[0] = period - 1
    longest = _selected_inputs(lsb2, sel_phases, period, n)
    for length in (1, 2, 15, 1024, 8191, period - 1, period):
        kept = longest[0] < length
        got = _selected_inputs(lsb2, sel_phases, length, n)
        for g, w in zip(got, (a[kept] for a in longest), strict=True):
            assert np.array_equal(g, w), length


# Batched PCG64 lanes: every trial's generator seeded on arrays and its LFSR
# phases mapped from one raw block. The draw loop they replaced, kept
# verbatim: one `np.random.default_rng((seed, t))` per trial.


def _default_rng_run_pipeline(samples, weights, *cfgs: PipelineConfig):
    cfg = cfgs[0]
    fixed = samples is not None or weights is not None
    if fixed:
        if samples is None or weights is None:
            raise SizeMismatchError("provide both samples and weights, or neither")
        samples, weights = pipelines._check_fixed_inputs(samples, weights, cfg)

    n = cfg.n_inputs
    phase_sizes, period = (), 0
    for c in cfgs:
        if c.variant == "conventional":
            period = state_cycle(c.lfsr_width, c.lfsr_taps)[0].size
            # phases_s, phases_w, then the select phases, one per tree level
            phase_sizes = (n, n, mux_tree_scale(n).bit_length() - 1)
    runs = [_run(c) for c in cfgs]
    # each run's chunk is cut to a multiple of the smallest, so every step
    # holds whole chunks of each run
    chunks = _chunks(*cfgs)
    step = max(chunks.values())
    for c, run in zip(cfgs, runs):
        run.reserve(chunks[c.variant], step)
    flipped = max(c.flip_probability for c in cfgs) > 0.0
    for start in range(0, cfg.trials, step):
        stop = min(start + step, cfg.trials)
        arrays = None
        for row, t in enumerate(range(start, stop)):
            # every trial draws from its own generator in a fixed order:
            # inputs (unless fixed), then the conventional LFSR phases
            rng = np.random.default_rng((cfg.seed, t))
            inputs = (samples, weights) if fixed else cfg.distribution.draw(rng, n)
            draws = (*inputs, *(rng.integers(0, period, size=k) for k in phase_sizes))
            # rows go straight into the (T, size) chunk arrays, so no list of
            # per-trial draws is held beside them
            if arrays is None:
                arrays = [np.empty((stop - start, d.size), d.dtype) for d in draws]
            for column, d in zip(arrays, draws):
                column[row] = d
        keys = pipelines._flip_row_keys(cfg.seed, range(start, stop), n) if flipped else None
        prepared = _prepared(*arrays[:2])
        for c, run in zip(cfgs, runs):
            phases = arrays[2:] if c.variant == "conventional" else []
            run.row_step(range(start, stop), *prepared)
            for lo in range(start, stop, run.chunk):
                hi = min(lo + run.chunk, stop)
                rows = slice(lo - start, hi - start)
                run.count(rows, keys, *(a[rows] for a in phases))

    for run in runs:
        run.finish()
    return [run.result(c) for c, run in zip(cfgs, runs)]


LANE_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 3, 2**130 + 7)
# maximal tap sets for every supported width from 3 up
WIDTH_TAPS = {
    3: (3, 2), 4: (4, 3), 5: (5, 3), 6: (6, 5), 7: (7, 6), 8: (8, 6, 5, 4), 9: (9, 5),
    10: (10, 7), 11: (11, 9), 12: (12, 6, 4, 1), 13: (13, 4, 3, 1), 14: (14, 5, 3, 1),
    15: (15, 14), 16: (16, 15, 13, 4), 17: (17, 14), 18: (18, 11), 19: (19, 6, 2, 1),
    20: (20, 17),
}


def _seed_sequence_state(seed: int, trial: int) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence((seed, trial))).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", LANE_SEEDS)
def test_pcg64_lanes_match_seed_sequence(seed):
    # trial indices up to 2^32 - 1 are one entropy word, then two, then three
    for start, stop in ((0, 40), (2**32 - 3, 2**32 + 3), (2**64 - 3, 2**64)):
        states, incs = pcg64_lanes(seed, start, stop)
        want = [_seed_sequence_state(seed, t) for t in range(start, stop)]
        assert list(zip(states, incs)) == want, (start, stop)
    assert pcg64_lanes(seed, 5, 5) == ([], [])


def test_pcg64_lanes_are_default_rng_states():
    states, incs = pcg64_lanes(3, 0, 4)
    for t, lane in enumerate(zip(states, incs)):
        state = np.random.default_rng((3, t)).bit_generator.state["state"]
        assert lane == (state["state"], state["inc"])


def test_bounded_uint32_matches_integers_across_calls():
    # odd sizes start the second and third calls on a high half
    for bound in (7, 131071, (1 << 20) - 1):
        rng = np.random.default_rng(bound)
        raw_rng = np.random.default_rng(bound)
        want = np.concatenate([rng.integers(0, bound, size=k) for k in (7, 7, 3)])
        got, flagged = bounded_uint32(raw_rng.bit_generator.random_raw(9)[None, :], 17, bound)
        assert not flagged[0]
        assert np.array_equal(got[0], want)
        assert got.dtype == want.dtype


def _worker_inputs(monkeypatch, run):
    """The result of `run()` and each run's chunks in it: variant -> [(trials, inputs)].

    A chunk's inputs are its rows of the samples and weights drawn for its
    block, as `_prepare_inputs` took them before the prep, then the phases
    its `count` call took.
    """
    calls = {"conventional": [], "proposed": []}
    drawn = []
    real_prepare = pipelines._prepare_inputs

    def prepare_spy(inputs, *buffers):
        drawn[:] = np.hsplit(np.array(inputs), 2)
        return real_prepare(inputs, *buffers)

    with monkeypatch.context() as m:
        m.setattr(pipelines, "_prepare_inputs", prepare_spy)
        for cls in (pipelines._ConventionalRun, pipelines._ProposedRun):

            def count_spy(self, rows, keys, *arrays, _real=cls.count):
                inputs = [a[rows] for a in drawn] + [np.array(a) for a in arrays]
                calls[self.cfg.variant].append((self.block[rows], inputs))
                return _real(self, rows, keys, *arrays)

            m.setattr(cls, "count", count_spy)
        return run(), calls


def _assert_lanes_match_default_rng(samples, weights, *cfgs, monkeypatch):
    got, got_calls = _worker_inputs(
        monkeypatch, lambda: pipelines._run_pipeline(samples, weights, *cfgs)
    )
    want, want_calls = _worker_inputs(
        monkeypatch, lambda: _default_rng_run_pipeline(samples, weights, *cfgs)
    )
    case = (cfgs[0].lfsr_width, cfgs[0].trials)
    for variant, want_list in want_calls.items():
        assert len(got_calls[variant]) == len(want_list), case
        for (g_trials, g_arrays), (w_trials, w_arrays) in zip(got_calls[variant], want_list):
            assert g_trials == w_trials, case
            for g, w in zip(g_arrays, w_arrays, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w), case
    for g, w in zip(got, want):
        assert np.array_equal(g.decoded, w.decoded), case
        assert np.array_equal(g.oracle, w.oracle), case
        _assert_logs_identical(g.activity, w.activity)


@pytest.mark.parametrize("inputs", ("uniform", "gaussian", "fixed", "explicit"))
@pytest.mark.parametrize("n", (1, 7, 300))
def test_lane_draws_match_default_rng_draws(inputs, n, monkeypatch):
    # a small chunk budget puts chunk and draw-block boundaries inside short
    # runs, and a small lane block puts seeding boundaries inside draw blocks
    monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", 1 << 7)
    monkeypatch.setattr(pipelines, "_LANE_BLOCK", 5)
    rng = np.random.default_rng(n + 2)
    fixed = inputs == "fixed"
    samples = rng.uniform(-0.1, 1.1, n) if fixed else None
    weights = rng.uniform(-1.1, 1.1, n) if fixed else None
    explicit = Explicit(tuple(rng.uniform(0.0, 1.0, n)), tuple(rng.uniform(-1.0, 1.0, n)))
    dist = {"gaussian": ZeroPeakedGaussian(0.3), "explicit": explicit}.get(inputs, Uniform())
    # a row's fill leaves no spare 32-bit half, which would shift the phases drawn after it
    gen = np.random.default_rng(n)
    dist.fill_row(gen, np.empty(2 * n))
    assert gen.bit_generator.state["has_uint32"] == 0
    for width, taps in WIDTH_TAPS.items():
        shared = dict(n_inputs=n, distribution=dist, seed=2**63 + 5)
        conv = PipelineConfig(
            variant="conventional",
            lfsr_width=width,
            lfsr_taps=taps,
            stream_length=min(15, (1 << width) - 1),
            **shared,
        )
        prop = PipelineConfig(variant="proposed", **shared)
        # every boundary count at one width, one count past two blocks at the rest
        counts = _comparison_trial_counts(conv, prop) if width == 15 else [max(_trial_counts(conv))]
        for trials in counts:
            cfgs = [dataclasses.replace(c, trials=trials) for c in (conv, prop)]
            _assert_lanes_match_default_rng(samples, weights, *cfgs, monkeypatch=monkeypatch)
            _assert_lanes_match_default_rng(samples, weights, cfgs[0], monkeypatch=monkeypatch)
            if width == 15:
                _assert_lanes_match_default_rng(samples, weights, cfgs[1], monkeypatch=monkeypatch)


def test_fixed_inputs_without_phases_seed_no_lanes(monkeypatch):
    # a proposed run of fixed inputs draws nothing, so no trial's generator is seeded
    monkeypatch.setattr(pipelines, "pcg64_lanes", None)
    cfg = PipelineConfig(variant="proposed", n_inputs=3, trials=5)
    res = proposed_pipeline([0.1, 0.5, 0.9], [0.5, -0.5, 1.0], cfg)
    assert np.array_equal(res.decoded, np.full(5, res.oracle[0]))


# seed 1, trial 180 at N=300, sigma 0.15 and width 17: one of its phase
# halves falls below numpy's Lemire threshold 2^32 mod (2^17 - 1) = 2^15
REJECTING_SEED, REJECTING_TRIAL = 1, 180


def test_lane_that_hits_lemire_rejection_is_redrawn(monkeypatch):
    n, width, taps = 300, 17, (17, 14)
    period = (1 << width) - 1
    dist = ZeroPeakedGaussian(0.15)
    count = 2 * n + mux_tree_scale(n).bit_length() - 1
    states, incs = pcg64_lanes(REJECTING_SEED, REJECTING_TRIAL, REJECTING_TRIAL + 1)
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": states[0], "inc": incs[0]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    dist.draw(gen, n)
    raw = gen.bit_generator.random_raw(-(-count // 2))[None, :]
    mapped, flagged = bounded_uint32(raw, count, period)
    assert flagged[0]
    rng = np.random.default_rng((REJECTING_SEED, REJECTING_TRIAL))
    dist.draw(rng, n)
    want = rng.integers(0, period, size=count)
    # the rejection moves every later phase, so the plain mapping is wrong here
    assert not np.array_equal(mapped[0], want)

    shared = dict(n_inputs=n, distribution=dist, seed=REJECTING_SEED, trials=REJECTING_TRIAL + 2)
    conv = PipelineConfig(variant="conventional", lfsr_width=width, lfsr_taps=taps, **shared)
    prop = PipelineConfig(variant="proposed", **shared)
    _assert_lanes_match_default_rng(None, None, conv, prop, monkeypatch=monkeypatch)


# The conventional run's `count` against the per-trial references: every
# decode of a family of lengths and flips, and the oracle's popcount-group
# sums S_k and C_k, exactly, over the widths whose doubled state table is
# uint8 (3), uint16 (15) and uint32 (20).

COUNT_FLIPS = (0.0, 0.02, 1.0)


def _assert_count_matches_references(n, width, lengths, trials, chunk=None, block=None):
    """Count `trials` drawn trials and check them.

    The run takes draw blocks of `block` trials, by default one chunk, and
    counts each in chunks of `chunk` trials, by default the pipeline's.
    """
    dist, seed = _OutOfRange(), 2**63 + 5
    cfgs = [
        PipelineConfig(
            variant="conventional",
            n_inputs=n,
            lfsr_width=width,
            lfsr_taps=WIDTH_TAPS[width],
            stream_length=length,
            flip_probability=flip,
            trials=trials,
            seed=seed,
            distribution=dist,
        )
        for length in lengths
        for flip in COUNT_FLIPS
    ]
    run = pipelines._ConventionalRun(*cfgs)
    assert run.seq2.dtype == np.min_scalar_type(run.period)
    chunk = chunk or _chunks(*cfgs)["conventional"]
    assert chunk <= _chunks(*cfgs)["conventional"]
    block = block or chunk
    run.reserve(chunk, block)
    # each trial drawn as the pipeline draws it: inputs, then the phases
    draws = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        inputs = dist.draw(rng, n)
        draws.append((*inputs, *(rng.integers(0, run.period, k) for k in run.phase_sizes)))
    arrays = [np.array(column) for column in zip(*draws)]
    for start in range(0, trials, block):
        trials_in_block = range(start, min(start + block, trials))
        rows = [a[start : start + block] for a in arrays]
        run.row_step(trials_in_block, *_prepared(*rows[:2]))
        keys = _flip_row_keys(seed, trials_in_block, n)
        for lo in range(0, len(trials_in_block), chunk):
            chunk_rows = slice(lo, min(lo + chunk, len(trials_in_block)))
            run.count(chunk_rows, keys, *(a[chunk_rows] for a in rows[2:]))

    # every trial's saturated inputs, as its reference logs them once
    saturation = ActivityLog()
    for trial, (samples, weights, *_) in enumerate(draws):
        for cfg in cfgs:
            rng = np.random.default_rng((seed, trial))
            dist.draw(rng, n)
            log = saturation if cfg is cfgs[0] else ActivityLog()
            want, _ = _conventional_trial(samples, weights, cfg, rng, trial, log)
            i, j = run.flips.index(cfg.flip_probability), run.lengths.index(cfg.stream_length)
            case = (trial, cfg.stream_length, cfg.flip_probability)
            assert run.decoded[i, j, trial] == want, case
    assert run.saturated == saturation.meta.get("adc_saturation", 0)
    thr_s, _ = _thresholds(arrays[0], cfgs[0].binary_bits, run.period)
    thr_w, _ = _thresholds(np.abs(arrays[1]), cfgs[0].binary_bits, run.period)
    want_s, want_c, present = _popcount_matmul_sums(thr_s, thr_w, arrays[1] >= 0.0, run.plan.levels)
    assert run.s_sums.tolist() == want_s[:, present].tolist()
    assert run.c_sums.tolist() == want_c[:, present].tolist()


# N=1 has no tree level, and N=512 fills every leaf of its nine
@pytest.mark.parametrize("n", (1, 4, 300, 512))
@pytest.mark.parametrize(
    "width, lengths", [(3, (1, 2, 5, 7)), (15, (1, 15, 1024, 2**15 - 1)), (20, (1, 15, 2**20 - 1))]
)
def test_count_matches_per_trial_references(n, width, lengths):
    """Chunks of one trial, at lengths from 1 up to the period, alone and as a family."""
    # a million-bit stream alone costs as much as in the family
    families = (lengths,) if width == 20 else ((lengths[0],), (lengths[-1],), lengths)
    for family in families:
        _assert_count_matches_references(n, width, family, trials=2, chunk=1)


@pytest.mark.parametrize(
    "n, length, trials",
    # compare-reference's chunks of 27 trials of 15 bits and criterion 6's of
    # 8 trials of 1024 bits, each run ending on a partial chunk
    [(300, 15, 27 * 2 + 5), (4, 1024, 8 * 2 + 3)],
)
def test_count_matches_per_trial_references_in_many_trial_chunks(n, length, trials):
    _assert_count_matches_references(n, 15, (1, length // 2, length), trials)


@pytest.mark.parametrize(
    "n, lengths, block, trials",
    # the long-stream sweep family's one-trial chunks in its blocks of 4
    # trials, and criterion 6's 8-trial chunks of 1024 bits in its blocks of
    # 624 trials, each run ending on a partial block of a partial chunk
    [(300, (8191, 32767), 4, 4 * 2 + 3), (4, (1024,), 624, 624 + 8 * 2 + 5)],
)
def test_count_matches_per_trial_references_in_many_chunk_blocks(n, lengths, block, trials):
    """A block's row work once, then its chunks' bits: every chunk and block boundary."""
    _assert_count_matches_references(n, 15, lengths, trials, block=block)


# Block draws: every shipped distribution, and the tests' out-of-range one,
# fills one row per trial and shapes the whole block; each row must be what
# numpy's own calls give that trial.


def _numpy_inputs(dist, rng, n):
    """One trial's inputs from numpy's `uniform` and `normal`, with the clips written out."""
    if isinstance(dist, _OutOfRange):
        return rng.uniform(-0.3, 1.3, n), rng.uniform(-1.3, 1.3, n)
    if isinstance(dist, Uniform):
        return rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    samples = np.minimum(np.abs(rng.normal(0.0, dist.sigma, n)), 1.0)
    return samples, np.minimum(np.maximum(rng.normal(0.0, dist.sigma, n), -1.0), 1.0)


def _assert_identical(got, want, case):
    assert got.dtype == want.dtype and np.array_equal(got, want), case
    assert np.array_equal(np.signbit(got), np.signbit(want)), case


# sigma 3.0 clips most inputs, and at 5e-324 every product sigma * x rounds
# to a subnormal or a zero of either sign, which the + 0.0 of numpy's normal
# makes +0.0
@pytest.mark.parametrize(
    "dist",
    (
        Uniform(),
        ZeroPeakedGaussian(0.15),
        ZeroPeakedGaussian(3.0),
        ZeroPeakedGaussian(5e-324),
        _OutOfRange(),
    ),
    ids=repr,
)
@pytest.mark.parametrize("n", (1, 4, 7, 300))
def test_block_draws_match_numpy_draws_per_trial(dist, n, monkeypatch):
    # lane blocks of 5 trials cross the draw blocks of 4
    monkeypatch.setattr(pipelines, "_LANE_BLOCK", 5)
    seed, trials, step = 2**63 + 5, 23, 4
    cfg = PipelineConfig(
        variant="conventional", n_inputs=n, trials=trials, seed=seed, distribution=dist
    )
    run = pipelines._ConventionalRun(cfg)
    # the conventional run's phases follow the inputs; the proposed run draws none
    for phase_sizes in (run.phase_sizes, ()):
        lanes = pipelines._trial_lanes(seed, trials)
        gen = np.random.Generator(np.random.PCG64(0))
        blocks = [
            pipelines._draw_trials(
                cfg, None, range(lo, min(lo + step, trials)), lanes, gen, phase_sizes, run.period
            )
            for lo in range(0, trials, step)
        ]
        # each block's (T, 2N) inputs, then its phases
        block, *phases = (np.concatenate(column) for column in zip(*blocks))
        columns = [*np.hsplit(block, 2), *phases]
        for t in range(trials):
            rng = np.random.default_rng((seed, t))
            inputs = _numpy_inputs(dist, rng, n)
            want = (*inputs, *(rng.integers(0, run.period, k) for k in phase_sizes))
            for got, w in zip(columns, want, strict=True):
                _assert_identical(got[t], w, (t, phase_sizes))
            # the public draw is the same fill and shape, on one row
            drawn = dist.draw(np.random.default_rng((seed, t)), n)
            for got, w in zip(drawn, inputs, strict=True):
                _assert_identical(got, w, t)
