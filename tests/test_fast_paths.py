"""Differential tests: each array fast path against its scalar reference model."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmac import (
    ConversionError,
    LfsrStreamQuantizer,
    PipelineConfig,
    conventional_pipeline,
    exact_oracle,
    proposed_pipeline,
)
from scmac.bitstream import mux_tree_scale
from scmac.converters import adc_codes, adc_quantize_flagged, asc_encode, asc_levels, ref_ladder
from scmac.lfsr import MAXIMAL_TAPS, cycle_length

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


def _assert_adc_matches(xs, bits):
    codes, saturated = adc_codes(np.asarray(xs, dtype=np.float64), bits)
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
    _assert_adc_matches([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.5], 62)
    for bits in (0, 63):
        with pytest.raises(ConversionError):
            adc_codes([0.5], bits)


def _scalar_expected_value(samples, weights, quant: LfsrStreamQuantizer) -> Fraction:
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
    quant = LfsrStreamQuantizer(bits, register[0], register[1], flip)
    want = _scalar_expected_value(samples, weights, quant)
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
    quant = LfsrStreamQuantizer(cfg.binary_bits, width, taps, flip)
    assert res.oracle[0] == float(_scalar_expected_value(samples, weights, quant))


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
