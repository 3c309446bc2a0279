"""LFSR, BSC/SBC, ADC, reference ladder, and thermometer ASC."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmac import (
    Bitstream,
    ConfigError,
    ConversionError,
    Lfsr,
    MacInputs,
    PipelineConfig,
    RefLadder,
    ThermometerCode,
    adc_quantize,
    adc_quantize_flagged,
    asc_encode,
    bsc_encode,
    default_lfsr,
    lfsr_next,
    ref_ladder,
    sbc_decode,
    thermometer_quantize,
)
from scmac.converters import AscActivity, asc_levels
from scmac.lfsr import (
    cycle_length,
    lfsr_outputs,
    phase_of_state,
    select_bits,
    select_table,
    state_cycle,
    state_table,
    threshold_bits,
)


def test_lfsr_4bit_visits_all_states():
    l = Lfsr(4, (4, 3), 0b1000)
    seen = set()
    cur = l
    for _ in range(15):
        cur, out = lfsr_next(cur)
        seen.add(out)
    assert seen == set(range(1, 16))
    assert cur.state == l.state  # back home after a full period


def test_lfsr_3bit_period_7():
    outs = lfsr_outputs(Lfsr(3, (3, 2), 1), 7)
    assert sorted(outs) == list(range(1, 8))


def test_lfsr_rejects_zero_state():
    with pytest.raises(ConversionError):
        Lfsr(4, (4, 3), 0)
    with pytest.raises(ConversionError):
        Lfsr(4, (4, 3), 16)


def test_lfsr_rejects_bad_taps():
    with pytest.raises(ConversionError):
        Lfsr(4, (3, 2), 1)  # must include the width
    with pytest.raises(ConversionError):
        Lfsr(4, (5, 4), 1)


# (21, 19) is maximal, so only the table bound stops these: at the full
# 2^21 entries each builder would trace tens of MB
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: state_table(21, (21, 19)), id="state_table"),
        pytest.param(lambda: select_table(21, (21, 19)), id="select_table"),
        pytest.param(lambda: cycle_length(21, (21, 19)), id="cycle_length"),
        pytest.param(lambda: state_cycle(21, (21, 19)), id="state_cycle"),
        pytest.param(lambda: phase_of_state(21, (21, 19), 1), id="phase_of_state"),
        pytest.param(lambda: threshold_bits(21, (21, 19), 0, 8, 3), id="threshold_bits"),
        pytest.param(lambda: select_bits(21, (21, 19), 0, 8), id="select_bits"),
        pytest.param(lambda: bsc_encode(3, Lfsr(21, (21, 19), 1)), id="bsc_encode"),
    ],
)
def test_table_builders_refuse_a_register_past_the_width_bound(build):
    tracemalloc.start()
    try:
        with pytest.raises(ConversionError, match="lfsr_width 21 exceeds the supported maximum 20"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scalar_register_steps_past_the_table_bound():
    reg, out = lfsr_next(Lfsr(32, (32, 22, 2, 1), 1))
    assert out == 0b11 and lfsr_next(reg)[1] == 0b110


@pytest.mark.parametrize("width, taps", [(4, (3, 2)), (4, (5, 4)), (4, ()), (1, (1,))])
def test_register_and_config_refuse_bad_taps_alike(width, taps):
    with pytest.raises(ConversionError, match="include the width") as reg:
        Lfsr(width, taps, 1)
    with pytest.raises(ConfigError) as cfg:
        PipelineConfig(variant="conventional", n_inputs=4, lfsr_width=width, lfsr_taps=taps)
    assert str(cfg.value) == str(reg.value)


# taps None takes the shipped set, which 4.0 == 4 would find
@pytest.mark.parametrize(
    "width, taps, message",
    [
        pytest.param(4, (4, 3.7), "lfsr_taps must be an integer, got 3.7", id="float_tap"),
        pytest.param(4, (4, True), "lfsr_taps must be an integer, got True", id="bool_tap"),
        pytest.param(4.0, (4, 3), "lfsr_width must be an integer, got 4.0", id="width"),
        pytest.param(4.0, None, "lfsr_width must be an integer, got 4.0", id="shipped_width"),
    ],
)
def test_register_refuses_non_integer_width_and_taps(width, taps, message):
    with pytest.raises(ConversionError) as exc:
        Lfsr(width, taps, 1)
    assert str(exc.value) == message


def test_register_accepts_numpy_integers():
    assert Lfsr(np.int64(4), (np.int64(4), np.uint8(3)), 1).taps == (4, 3)


def test_default_register_and_config_miss_shipped_taps_alike():
    with pytest.raises(ConversionError, match="no shipped taps") as reg:
        default_lfsr(5)
    with pytest.raises(ConfigError) as cfg:
        PipelineConfig(variant="conventional", n_inputs=4, lfsr_width=5)
    assert str(cfg.value) == str(reg.value)


def test_bsc_zero_and_full_scale():
    l = default_lfsr(4)
    assert bsc_encode(0, l) == Bitstream.zeros(15)
    assert bsc_encode(15, l) == Bitstream.ones(15)


def test_bsc_code_8_has_8_ones():
    assert bsc_encode(8, default_lfsr(4)).ones_count() == 8


@pytest.mark.parametrize("k", range(16))
def test_bsc_ones_count_exhaustive(k):
    assert bsc_encode(k, default_lfsr(4)).ones_count() == k


def test_bsc_out_of_range():
    with pytest.raises(ConversionError):
        bsc_encode(16, default_lfsr(4))


def test_sbc_examples():
    assert sbc_decode(Bitstream.from_string("01011100")) == 4
    assert sbc_decode(Bitstream.zeros(15)) == 0


def test_adc_examples():
    assert adc_quantize(0.0, 4) == 0
    assert adc_quantize(1.0, 4) == 15
    assert adc_quantize(0.5, 4) == 8


def test_adc_saturation_flag_and_clamp():
    assert adc_quantize_flagged(1.25, 4) == (15, True)
    assert adc_quantize_flagged(-0.1, 4) == (0, True)
    assert adc_quantize_flagged(0.3, 4) == (4, False)


def test_adc_rejects_nan():
    with pytest.raises(ConversionError):
        adc_quantize(float("nan"), 4)


def test_ref_ladder_examples():
    assert ref_ladder(3, 1.0).vref_volts == (0.25, 0.50, 0.75)
    assert ref_ladder(1, 1.0).vref_volts == (0.5,)
    assert ref_ladder(7, 1.0).vrefs == tuple(Fraction(i, 8) for i in range(1, 8))


def test_ref_ladder_scales_with_vdd():
    assert ref_ladder(3, 1.2).vrefs == tuple(Fraction(i, 4) * Fraction(1.2) for i in (1, 2, 3))


def test_ref_ladder_rejects_zero_taps():
    with pytest.raises(ConversionError):
        ref_ladder(0, 1.0)


def test_ref_ladder_must_increase():
    with pytest.raises(ConversionError):
        RefLadder((Fraction(1, 2), Fraction(1, 2)), Fraction(1))
    with pytest.raises(ConversionError):
        RefLadder((Fraction(1, 2), Fraction(3, 2)), Fraction(1))


def test_thermometer_code_validation():
    ThermometerCode((1, 1, 0))
    with pytest.raises(ConversionError):
        ThermometerCode((1, 0, 1))
    assert ThermometerCode.from_count(2, 3).bits == (1, 1, 0)


def test_thermometer_counts_follow_one_rule():
    # a code and a row of MAC inputs refuse a fractional count alike and take a whole float
    with pytest.raises(ConversionError, match="count 1.5 is not a whole number"):
        ThermometerCode.from_count(1.5, 4)
    with pytest.raises(ConversionError, match="count 1.5 is not a whole number"):
        MacInputs.from_thermometer_counts([1.5], [0], [1], 4)
    assert ThermometerCode.from_count(2.0, 4).bits == (1, 1, 0, 0)
    assert MacInputs.from_thermometer_counts([2.0], [0], [1], 4).in_bits.tolist() == [[1, 1, 0, 0]]


def test_asc_encode_examples():
    ladder = ref_ladder(3, 1.0)
    code, act = asc_encode(0.1, ladder)
    assert code.bits == (0, 0, 0) and act.enabled_sa_count == 1
    code, act = asc_encode(0.9, ladder)
    assert code.bits == (1, 1, 1) and act.enabled_sa_count == 3
    code, act = asc_encode(0.6, ladder)
    assert code.bits == (1, 1, 0) and act.enabled_sa_count == 3
    assert act.fired == (True, True, True)


def test_asc_tie_resolves_high():
    ladder = ref_ladder(3, 1.0)
    code, _ = asc_encode(Fraction(1, 4), ladder)
    assert code.bits == (1, 0, 0)


def test_asc_clamps_with_flag():
    ladder = ref_ladder(3, 1.0)
    code, act = asc_encode(1.5, ladder)
    assert code.count == 3 and act.input_clamped
    code, act = asc_encode(-0.2, ladder)
    assert code.count == 0 and act.input_clamped


@given(st.floats(-0.5, 1.5, allow_nan=False), st.integers(1, 12))
@settings(max_examples=200)
def test_asc_monotone_and_gating_pure(x, m):
    ladder = ref_ladder(m, 1.0)
    gated, activity = asc_encode(x, ladder)
    plain, _ = asc_encode(x, ladder, gating=False)
    # monotone by construction of ThermometerCode; equality shows gating
    # never alters the code
    assert gated == plain
    assert activity.enabled_sa_count == 1 + min(gated.count, m - 1)


@given(st.floats(0.0, 1.0, allow_nan=False), st.integers(1, 12))
@settings(max_examples=200)
def test_asc_count_matches_floor_formula(x, m):
    ladder = ref_ladder(m, 1.0)
    code, _ = asc_encode(x, ladder)
    expected = min(math.floor(Fraction(x) * (m + 1)), m)
    assert code.count == expected == thermometer_quantize(x, m)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: adc_quantize_flagged(0.5, 0), ConversionError, "one bit", id="adc"),
        pytest.param(lambda: RefLadder((), 1), ConversionError, "one tap", id="ladder_taps"),
        pytest.param(lambda: RefLadder((0.5,), 0), ConversionError, "vdd must", id="ladder_vdd"),
        pytest.param(lambda: ThermometerCode(()), ConversionError, "nonempty", id="thermometer"),
        pytest.param(lambda: AscActivity((False, True)), ConversionError, "SA 0", id="activity"),
        pytest.param(lambda: asc_encode(math.nan, ref_ladder(3)), ConversionError, "NaN", id="asc"),
        pytest.param(lambda: asc_levels(np.array([0.5]), 0), ConversionError, "m >=", id="levels"),
        # taps (4, 2) cycle through 1, 2, 5, 10, 4, 8 only
        pytest.param(lambda: phase_of_state(4, (4, 2), 3), ConversionError, "not on", id="phase"),
    ],
)
def test_converter_and_register_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
