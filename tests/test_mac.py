"""Capacitor-array MAC: closed form, charge oracle, decode, invariants."""

import sys

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scmac import (
    Bitstream,
    MacConfig,
    MacError,
    MacInputs,
    ProductCounts,
    SignedStochNumber,
    charge_oracle,
    charge_share,
    count_products,
    decode_voltage,
    mac_evaluate,
    phase1_voltages,
)
from scmac.converters import ThermometerCode
from scmac.errors import ConversionError
from scmac.mac import MAX_COUNT, baseline_voltage, decode_counts, max_voltage
from scmac.selftest import _all_mac_inputs


def worked_inputs():
    # IN1=110 W1=+100, IN2=111 W2=-110: n_p = 1, n_n = 2
    return MacInputs.from_streams(
        [Bitstream.from_string("110"), Bitstream.from_string("111")],
        [
            SignedStochNumber(Bitstream.from_string("100"), 1),
            SignedStochNumber(Bitstream.from_string("110"), 0),
        ],
    )


CFG32 = MacConfig(3, 2, 1.0)


def random_inputs(rng, m, n):
    return MacInputs(
        rng.integers(0, 2, (n, m)), rng.integers(0, 2, (n, m)), rng.integers(0, 2, n)
    )


def test_count_products_worked_example():
    counts = count_products(worked_inputs())
    assert counts == ProductCounts(n_p=1, n_n=2)


def test_count_products_trivial_cases():
    m, n = 3, 2
    zero = MacInputs(np.zeros((n, m)), np.ones((n, m)), np.ones(n))
    assert count_products(zero) == ProductCounts(0, 0)
    full = MacInputs(np.ones((n, m)), np.ones((n, m)), np.ones(n))
    assert count_products(full) == ProductCounts(m * n, 0)


def test_phase1_voltages_examples():
    vp, vn = phase1_voltages(ProductCounts(3, 0), CFG32)
    assert vp == pytest.approx(3 / 7, abs=1e-15)
    assert vn == pytest.approx(6 / 7, abs=1e-15)
    vp, _ = phase1_voltages(ProductCounts(0, 0), CFG32)
    assert vp == 0.0


def test_phase1_rejects_overflow_counts():
    with pytest.raises(MacError):
        phase1_voltages(ProductCounts(7, 0), CFG32)


def test_charge_share_worked_example():
    vp, vn = phase1_voltages(ProductCounts(1, 2), CFG32)
    v = charge_share(vp, vn, CFG32)
    assert v == pytest.approx(5 / 14, abs=1e-15)


def test_charge_share_symmetric_counts_hit_baseline():
    for k in range(4):
        vp, vn = phase1_voltages(ProductCounts(k, k), CFG32)
        assert charge_share(vp, vn, CFG32) == pytest.approx(baseline_voltage(CFG32), abs=1e-15)


def test_charge_share_saturation():
    vp, vn = phase1_voltages(ProductCounts(6, 0), CFG32)
    assert charge_share(vp, vn, CFG32) == pytest.approx(6 / 7, abs=1e-15)
    assert max_voltage(CFG32) == pytest.approx(6 / 7, abs=1e-15)


def test_mac_evaluate_composition():
    v, counts = mac_evaluate(worked_inputs(), CFG32)
    assert counts.difference == -1
    assert v == pytest.approx(5 / 14, abs=1e-15)


def test_mac_evaluate_zero_inputs_give_baseline():
    zero = MacInputs(np.zeros((2, 3)), np.ones((2, 3)), np.asarray([1, 0]))
    v, _ = mac_evaluate(zero, CFG32)
    assert v == pytest.approx(baseline_voltage(CFG32), abs=1e-15)


def test_decode_voltage_examples():
    assert decode_voltage(5 / 14, CFG32) == -1
    assert decode_voltage(baseline_voltage(CFG32), CFG32) == 0
    assert decode_voltage(max_voltage(CFG32), CFG32) == 6


def test_decode_voltage_rejects_out_of_range():
    with pytest.raises(MacError):
        decode_voltage(1.0, CFG32)
    with pytest.raises(MacError):
        decode_voltage(-0.01, CFG32)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 3.0),
)
@settings(max_examples=150, deadline=None)
def test_charge_oracle_equals_closed_form_random(m, n, seed, vdd):
    rng = np.random.default_rng(seed)
    cfg = MacConfig(m, n, vdd)
    inputs = random_inputs(rng, m, n)
    v, _ = mac_evaluate(inputs, cfg)
    assert abs(v - charge_oracle(inputs, cfg)) <= 1e-12 * vdd


def test_single_bit_monotonicity():
    """Raising one IN bit with its W bit high moves V by exactly vdd/2/(mN+1)."""
    rng = np.random.default_rng(11)
    cfg = MacConfig(3, 3, 1.0)
    step = 0.5 * cfg.vdd / cfg.caps_per_side
    for _ in range(100):
        inputs = random_inputs(rng, 3, 3)
        i = int(rng.integers(0, 3))
        j = int(rng.integers(0, 3))
        in_bits = inputs.in_bits.copy()
        w_bits = inputs.w_bits.copy()
        in_bits[i, j] = 0
        w_bits[i, j] = 1
        low = MacInputs(in_bits, w_bits, inputs.signs)
        hi_bits = in_bits.copy()
        hi_bits[i, j] = 1
        high = MacInputs(hi_bits, w_bits, inputs.signs)
        delta = mac_evaluate(high, cfg)[0] - mac_evaluate(low, cfg)[0]
        expect = step if inputs.signs[i] else -step
        assert delta == pytest.approx(expect, abs=1e-15)


def test_output_range_bounds_attained():
    cfg = MacConfig(2, 2, 1.0)
    lo = min(mac_evaluate(i, cfg)[0] for i in _all_mac_inputs(2, 2))
    hi = max(mac_evaluate(i, cfg)[0] for i in _all_mac_inputs(2, 2))
    assert lo == 0.0  # n_n = mN, n_p = 0
    assert hi == pytest.approx(max_voltage(cfg), abs=1e-15)


def test_decode_matches_counts_everywhere():
    cfg = MacConfig(2, 2, 1.0)
    for inputs in _all_mac_inputs(2, 2):
        v, counts = mac_evaluate(inputs, cfg)
        assert decode_voltage(v, cfg) == counts.difference


@given(
    hnp.arrays(np.uint8, (4, 3), elements=st.integers(0, 1)),
    hnp.arrays(np.uint8, (4, 3), elements=st.integers(0, 1)),
    hnp.arrays(np.uint8, (4,), elements=st.integers(0, 1)),
)
@settings(max_examples=150)
def test_mac_semantics_brute_force(in_bits, w_bits, signs):
    inputs = MacInputs(in_bits, w_bits, signs)
    counts = count_products(inputs)
    brute = sum(
        (1 if s else -1) * sum(int(a & b) for a, b in zip(row_i, row_w))
        for row_i, row_w, s in zip(in_bits, w_bits, signs)
    )
    assert counts.difference == brute


def test_inputs_validation():
    with pytest.raises(MacError):
        MacInputs(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(MacError):
        MacInputs(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(MacError):
        MacInputs(2 * np.ones((2, 3)), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(MacError):
        SignedStochNumber(Bitstream.from_string("101"), 2)
    with pytest.raises(MacError):
        MacConfig(0, 1)
    with pytest.raises(MacError):
        mac_evaluate(worked_inputs(), MacConfig(3, 4, 1.0))


def test_config_bounds_the_product_count():
    assert MacConfig((2**48 - 1) // 3, 3).max_count == MAX_COUNT == 2**48 - 1
    for m, n in ((2**44, 16), (2**48, 1), (2**50, 16)):
        with pytest.raises(MacError, match="exceeds"):
            MacConfig(m, n)


@pytest.mark.parametrize("vdd", ("5e-324", "1e-310", "0", "-1", "inf", "nan", "9e307"))
def test_config_rejects_vdd_outside_the_exact_decode(vdd):
    with pytest.raises(MacError, match="vdd must be finite and at least"):
        MacConfig(3, 2, float(vdd))


@pytest.mark.parametrize("vdd", (1.0, 0.8, 1.3, 0.1, sys.float_info.min, sys.float_info.max / 2))
def test_decode_counts_exact_at_the_product_count_bound(vdd):
    cfg = MacConfig((2**48 - 1) // 3, 3, vdd)
    top = cfg.max_count
    edges = np.array([0, 1, 2, top // 2, top // 2 + 1, top - 2, top - 1, top])
    rng = np.random.default_rng(48)
    n_p = np.concatenate([np.repeat(edges, edges.size), rng.integers(0, top + 1, 4000)])
    n_n = np.concatenate([np.tile(edges, edges.size), rng.integers(0, top + 1, 4000)])
    assert np.array_equal(decode_counts(n_p, n_n, cfg), n_p - n_n)


@pytest.mark.parametrize(
    "m, n, message",
    [
        pytest.param(3.5, 2, "m must be an integer, got 3.5", id="m"),
        pytest.param(True, 2, "m must be an integer, got True", id="bool_m"),
        pytest.param(3, 2.0, "n_inputs must be an integer, got 2.0", id="n_inputs"),
    ],
)
def test_mac_config_refuses_non_integer_sizes(m, n, message):
    with pytest.raises(MacError) as exc:
        MacConfig(m, n)
    assert str(exc.value) == message


def test_mac_config_accepts_numpy_integers():
    assert MacConfig(np.int64(3), np.uint16(2)).max_count == 6


def test_fractional_counts_are_refused():
    with pytest.raises(MacError, match="whole numbers"):
        decode_counts(np.array([1.5, 2]), np.array([1, 1]), MacConfig(4, 2))
    with pytest.raises(ConversionError, match="count 1.5 is not a whole number"):
        MacInputs.from_thermometer_counts([1.5, 2], [2, 2], [1, 0], 4)
    # whole-number floats still count
    assert decode_counts(np.array([1.0, 2.0]), np.array([1, 1]), MacConfig(4, 2)).tolist() == [0, 1]
    inputs = MacInputs.from_thermometer_counts([1.0, 2], [2, 2.0], [1, 0], 4)
    assert inputs.in_bits.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0]]


def test_voltages_use_exact_fractions():
    # 1/3-style ratios survive: VP at n_p=1, m=1, N=2 is exactly 1/3 in binary64
    vp, _ = phase1_voltages(ProductCounts(1, 0), MacConfig(1, 2, 1.0))
    assert vp == float(Fraction(1, 3))


@pytest.mark.parametrize("m", range(1, 17))
def test_from_thermometer_counts_matches_thermometer_codes(m):
    counts = list(range(m + 1))
    signs = [c % 2 for c in counts]
    inputs = MacInputs.from_thermometer_counts(counts, counts[::-1], signs, m)
    assert inputs.in_bits.tolist() == [list(ThermometerCode.from_count(c, m).bits) for c in counts]
    assert inputs.w_bits.tolist() == [list(ThermometerCode.from_count(c, m).bits) for c in counts[::-1]]
    assert inputs.signs.tolist() == signs


@pytest.mark.parametrize(
    ("in_counts", "w_counts", "bad"), [([0, 5], [1, 1], 5), ([1, 1], [-1, 9], -1), ([6, 0], [7, 0], 6)]
)
def test_from_thermometer_counts_rejects_out_of_range(in_counts, w_counts, bad):
    with pytest.raises(ConversionError, match=f"count {bad} outside \\[0, 4\\]"):
        MacInputs.from_thermometer_counts(in_counts, w_counts, [1, 0], 4)
    with pytest.raises(ConversionError, match=f"count {bad} outside \\[0, 4\\]"):
        ThermometerCode.from_count(bad, 4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: MacConfig(1, 0), MacError, "n_inputs must", id="config"),
        pytest.param(
            lambda: MacInputs.from_thermometer_counts([], [], [], 0),
            ConversionError,
            "nonempty",
            id="thermometer",
        ),
        pytest.param(
            lambda: MacInputs(np.zeros((0, 3)), np.zeros((0, 3)), []),
            MacError,
            "one input pair",
            id="rows",
        ),
        pytest.param(
            lambda: MacInputs.from_streams([Bitstream.from_string("1")], []),
            MacError,
            "1 inputs but 0",
            id="streams",
        ),
        pytest.param(lambda: ProductCounts(-1, 0), MacError, "negative", id="counts"),
    ],
)
def test_mac_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
