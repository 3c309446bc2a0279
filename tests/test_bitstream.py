"""Bitstream value semantics and gate-level SC arithmetic."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from scmac import (
    Bitstream,
    LengthMismatchError,
    StreamError,
    inject_bitflips,
    mux_add,
    mux_tree_accumulate,
    mux_tree_scale,
    sc_mul,
    value,
)
from scmac._prng import unit_floats
from scmac.lfsr import MAXIMAL_TAPS, phase_of_state, select_bits

def test_value_examples():
    assert value(Bitstream.from_string("01011100")) == Fraction(4, 8)
    assert value(Bitstream.zeros(8)) == 0
    assert value(Bitstream.ones(8)) == 1


def test_value_is_exact_rational():
    v = value(Bitstream.from_string("0110"))
    assert isinstance(v, Fraction)
    assert v == Fraction(2, 4) == Fraction(1, 2)


def test_bitstream_validation():
    with pytest.raises(StreamError):
        Bitstream([])
    with pytest.raises(StreamError):
        Bitstream([0, 2])
    with pytest.raises(StreamError):
        Bitstream([[0, 1], [1, 0]])
    with pytest.raises(StreamError):
        Bitstream.from_string("01x0")


def test_bitstream_immutable():
    b = Bitstream.from_string("0101")
    with pytest.raises(ValueError):
        b.bits[0] = 1


def test_sc_mul_worked_example():
    a = Bitstream.from_string("01011100")
    b = Bitstream.from_string("11101000")
    out = sc_mul(a, b)
    assert out == Bitstream.from_string("01001000")
    assert value(out) == Fraction(2, 8)


def test_sc_mul_identity_and_annihilator():
    x = Bitstream.from_string("0110101101")
    assert sc_mul(x, Bitstream.ones(10)) == x
    assert sc_mul(x, Bitstream.zeros(10)) == Bitstream.zeros(10)


def test_sc_mul_length_mismatch():
    with pytest.raises(LengthMismatchError):
        sc_mul(Bitstream.from_string("01"), Bitstream.from_string("011"))


@given(
    st.integers(1, 48).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_sc_mul_bounded_by_min(pair):
    a, b = Bitstream(pair[0]), Bitstream(pair[1])
    assert value(sc_mul(a, b)) <= min(value(a), value(b))


def test_mux_add_identical_operands():
    x = Bitstream.from_string("10101010")
    for sel in (Bitstream.from_string("01010101"), Bitstream.from_string("01110001")):
        assert mux_add(x, x, sel) == x


def test_mux_add_explicit_selection():
    a = Bitstream.from_string("11111111")
    b = Bitstream.from_string("00000000")
    out = mux_add(a, b, Bitstream.from_string("01010101"))
    assert value(out) == Fraction(4, 8)


def test_mux_add_alternating_worked_example():
    a = Bitstream.from_string("11110000")
    b = Bitstream.from_string("00001111")
    out = mux_add(a, b, Bitstream.from_string("01010101"))
    assert out == Bitstream.from_string("10100101")
    assert value(out) == Fraction(4, 8) == (value(a) + value(b)) / 2


def test_mux_add_accepts_raw_stream_as_select():
    a = Bitstream.from_string("1100")
    b = Bitstream.from_string("0011")
    assert mux_add(a, b, Bitstream.from_string("0101")) == Bitstream.from_string("1001")


def test_mux_add_select_length_mismatch():
    with pytest.raises(LengthMismatchError):
        mux_add(
            Bitstream.from_string("1100"),
            Bitstream.from_string("0011"),
            Bitstream.from_string("01"),
        )


@given(
    st.integers(1, 32).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_mux_add_exact_count_form(triple):
    """value(out) = (ones of a at sel=0 + ones of b at sel=1) / L, exactly."""
    a, b, sel = (Bitstream(bits) for bits in triple)
    out = mux_add(a, b, sel)
    expect = sum(
        (bv if sv else av) for av, bv, sv in zip(a.bits, b.bits, sel.bits)
    )
    assert value(out) == Fraction(int(expect), len(a))


def test_mux_tree_singleton():
    x = Bitstream.from_string("0110")
    assert mux_tree_accumulate([x], Bitstream.from_string("0101")) == x


def test_mux_tree_all_ones():
    ones = [Bitstream.ones(8)] * 4
    # one slice of a width-15 LFSR run per tree level
    taps = MAXIMAL_TAPS[15]
    phase = phase_of_state(15, taps, 0b101)
    sels = [Bitstream(select_bits(15, taps, phase + level * 8, 8)) for level in range(2)]
    out = mux_tree_accumulate(ones, sels)
    assert value(out) == 1


def test_mux_tree_two_streams_explicit():
    out = mux_tree_accumulate(
        [Bitstream.from_string("1111"), Bitstream.from_string("0000")],
        Bitstream.from_string("0101"),
    )
    assert value(out) == Fraction(2, 4)


def test_mux_tree_pads_to_power_of_two():
    streams = [Bitstream.ones(4)] * 3
    out = mux_tree_accumulate(streams, Bitstream.zeros(4))
    # sel always 0 walks down the leftmost leaf
    assert out == Bitstream.ones(4)
    assert mux_tree_scale(3) == 4


def test_mux_tree_scale_is_the_doubling_loop():
    scale = 1
    for k in range(1, 2**17 + 2):
        while scale < k:
            scale *= 2
        assert mux_tree_scale(k) == scale
    for k in (0, -1):
        with pytest.raises(StreamError, match="tree size must be positive"):
            mux_tree_scale(k)


def test_mux_tree_empty_rejected():
    with pytest.raises(StreamError):
        mux_tree_accumulate([], Bitstream.from_string("01"))


def test_mux_tree_per_level_selects():
    streams = [Bitstream.from_string(s) for s in ("0000", "1111", "0011", "0101")]
    # level 0 picks the odd leaves, level 1 the lower pair: leaf 1
    out = mux_tree_accumulate(streams, [Bitstream.ones(4), Bitstream.zeros(4)])
    assert out == streams[1]
    # leaf j(t) = sel_0[t] + 2 sel_1[t]: leaves 0, 1, 2, 3 at t = 0..3
    sels = [Bitstream.from_string("0101"), Bitstream.from_string("0011")]
    assert mux_tree_accumulate(streams, sels) == Bitstream.from_string("0111")


def test_mux_tree_select_sequence_needs_one_stream_per_level():
    streams = [Bitstream.ones(4)] * 3  # padded to four leaves, two levels
    for sels in ([], [Bitstream.zeros(4)], [Bitstream.zeros(4)] * 3):
        with pytest.raises(StreamError, match="needs 2 select streams"):
            mux_tree_accumulate(streams, sels)


def test_non_bitstream_select_rejected():
    a, b = Bitstream.from_string("1100"), Bitstream.from_string("0011")
    for sel in ("0101", [0, 1, 0, 1], None):
        with pytest.raises(StreamError, match="select stream"):
            mux_add(a, b, sel)
    for sel in (5, "0101", ["0101", "0101"], (Bitstream.zeros(4), None)):
        with pytest.raises(StreamError, match="select stream"):
            mux_tree_accumulate([a, b, a], sel)


def test_mux_tree_select_length_mismatch():
    streams = [Bitstream.ones(4)] * 3
    for sel in (Bitstream.zeros(3), [Bitstream.zeros(4), Bitstream.zeros(5)]):
        with pytest.raises(LengthMismatchError):
            mux_tree_accumulate(streams, sel)


def test_inject_bitflips_endpoints():
    a = Bitstream.from_string("01101010")
    assert inject_bitflips(a, 0.0, 99) == a
    assert inject_bitflips(a, 1.0, 99) == Bitstream(1 - a.bits)


@given(st.integers(0, 2**63 - 1), st.floats(0.0, 1.0), st.integers(1, 128))
@settings(max_examples=60)
def test_inject_bitflips_reproducible(seed, p, length):
    b = Bitstream((np.arange(length) * 7 + 3) % 2)
    assert inject_bitflips(b, p, seed) == inject_bitflips(b, p, seed)


def test_flip_probability_validated():
    with pytest.raises(StreamError):
        inject_bitflips(Bitstream.ones(4), 1.5, 0)


def _bernoulli_stream_values(p, q, length, trials, seed):
    """Mean product value over seeded iid Bernoulli stream pairs."""
    idx = np.arange(trials * length, dtype=np.uint64)
    ua = unit_floats(seed, idx).reshape(trials, length)
    ub = unit_floats(seed + 1, idx).reshape(trials, length)
    a = ua < p
    b = ub < q
    return (a & b).mean(axis=1)


def test_product_statistics_match_pq():
    """Mean of value(sc_mul) over 10^4 random stream pairs stays near p*q."""
    p, q, length, trials = 0.7, 0.4, 256, 10_000
    vals = _bernoulli_stream_values(p, q, length, trials, seed=20_260_810)
    sigma_single = np.sqrt(p * q * (1 - p * q) / length)
    assert abs(vals.mean() - p * q) <= 3 * sigma_single / np.sqrt(trials)


_ONE, _TWO = Bitstream.from_string("1"), Bitstream.from_string("01")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: mux_add(_ONE, _TWO, _TWO), LengthMismatchError, "differ", id="add"),
        pytest.param(
            lambda: mux_tree_accumulate([_ONE, _TWO], _ONE), LengthMismatchError, "share", id="tree"
        ),
    ],
)
def test_bitstream_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
