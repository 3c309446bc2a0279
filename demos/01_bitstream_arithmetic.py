#!/usr/bin/env python3
"""Stochastic numbers in eight bits: values, AND multiply, MUX add, noise.

A stochastic number is just a bitstream; its value is the fraction of ones.
This walk-through mirrors the classic blackboard examples.
"""

from fractions import Fraction

from scmac import (
    Bitstream,
    inject_bitflips,
    mux_add,
    mux_tree_accumulate,
    sc_mul,
    value,
)
from scmac.lfsr import MAXIMAL_TAPS, phase_of_state, select_bits

A = Bitstream.from_string("01011100")
B = Bitstream.from_string("11101000")

print("== values ==")
print(f"A = {A.to_string()}  value = {value(A)}")
print(f"B = {B.to_string()}  value = {value(B)}")

print("\n== multiplication is a single AND gate ==")
prod = sc_mul(A, B)
print(f"A AND B = {prod.to_string()}  value = {value(prod)}")
print(f"expected value(A)*value(B) = {value(A) * value(B)} (agrees in expectation,")
print("not bit-exactly; these particular streams land on 2/8)")

print("\n== scaled addition is a MUX ==")
a = Bitstream.from_string("11110000")
b = Bitstream.from_string("00001111")
out = mux_add(a, b, Bitstream.from_string("01010101"))
print(f"mux(a, b, 0101...) = {out.to_string()}  value = {value(out)}")
print(f"(value(a) + value(b)) / 2 = {(value(a) + value(b)) / 2}")

print("\n== accumulating four streams through a MUX tree ==")
streams = [
    Bitstream.from_string("11111111"),
    Bitstream.from_string("11110000"),
    Bitstream.from_string("11000000"),
    Bitstream.from_string("10000000"),
]
# each tree level takes the next 8 select bits (output LSBs) of one LFSR run
taps = MAXIMAL_TAPS[15]
phase = phase_of_state(15, taps, 0b1101)
selects = [Bitstream(select_bits(15, taps, phase + level * 8, 8)) for level in range(2)]
tree_out = mux_tree_accumulate(streams, selects)
total = sum(value(s) for s in streams)
print(f"stream values: {[str(value(s)) for s in streams]}")
print(f"tree output value = {value(tree_out)}  (expected around sum/4 = {total / 4})")

print("\n== error tolerance: every bit carries the same weight ==")
noisy = inject_bitflips(A, p=1 / 8, seed=7)
print(f"A with p=1/8 flips: {noisy.to_string()}  value = {value(noisy)}")
print(f"|delta| = {abs(value(noisy) - value(A))} (a few LSB-sized steps)")

word = 0b0100  # binary 4 out of 15
flipped_msb = word ^ 0b1000
print(f"\nbinary contrast: 4-bit word {word} with MSB flipped becomes {flipped_msb}")
print(f"|delta| = {abs(flipped_msb - word)} = 2^3, half the full scale in one hit")

print("\n== explicit select streams give exact, auditable results ==")
ones = Bitstream.from_string("11111111")
zeros = Bitstream.from_string("00000000")
half = mux_add(ones, zeros, Bitstream.from_string("01010101"))
assert value(half) == Fraction(1, 2)
print(f"mux(1s, 0s, balanced select) = {half.to_string()}  value = {value(half)}")
