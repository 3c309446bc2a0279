#!/usr/bin/env python3
"""The mixed-signal MAC: AND products accumulated on a capacitor array.

Two phases: each side voltage-divides its products across m*N + 1 unit
capacitors, then the two tail capacitors share charge. The shared voltage
encodes the signed product count n_p - n_n, and an explicit per-capacitor
charge ledger confirms the closed form.
"""

import numpy as np

from scmac import (
    Bitstream,
    MacConfig,
    MacInputs,
    SignedStochNumber,
    charge_oracle,
    count_products,
    decode_voltage,
    mac_evaluate,
    phase1_voltages,
)

print("== worked instance: m=3 bits, N=2 pairs, vdd=1 V ==")
cfg = MacConfig(m=3, n_inputs=2, vdd=1.0)
inputs = MacInputs.from_streams(
    [Bitstream.from_string("110"), Bitstream.from_string("111")],
    [
        SignedStochNumber(Bitstream.from_string("100"), sign=1),
        SignedStochNumber(Bitstream.from_string("110"), sign=0),
    ],
)
counts = count_products(inputs)
print(f"IN1=110 (x) W1=100 (+): overlap {counts.n_p}")
print(f"IN2=111 (x) W2=110 (-): overlap {counts.n_n}")

vp, vn = phase1_voltages(counts, cfg)
print(f"\nphase 1 (S1 on): VP = {vp:.6f} V = n_p/(mN+1),  VN = {vn:.6f} V = (mN-n_n)/(mN+1)")

v, _ = mac_evaluate(inputs, cfg)
print(f"phase 2 (S2 on): charge share lands at V = {v:.9f} V (= 5/14)")
print(f"decoded n_p - n_n = {decode_voltage(v, cfg)}")

print("\n== the independent charge ledger agrees ==")
ledger = charge_oracle(inputs, cfg)
print(f"shared-node voltage from explicit capacitor sums: {ledger:.9f} V")
print(f"|closed form - ledger| = {abs(v - ledger):.2e}")

print("\n== one bit is one capacitor: exact voltage steps ==")
step = 0.5 * cfg.vdd / cfg.caps_per_side
base_in = np.zeros((2, 3), dtype=np.uint8)
w_all = np.ones((2, 3), dtype=np.uint8)
prev, _ = mac_evaluate(MacInputs(base_in, w_all, [1, 1]), cfg)
for k in range(1, 4):
    nxt = base_in.copy()
    nxt[0, :k] = 1
    v_k, _ = mac_evaluate(MacInputs(nxt, w_all, [1, 1]), cfg)
    print(f"raising IN bit {k}: V moves {v_k - prev:+.6f} V (step = vdd/2/(mN+1) = {step:.6f})")
    prev = v_k

print("\n== headline geometry: 15-bit numbers, 300 inputs ==")
rng = np.random.default_rng(1)
big = MacConfig(m=15, n_inputs=300, vdd=1.0)
inputs = MacInputs(
    rng.integers(0, 2, (300, 15)), rng.integers(0, 2, (300, 15)), rng.integers(0, 2, 300)
)
v, counts = mac_evaluate(inputs, big)
ledger = charge_oracle(inputs, big)
print(f"n_p = {counts.n_p}, n_n = {counts.n_n}, V = {v:.6f} V "
      f"(oracle agrees to {abs(v - ledger):.1e})")
print(f"decoded signed count: {decode_voltage(v, big)} (exact: {counts.difference})")
