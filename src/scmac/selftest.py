"""Built-in invariant suites, runnable without a test framework installed.

`scmac selftest` walks every check and exits nonzero if any fails. The
pytest suite covers the same ground in more depth; this is the quick gate
for installed environments.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bitstream import Bitstream, inject_bitflips, value
from .converters import (
    asc_encode,
    bsc_encode,
    ref_ladder,
    sbc_decode,
    thermometer_quantize,
)
from .energy import ActivityLog, CONVENTIONAL_TABLE, accumulate
from .lfsr import MAXIMAL_TAPS, cycle_length, default_lfsr
from .mac import MacConfig, MacInputs, charge_oracle, count_products, decode_voltage, mac_evaluate
from .pipelines import (
    PipelineConfig,
    exact_oracle,
    proposed_pipeline,
    run_comparison,
)


def _all_mac_inputs(m, n):
    """Every (IN, W, SIGN) combination for an (m, n)-sized engine."""
    for in_word in range(1 << (m * n)):
        in_bits = [[(in_word >> (i * m + j)) & 1 for j in range(m)] for i in range(n)]
        for w_word in range(1 << (m * n)):
            w_bits = [[(w_word >> (i * m + j)) & 1 for j in range(m)] for i in range(n)]
            for sign_word in range(1 << n):
                signs = [(sign_word >> i) & 1 for i in range(n)]
                yield MacInputs(in_bits, w_bits, signs)


def check_lfsr_periods():
    for width, taps in MAXIMAL_TAPS.items():
        assert cycle_length(width, taps) == (1 << width) - 1, f"width {width} not maximal"


def check_bsc_roundtrip():
    l = default_lfsr(4)
    for k in range(16):
        stream = bsc_encode(k, l)
        assert stream.ones_count() == k
        assert sbc_decode(stream) == k


def check_mac_oracle_small():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        cfg = MacConfig(m, n, 1.0)
        for inputs in _all_mac_inputs(m, n):
            v, counts = mac_evaluate(inputs, cfg)
            assert abs(v - charge_oracle(inputs, cfg)) <= 1e-12
            assert decode_voltage(v, cfg) == counts.difference


def check_mac_oracle_random():
    rng = np.random.default_rng(7)
    cfg = MacConfig(15, 300, 1.0)
    for _ in range(200):
        inputs = MacInputs(
            rng.integers(0, 2, (300, 15)), rng.integers(0, 2, (300, 15)), rng.integers(0, 2, 300)
        )
        v, _ = mac_evaluate(inputs, cfg)
        assert abs(v - charge_oracle(inputs, cfg)) <= 1e-12


def check_thermometer_gating():
    ladder = ref_ladder(7, 1.0)
    for x in np.linspace(-0.1, 1.1, 241):
        gated, activity = asc_encode(float(x), ladder)
        plain, _ = asc_encode(float(x), ladder, gating=False)
        assert gated == plain, "gating must never change the code"
        assert gated.count == thermometer_quantize(float(min(max(x, 0.0), 1.0)), 7)
        assert activity.enabled_sa_count == 1 + min(gated.count, 6)


def check_proposed_exactness():
    cfg = PipelineConfig(variant="proposed", n_inputs=2, m=3, trials=1, seed=5)
    levels = [(c + 0.5) / 4 for c in range(4)]
    for sa, sb in itertools.product(levels, repeat=2):
        for wa, wb in itertools.product([-l for l in levels] + levels, repeat=2):
            res = proposed_pipeline([sa, sb], [wa, wb], cfg)
            assert res.decoded[0] == exact_oracle([sa, sb], [wa, wb], cfg)


def check_bitflips():
    a = Bitstream.from_string("01101010")
    for i in range(8):
        flipped = Bitstream(a.bits ^ np.eye(8, dtype=np.uint8)[i])
        assert abs(value(flipped) - value(a)) * 8 == 1
    assert inject_bitflips(a, 0.0, 1) == a
    assert inject_bitflips(a, 1.0, 1) == Bitstream(1 - a.bits)
    assert inject_bitflips(a, 0.3, 42) == inject_bitflips(a, 0.3, 42)


def check_energy_linearity():
    log = ActivityLog({"sram_cell_access": 3, "adc_convert": 2})
    double = log + log
    r1 = accumulate(log, CONVENTIONAL_TABLE)
    r2 = accumulate(double, CONVENTIONAL_TABLE)
    assert abs(r2.total_fj - 2 * r1.total_fj) < 1e-9


def check_comparison_determinism():
    def run():
        conv = PipelineConfig(variant="conventional", n_inputs=4, trials=5, seed=11)
        prop = PipelineConfig(variant="proposed", n_inputs=4, trials=5, seed=11)
        return run_comparison(conv, prop).to_json_dict()

    assert run() == run()


def check_mac_semantics():
    rng = np.random.default_rng(3)
    for _ in range(100):
        inputs = MacInputs(
            rng.integers(0, 2, (5, 4)), rng.integers(0, 2, (5, 4)), rng.integers(0, 2, 5)
        )
        counts = count_products(inputs)
        brute = sum(
            (1 if s else -1) * int((i & w).sum())
            for i, w, s in zip(inputs.in_bits, inputs.w_bits, inputs.signs)
        )
        assert counts.difference == brute


CHECKS = [
    ("lfsr periods are maximal", check_lfsr_periods),
    ("bsc/sbc round trip is exact", check_bsc_roundtrip),
    ("mac closed form matches charge oracle (exhaustive small)", check_mac_oracle_small),
    ("mac closed form matches charge oracle (random 15x300)", check_mac_oracle_random),
    ("thermometer gating is observationally pure", check_thermometer_gating),
    ("proposed pipeline decodes exactly", check_proposed_exactness),
    ("bit flips move value by 1/L and are reproducible", check_bitflips),
    ("energy accumulation is linear", check_energy_linearity),
    ("comparison runs are deterministic", check_comparison_determinism),
    ("signed product counts match brute force", check_mac_semantics),
]


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report and keep going
            status = f"FAIL ({exc})"
            ok = False
        if verbose:
            print(f"[{'ok' if status == 'PASS' else '!!'}] {name}: {status}")
    return ok
