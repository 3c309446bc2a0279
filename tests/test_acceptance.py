"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import dataclasses
import itertools
import json
import time
from fractions import Fraction

import numpy as np

from scmac import (
    Bitstream,
    EnergyReport,
    MacConfig,
    MacInputs,
    PipelineConfig,
    charge_oracle,
    decode_voltage,
    default_config,
    exact_oracle,
    mac_evaluate,
    proposed_pipeline,
    run_comparison,
    value,
)
from scmac import pipelines
from scmac.cli import comparison_summary_lines, main
from scmac.converters import asc_encode, bsc_encode, ref_ladder, sbc_decode
from scmac.energy import (
    brute_force_enabled_average,
    expected_enabled_sas,
    gating_energy_saving,
    uniform_survival,
    zero_peaked_survival,
)
from scmac.lfsr import MAXIMAL_TAPS, Lfsr, cycle_length, default_lfsr, lfsr_next
from scmac.selftest import _all_mac_inputs


def _verdict(num: int, name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\n[criterion {num}] {name}: {status}")
            return False

    return _Reporter()


def test_criterion_1_mac_equation_vs_charge_oracle():
    """Closed-form voltages match explicit charge conservation everywhere."""
    with _verdict(1, "MAC equation vs charge-conservation oracle"):
        t0 = time.time()
        vdd = 1.0
        worst = 0.0
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
            cfg = MacConfig(m, n, vdd)
            for inputs in _all_mac_inputs(m, n):
                v, _ = mac_evaluate(inputs, cfg)
                worst = max(worst, abs(v - charge_oracle(inputs, cfg)))
        rng = np.random.default_rng(20_260_810)
        cfg = MacConfig(15, 300, vdd)
        for _ in range(10_000):
            inputs = MacInputs(
                rng.integers(0, 2, (300, 15)),
                rng.integers(0, 2, (300, 15)),
                rng.integers(0, 2, 300),
            )
            v, _ = mac_evaluate(inputs, cfg)
            worst = max(worst, abs(v - charge_oracle(inputs, cfg)))
        elapsed = time.time() - t0
        assert worst <= 1e-12 * vdd, f"max |dV| = {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_proposed_pipeline_exactness():
    """Deterministic thermometer coding decodes with zero error on the full grid."""
    with _verdict(2, "proposed-pipeline exactness on the quantized grid"):
        t0 = time.time()
        # full datapath, every code pair and sign, N in {1, 2}
        for m in (1, 2, 3, 4):
            levels = [(c + 0.5) / (m + 1) for c in range(m + 1)]
            signed = [-x for x in levels] + levels
            for n in (1, 2):
                cfg = PipelineConfig(variant="proposed", n_inputs=n, m=m, trials=1, seed=1)
                for samples in itertools.product(levels, repeat=n):
                    for weights in itertools.product(signed, repeat=n):
                        res = proposed_pipeline(list(samples), list(weights), cfg)
                        assert res.decoded[0] == exact_oracle(samples, weights, cfg)
        # analog -> level mapping is exhaustive per level, so N=3 can sweep
        # the engine over every level combination directly
        for m in (1, 2, 3, 4):
            ladder = ref_ladder(m, 1.0)
            for c in range(m + 1):
                code, _ = asc_encode((c + 0.5) / (m + 1), ladder)
                assert code.count == c
            cfg = MacConfig(m, 3, 1.0)
            pair_space = [
                (a, b, s) for a in range(m + 1) for b in range(m + 1) for s in (0, 1)
            ]
            for combo in itertools.product(pair_space, repeat=3):
                a = [x[0] for x in combo]
                b = [x[1] for x in combo]
                s = [x[2] for x in combo]
                inputs = MacInputs.from_thermometer_counts(a, b, s, m)
                v, _ = mac_evaluate(inputs, cfg)
                want = sum((1 if si else -1) * min(ai, bi) for ai, bi, si in zip(a, b, s))
                assert decode_voltage(v, cfg) == want
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_headline_report_consistency():
    """0.91 pJ/output at 10 MHz: 9.10 uW exactly, 164.8 TOPS/W back-solved."""
    with _verdict(3, "report consistency at the headline energy point"):
        report = EnergyReport(
            {"mixed_signal_mac_eval": 910.0},
            rate_hz=10e6,
            efficiency_ops={"back_solved": 150, "structural_2n_minus_1": 599},
            fom_steps=2395,
            fom_ops=1,
        )
        assert report.power_uw == 9.1  # exact
        assert f"{report.power_uw:.2f}" == "9.10"
        eff = report.efficiency_tops_per_watt()
        assert abs(eff["back_solved"] - 164.8) <= 0.1
        assert abs(eff["structural_2n_minus_1"] - 658.2) <= 0.1
        assert f"{report.fom_fj_per_step:.2f}" == "0.38"
        # both conventions are printed side by side in the summary
        cmp_res = run_comparison(
            PipelineConfig(variant="conventional", n_inputs=300, trials=2, seed=1),
            PipelineConfig(variant="proposed", n_inputs=300, trials=2, seed=1),
        )
        lines = "\n".join(comparison_summary_lines(cmp_res.to_json_dict()))
        assert "back_solved, 150 ops" in lines
        assert "structural_2n_minus_1, 599 ops" in lines


def test_criterion_4_energy_reduction_profiles():
    """Calibrated profile reproduces the 82.1% reduction; naive stays in (80, 99)."""
    with _verdict(4, "energy reduction under calibrated and naive profiles"):
        cfg = dataclasses.replace(default_config(), trials=2)
        conv = cfg.pipeline_config("conventional")
        prop = cfg.pipeline_config("proposed")
        calibrated = run_comparison(conv, prop, energy_profile="calibrated")
        assert abs(calibrated.reduction_percent - 82.1) <= 1.0, calibrated.reduction_percent
        naive = run_comparison(conv, prop, energy_profile="naive")
        assert 80.0 < naive.reduction_percent < 99.0, naive.reduction_percent
        print(
            f"\n  calibrated reduction: {calibrated.reduction_percent:.2f}% | "
            f"naive reduction: {naive.reduction_percent:.2f}% "
            "(reference counts are unpublished; naive counts one event per module action)"
        )


def test_criterion_5_converter_roundtrips_and_periods():
    """Stream coding round-trips exactly; shipped registers are maximal length."""
    with _verdict(5, "converter round-trips and LFSR periods"):
        l = default_lfsr(4)
        for k in range(16):
            assert sbc_decode(bsc_encode(k, l)) == k
        for width in (3, 4, 8):
            taps = MAXIMAL_TAPS[width]
            assert cycle_length(width, taps) == (1 << width) - 1
            cur = Lfsr(width, taps, 1)
            seen = set()
            for _ in range((1 << width) - 1):
                cur, out = lfsr_next(cur)
                seen.add(out)
            assert len(seen) == (1 << width) - 1
            assert cur.state == 1


def test_criterion_6_conventional_rmse_slope():
    """RMSE of the stochastic path falls as ~1/sqrt(L): slope -0.5 +- 0.1."""
    with _verdict(6, "statistical convergence of the conventional path"):
        t0 = time.time()
        lengths = [16, 64, 256, 1024]
        base = PipelineConfig(variant="conventional", n_inputs=4, trials=10_000, seed=42)
        # one draw of the trials serves every length
        cfgs = [dataclasses.replace(base, stream_length=length) for length in lengths]
        rmses = [res.rmse for res in pipelines._run_pipeline(None, None, *cfgs)]
        slope = float(np.polyfit(np.log(lengths), np.log(rmses), 1)[0])
        elapsed = time.time() - t0
        print(f"\n  rmse by length: {dict(zip(lengths, [round(r, 5) for r in rmses]))}")
        print(f"  fitted slope: {slope:.4f} ({elapsed:.1f}s)")
        assert abs(slope - (-0.5)) <= 0.1, f"slope {slope}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_bit_flip_tolerance_vs_binary():
    """A flipped stream bit moves 4/8 to exactly 3/8 or 5/8; a binary MSB flip jumps 2^(n-1)."""
    with _verdict(7, "bit-flip tolerance and the binary contrast case"):
        a = Bitstream.from_string("01101010")
        assert value(a) == Fraction(4, 8)
        for i in range(8):
            bits = a.bits.copy()
            bits[i] ^= 1
            assert value(Bitstream(bits)) in (Fraction(3, 8), Fraction(5, 8))
        for n in (4, 8, 16):
            for word in (0, 3, (1 << n) - 1):
                assert abs((word ^ (1 << (n - 1))) - word) == 1 << (n - 1)


def test_criterion_8_asc_gating_statistics():
    """Chain gating: closed form matches brute force; zero-peaked saves more."""
    with _verdict(8, "ASC gating savings"):
        m = 15
        closed = expected_enabled_sas(m, uniform_survival)
        grid = [(k + 0.5) / 40_001 for k in range(40_001)]
        brute = brute_force_enabled_average(m, grid)
        assert abs(brute - closed) / closed <= 1e-3
        saving_uniform = gating_energy_saving(m, closed)
        saving_gauss = gating_energy_saving(
            m, expected_enabled_sas(m, zero_peaked_survival(0.15))
        )
        assert saving_gauss > saving_uniform
        print(
            f"\n  gating saving, uniform: {100 * saving_uniform:.1f}% | "
            f"zero-peaked(sigma=0.15): {100 * saving_gauss:.1f}% "
            "(reported for comparison; the reference distribution is unpublished)"
        )


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    """Two `compare` runs with one seed write byte-identical CSV/JSON."""
    with _verdict(9, "deterministic report files"):
        args = ["compare", "--trials", "8", "--n-inputs", "16", "--seed", "77"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        names = [
            "compare_summary.json",
            "compare_trials_conventional.csv",
            "compare_trials_proposed.csv",
            "compare_energy.csv",
        ]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs"
        # sanity: the summary is well-formed JSON with the headline figure
        d = json.loads((tmp_path / "a" / "compare_summary.json").read_text())
        assert "reduction_percent" in d
