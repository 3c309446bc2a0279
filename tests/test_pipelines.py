"""End-to-end pipeline behavior: exactness, unbiasedness, noise, accounting."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from scmac import (
    ConfigError,
    LfsrStreamQuantizer,
    PipelineConfig,
    SizeMismatchError,
    SramModel,
    ThermometerQuantizer,
    conventional_pipeline,
    exact_oracle,
    proposed_pipeline,
    run_comparison,
    sram_size_factor,
)
from scmac.energy import EVENT_KEYS, accumulate, default_tables
from scmac.lfsr import MAXIMAL_TAPS, cycle_length
from scmac.pipelines import _mux_tree_counts, _select_matrix, _stream_matrix
from scmac.bitstream import mux_tree_scale


def conv_cfg(**kw):
    base = dict(variant="conventional", n_inputs=4, trials=10, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def prop_cfg(**kw):
    base = dict(variant="proposed", n_inputs=4, trials=10, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def test_sram_size_factor_examples():
    assert sram_size_factor(1) == 1  # binary and stochastic stores coincide
    assert sram_size_factor(4) == Fraction(15, 4)
    assert sram_size_factor(2) == Fraction(3, 2)
    with pytest.raises(ConfigError):
        sram_size_factor(0)


def test_sram_models():
    binary = SramModel.binary_store(4, 300)
    stoch = SramModel.stochastic_store(4, 300)
    assert binary.sizing_factor == 1 and binary.word_bits == 4
    assert stoch.word_bits == 15 and stoch.sizing_factor == Fraction(15, 4)


def test_exact_oracle_thermometer_examples():
    q = ThermometerQuantizer(3)
    # counts 2 and 1 overlap in the leading position: AND count is min
    assert exact_oracle([0.625], [0.375], q) == 1
    assert exact_oracle([0.0], [0.9], q) == 0
    assert exact_oracle([1.0, 1.0], [1.0, 1.0], q) == 6  # m per pair


def test_exact_oracle_size_mismatch():
    with pytest.raises(SizeMismatchError):
        exact_oracle([0.1, 0.2], [0.3], ThermometerQuantizer(3))


def test_proposed_worked_instance():
    # thermometer codes 110/100 and 111/110 with signs +/-: decode -1
    cfg = prop_cfg(n_inputs=2, m=3, trials=1)
    res = proposed_pipeline([0.625, 0.875], [0.375, -0.625], cfg)
    assert res.decoded[0] == -1.0
    assert res.oracle[0] == -1.0
    assert res.max_abs_error == 0.0


def test_proposed_all_zero_samples():
    cfg = prop_cfg(n_inputs=3, m=4, trials=2)
    res = proposed_pipeline([0.0, 0.0, 0.0], [0.5, -0.5, 0.25], cfg)
    assert np.all(res.decoded == 0.0)


def test_proposed_exhaustive_grid_small():
    """Full-pipeline exhaustive exactness at m=3, N=2 (all code pairs, both signs)."""
    m, n = 3, 2
    cfg = prop_cfg(n_inputs=n, m=m, trials=1)
    quant = ThermometerQuantizer(m)
    levels = [(c + 0.5) / (m + 1) for c in range(m + 1)]
    signed = [-x for x in levels] + levels
    for samples in itertools.product(levels, repeat=n):
        for weights in itertools.product(signed, repeat=n):
            res = proposed_pipeline(list(samples), list(weights), cfg)
            assert res.decoded[0] == exact_oracle(samples, weights, quant)
            assert res.max_abs_error == 0.0


def test_conventional_singleton_full_scale_exact():
    for length in (15, 64):
        cfg = conv_cfg(n_inputs=1, trials=3, stream_length=length)
        res = conventional_pipeline([1.0], [1.0], cfg)
        assert np.all(res.decoded == 1.0)
        assert np.all(res.oracle == 1.0)


def test_conventional_identical_full_scale_products():
    cfg = conv_cfg(n_inputs=2, trials=3)
    res = conventional_pipeline([1.0, 1.0], [1.0, 1.0], cfg)
    # both leaves carry all-ones product streams; the MUX output is exact
    assert np.all(res.decoded == 2.0)
    assert np.all(res.oracle == 2.0)


def test_conventional_oracle_matches_phase_enumeration():
    """Exhaustively average over every LFSR phase combination (w=3) and
    compare with the closed-form expectation the pipeline reports."""
    w, taps = 3, MAXIMAL_TAPS[3]
    period = cycle_length(w, taps)
    n_bits, length, n = 2, 5, 2
    samples = [0.7, 0.4]
    weights = [0.9, -0.6]
    top = (1 << n_bits) - 1
    thr_s = np.asarray([(min(int(s * (1 << n_bits)), top) * period) // top for s in samples])
    thr_w = np.asarray(
        [(min(int(abs(x) * (1 << n_bits)), top) * period) // top for x in weights]
    )
    positive = np.asarray([x >= 0 for x in weights])
    scale = mux_tree_scale(n)

    total = Fraction(0)
    combos = 0
    for phases in itertools.product(range(period), repeat=5):
        ss = _stream_matrix(w, taps, np.asarray(phases[0:2]), length, thr_s)
        sw = _stream_matrix(w, taps, np.asarray(phases[2:4]), length, thr_w)
        prod = ss & sw
        pos = np.zeros((scale, length), np.uint8)
        neg = np.zeros((scale, length), np.uint8)
        pos[:n][positive] = prod[positive]
        neg[:n][~positive] = prod[~positive]
        sels = _select_matrix(w, taps, np.asarray(phases[4:5]), length)
        diff = _mux_tree_counts(pos, sels) - _mux_tree_counts(neg, sels)
        total += Fraction(diff * scale, length)
        combos += 1
    enumerated = total / combos
    oracle = exact_oracle(samples, weights, LfsrStreamQuantizer(n_bits, w, taps, 0.0))
    assert enumerated == oracle


def test_conventional_oracle_with_flips_phase_enumeration():
    """Same enumeration, now with a deterministic always-flip mask folded in.

    With p=1 every product bit inverts; the closed form must track it."""
    w, taps = 3, MAXIMAL_TAPS[3]
    period = cycle_length(w, taps)
    n_bits, length = 2, 4
    samples, weights = [0.7], [0.9]
    top = (1 << n_bits) - 1
    thr_s = np.asarray([(min(int(samples[0] * 4), top) * period) // top])
    thr_w = np.asarray([(min(int(weights[0] * 4), top) * period) // top])

    total = Fraction(0)
    for ps, pw in itertools.product(range(period), repeat=2):
        ss = _stream_matrix(w, taps, np.asarray([ps]), length, thr_s)
        sw = _stream_matrix(w, taps, np.asarray([pw]), length, thr_w)
        prod = (ss & sw) ^ 1
        total += Fraction(int(prod.sum()), length)
    enumerated = total / period**2
    oracle = exact_oracle(samples, weights, LfsrStreamQuantizer(n_bits, w, taps, 1.0))
    assert enumerated == oracle


def test_conventional_unbiased_over_many_trials():
    cfg = conv_cfg(n_inputs=4, trials=10_000, seed=7, stream_length=64)
    res = conventional_pipeline(None, None, cfg)
    errs = res.errors
    sigma_mean = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean()) <= 3 * sigma_mean


def test_pipeline_determinism():
    cfg = conv_cfg(trials=20, seed=123)
    a = conventional_pipeline(None, None, cfg)
    b = conventional_pipeline(None, None, cfg)
    assert np.array_equal(a.decoded, b.decoded)
    assert np.array_equal(a.oracle, b.oracle)
    assert a.activity == b.activity
    assert a.to_json_dict() == b.to_json_dict()


def test_different_seeds_differ():
    a = conventional_pipeline(None, None, conv_cfg(trials=20, seed=1))
    b = conventional_pipeline(None, None, conv_cfg(trials=20, seed=2))
    assert not np.array_equal(a.decoded, b.decoded)


def test_comparison_shares_inputs_and_prices_energy():
    cmp_res = run_comparison(conv_cfg(trials=5), prop_cfg(trials=5))
    assert cmp_res.conventional.trials == cmp_res.proposed.trials == 5
    assert cmp_res.reduction_percent == pytest.approx(82.1, abs=1.0)
    assert cmp_res.proposed.energy.reduction_vs_baseline_percent == cmp_res.reduction_percent


def test_comparison_rejects_mismatched_shared_parameters():
    with pytest.raises(ConfigError):
        run_comparison(conv_cfg(trials=5, seed=1), prop_cfg(trials=5, seed=2))
    with pytest.raises(ConfigError):
        run_comparison(conv_cfg(n_inputs=4), prop_cfg(n_inputs=8))


def test_identical_variants_reduce_zero():
    """Same table and same activity on both sides cancels to 0%."""
    cfg_a = conv_cfg(trials=2)
    res = run_comparison(cfg_a, prop_cfg(trials=2), energy_profile="measured")
    # measured profile prices each side's own log; force symmetry instead
    conv_table, _ = default_tables()
    same = accumulate(res.conventional.activity, conv_table)
    from scmac.energy import reduction_percent

    assert reduction_percent(same, same) == 0.0


def test_measured_profile_uses_pipeline_logs():
    cmp_res = run_comparison(
        conv_cfg(trials=4), prop_cfg(trials=4), energy_profile="measured"
    )
    conv_counts = cmp_res.conventional.activity.counts
    assert cmp_res.conventional.energy.outputs == 4
    assert conv_counts["adc_convert"] == 4 * 4  # N per trial
    # bit-level SRAM counting: writes N*n + readback, reads N*n + N*(n+1)
    n, nb, length = 4, 4, 15
    per_trial = n * nb + (n * nb + n * (nb + 1)) + 2 * length.bit_length()
    assert conv_counts["sram_cell_access"] == 4 * per_trial


def test_proposed_activity_accounts_gating():
    cfg = prop_cfg(n_inputs=3, m=4, trials=1)
    res = proposed_pipeline([0.0, 0.0, 0.0], [0.5, -0.5, 0.25], cfg)
    # zero samples: only SA 0 fires per conversion
    assert res.activity.counts["sa_fire"] == 3
    assert res.activity.meta["sa_disabled"] == 9
    assert res.activity.meta["asc_conversions"] == 3


def test_every_logged_event_is_priceable():
    for cfg, table in (
        (conv_cfg(trials=3), default_tables()[0]),
        (prop_cfg(trials=3), default_tables()[1]),
    ):
        res = (
            conventional_pipeline(None, None, cfg)
            if cfg.variant == "conventional"
            else proposed_pipeline(None, None, cfg)
        )
        assert set(res.activity.counts) <= set(EVENT_KEYS)
        report = accumulate(res.activity, table)  # no silent drops
        assert set(report.categories_fj) == set(res.activity.counts)


def test_statistics_recompute_from_stored_values():
    res = conventional_pipeline(None, None, conv_cfg(trials=50))
    errs = np.asarray(res.decoded) - np.asarray(res.oracle)
    stats = res.statistics()
    assert stats["max_abs_error"] == np.abs(errs).max()
    assert stats["rmse"] == pytest.approx(float(np.sqrt((errs**2).mean())), rel=1e-12)
    assert stats["mean_error"] == pytest.approx(float(errs.mean()), rel=1e-12)


def test_noise_tolerance_proposed():
    """Flip probability 1/m leaves the median decode error within 2 steps."""
    cfg = prop_cfg(n_inputs=3, m=15, trials=500, seed=13, flip_probability=1 / 15)
    res = proposed_pipeline(None, None, cfg)
    assert np.median(np.abs(res.errors)) <= 2.0
    # errors move, but stay continuous in p: p=0 is exact
    quiet = proposed_pipeline(
        None, None, prop_cfg(n_inputs=3, m=15, trials=500, seed=13)
    )
    assert quiet.max_abs_error == 0.0


def test_noise_tolerance_conventional():
    """At p = 1/L the decode error stays within ~2 binary quantization steps."""
    length = 1024
    cfg = conv_cfg(trials=2000, seed=13, stream_length=length, flip_probability=1 / length)
    res = conventional_pipeline(None, None, cfg)
    step = 1 / ((1 << cfg.binary_bits) - 1)
    assert np.median(np.abs(res.errors)) <= 2 * step


def test_binary_msb_flip_contrast():
    # the binary contrast case: an MSB flip moves the word by 2^(n-1), always
    for n in (4, 8, 12):
        for word in (0, 1, (1 << n) - 1, 5):
            assert abs((word ^ (1 << (n - 1))) - word) == 1 << (n - 1)


def test_fixed_inputs_size_mismatch():
    with pytest.raises(SizeMismatchError):
        conventional_pipeline([0.1], [0.5, 0.5], conv_cfg(n_inputs=2))
    with pytest.raises(SizeMismatchError):
        proposed_pipeline([0.1, 0.2], None, prop_cfg(n_inputs=2))


def test_variant_config_guard():
    with pytest.raises(ConfigError):
        conventional_pipeline(None, None, prop_cfg())


def test_stream_length_bounded_by_period():
    with pytest.raises(ConfigError):
        conv_cfg(lfsr_width=4, stream_length=16)
    cfg = conv_cfg(lfsr_width=4, stream_length=15, trials=2)
    assert conventional_pipeline(None, None, cfg).trials == 2


def test_flip_oracle_still_unbiased():
    """The expectation folds the flip probability in, so errors stay centered."""
    cfg = conv_cfg(n_inputs=2, trials=4000, seed=21, stream_length=64, flip_probability=0.05)
    res = conventional_pipeline(None, None, cfg)
    errs = res.errors
    sigma_mean = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean()) <= 3.5 * sigma_mean


def test_non_maximal_taps_rejected():
    # period 6, not 15: the decode would disagree with the oracle
    with pytest.raises(ConfigError, match="not maximal"):
        conv_cfg(lfsr_width=4, lfsr_taps=(4, 2), stream_length=6)
    # without the width tap the cycle never returns to state 1
    with pytest.raises(ConfigError, match="include the width"):
        conv_cfg(lfsr_width=4, lfsr_taps=(3,))
    with pytest.raises(ConfigError, match="not maximal"):
        exact_oracle([1.0], [1.0], LfsrStreamQuantizer(4, 4, (4, 2)))
    assert conv_cfg(lfsr_width=4, lfsr_taps=(4, 3)).lfsr_taps == (4, 3)


def test_too_wide_binary_bits_rejected():
    # (2^50 - 1) * 32767 thresholds would wrap in int64 and decode 0 for 1
    cfg = conv_cfg(n_inputs=1, trials=1, binary_bits=50)
    with pytest.raises(ConfigError, match="overflow"):
        conventional_pipeline([1.0], [1.0], cfg)
    with pytest.raises(ConfigError, match="overflow"):
        exact_oracle([1.0], [1.0], LfsrStreamQuantizer(50, 15, MAXIMAL_TAPS[15]))


@pytest.mark.parametrize(
    "kw",
    [{"vdd": float("inf")}, {"seed": -1}, {"output_rate_hz": float("inf")}],
)
def test_config_rejects_non_finite_and_negative_values(kw):
    with pytest.raises(ConfigError):
        prop_cfg(**kw)
