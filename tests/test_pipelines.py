"""End-to-end pipeline behavior: exactness, unbiasedness, noise, accounting."""

import dataclasses
import itertools
import json
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from scmac import (
    ConfigError,
    EnergyModelError,
    MacError,
    PipelineConfig,
    SizeMismatchError,
    conventional_pipeline,
    exact_oracle,
    proposed_pipeline,
    run_comparison,
)
from scmac import lfsr, pipelines
from scmac.distributions import Explicit, ZeroPeakedGaussian
from scmac.energy import EVENT_KEYS, accumulate, default_tables
from scmac.lfsr import MAXIMAL_TAPS, cycle_length, select_bits, threshold_bits
from scmac.mac import MacConfig
from scmac.bitstream import Bitstream, mux_tree_accumulate, mux_tree_scale


def conv_cfg(**kw):
    base = dict(variant="conventional", n_inputs=4, trials=10, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def prop_cfg(**kw):
    base = dict(variant="proposed", n_inputs=4, trials=10, seed=3)
    base.update(kw)
    return PipelineConfig(**base)


def test_exact_oracle_thermometer_examples():
    q = prop_cfg(n_inputs=1, m=3)
    # counts 2 and 1 overlap in the leading position: AND count is min
    assert exact_oracle([0.625], [0.375], q) == 1
    assert exact_oracle([0.0], [0.9], q) == 0
    assert exact_oracle([1.0, 1.0], [1.0, 1.0], prop_cfg(n_inputs=2, m=3)) == 6  # m per pair


def test_exact_oracle_size_mismatch():
    with pytest.raises(SizeMismatchError):
        exact_oracle([0.1, 0.2], [0.3], prop_cfg(n_inputs=2, m=3))


@pytest.mark.parametrize("make_cfg", (prop_cfg, conv_cfg))
def test_exact_oracle_needs_n_inputs_samples(make_cfg):
    cfg = make_cfg(n_inputs=3)
    for n in (2, 4):
        with pytest.raises(SizeMismatchError):
            exact_oracle([0.5] * n, [0.5] * n, cfg)


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
    levels = [(c + 0.5) / (m + 1) for c in range(m + 1)]
    signed = [-x for x in levels] + levels
    for samples in itertools.product(levels, repeat=n):
        for weights in itertools.product(signed, repeat=n):
            res = proposed_pipeline(list(samples), list(weights), cfg)
            assert res.decoded[0] == exact_oracle(samples, weights, cfg)
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

    # product streams per (input, sample phase, weight phase), select per phase
    prods = [
        {
            (ps, pw): Bitstream(
                threshold_bits(w, taps, ps, length, int(thr_s[i]))
                & threshold_bits(w, taps, pw, length, int(thr_w[i]))
            )
            for ps, pw in itertools.product(range(period), repeat=2)
        }
        for i in range(n)
    ]
    zero = Bitstream.zeros(length)
    sels = [Bitstream(select_bits(w, taps, p, length)) for p in range(period)]

    total = Fraction(0)
    combos = 0
    for phases in itertools.product(range(period), repeat=5):
        leaves = [prods[i][phases[i], phases[2 + i]] for i in range(n)]
        pos = [b if p else zero for b, p in zip(leaves, positive)]
        neg = [zero if p else b for b, p in zip(leaves, positive)]
        sel = sels[phases[4]]  # one tree level, so one select stream
        diff = mux_tree_accumulate(pos, sel).ones_count()
        diff -= mux_tree_accumulate(neg, sel).ones_count()
        total += Fraction(diff * scale, length)
        combos += 1
    enumerated = total / combos
    cfg = conv_cfg(
        n_inputs=n, binary_bits=n_bits, lfsr_width=w, lfsr_taps=taps, stream_length=length
    )
    oracle = exact_oracle(samples, weights, cfg)
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
        ss = threshold_bits(w, taps, ps, length, int(thr_s[0]))
        sw = threshold_bits(w, taps, pw, length, int(thr_w[0]))
        prod = (ss & sw) ^ 1
        total += Fraction(int(prod.sum()), length)
    enumerated = total / period**2
    cfg = conv_cfg(
        n_inputs=1,
        binary_bits=n_bits,
        lfsr_width=w,
        lfsr_taps=taps,
        stream_length=length,
        flip_probability=1.0,
    )
    oracle = exact_oracle(samples, weights, cfg)
    assert enumerated == oracle


def _traced_peak(run, cfg) -> int:
    """tracemalloc peak of one pipeline run, after a run that fills the LFSR cycle cache."""
    run(None, None, cfg)
    tracemalloc.start()
    try:
        run(None, None, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conventional_trial_memory_is_linear():
    """A conventional trial holds O(N + L) state, never an (N, L) matrix.

    At N=5000, L=32767 one int64 (N, L) index matrix alone is 1.3 GB.
    """
    cfg = conv_cfg(n_inputs=5000, trials=1, stream_length=32767, flip_probability=0.02)
    assert _traced_peak(conventional_pipeline, cfg) < 64 * 2**20


def test_long_stream_trials_peak_memory():
    """At L=32767 a chunk is one trial: O(L) index arrays, about 1 MB."""
    cfg = conv_cfg(n_inputs=300, trials=4, stream_length=32767, flip_probability=0.02)
    assert _traced_peak(conventional_pipeline, cfg) <= 1.5 * 2**20


def test_long_stream_sweep_family_peak_memory():
    """The long-stream sweep's family in one run keeps the single-point bound of about 1 MB."""
    cfgs = [
        PipelineConfig(
            variant=variant,
            n_inputs=300,
            trials=4,
            seed=3,
            stream_length=length,
            flip_probability=flip,
        )
        for length in (8191, 32767)
        for flip in (0.0, 0.02)
        for variant in ("conventional", "proposed")
    ]

    def run(samples, weights, cfgs):
        return pipelines._run_pipeline(samples, weights, *cfgs)

    assert _traced_peak(run, cfgs) <= 1.5 * 2**20


@pytest.mark.parametrize("variant", ("conventional", "proposed"))
def test_reference_shape_peak_memory(variant):
    """N=300, L=15, 200 trials: chunks of a few thousand elements stay under 1 MB."""
    cfg = PipelineConfig(
        variant=variant,
        n_inputs=300,
        m=15,
        stream_length=15,
        trials=200,
        distribution=ZeroPeakedGaussian(0.15),
        seed=1,
    )
    run = conventional_pipeline if variant == "conventional" else proposed_pipeline
    assert _traced_peak(run, cfg) < 2**20


def test_many_trial_conventional_peak_memory():
    """Criterion 6's longest streams: 10^4 trials' summaries and outputs stay under 1 MB."""
    cfg = conv_cfg(n_inputs=4, trials=10_000, seed=42, stream_length=1024)
    assert _traced_peak(conventional_pipeline, cfg) <= 2**20


def test_warm_long_stream_count_allocates_little_beyond_its_run():
    """A warm one-trial block of the long-stream sweep family writes into its run's buffers.

    Its flip row keys, row work and one-trial `count` allocate, beyond the
    buffers, the positions of the real selected bits, 8 bytes each (about
    150 KiB for the 19k real ones of 32767 at N=300), and arrays of a few
    bytes per input: 256 KiB in all.
    """
    cfgs = [
        conv_cfg(n_inputs=300, trials=4, stream_length=length, flip_probability=flip)
        for length in (8191, 32767)
        for flip in (0.0, 0.02)
    ]
    run = pipelines._ConventionalRun(*cfgs)
    # one trial is wider than the chunk budget, so a chunk holds one trial
    assert run.width > pipelines._CHUNK_ELEMENTS
    run.reserve(1, 1)
    rng = np.random.default_rng(3)
    inputs = rng.uniform(0.0, 1.0, (1, 300)), rng.uniform(-1.0, 1.0, (1, 300))
    phases = [rng.integers(0, run.period, (1, k)) for k in run.phase_sizes]

    def block():
        keys = pipelines._flip_row_keys(cfgs[0].seed, range(1), 300)
        run.row_step(range(1), *pipelines._prepare_inputs(np.hstack(inputs)))
        run.count(slice(0, 1), keys, *phases)

    block()
    tracemalloc.start()
    try:
        block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**10


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


def test_clamped_and_saturated_counts_are_json_ints():
    """Out-of-range inputs log saturation and clamp counts that `json` writes as ints."""
    cmp_res = run_comparison(
        conv_cfg(trials=2),
        prop_cfg(trials=2),
        samples=[1.2, 0.5, -0.1, 0.3],
        weights=[0.5, -0.5, 1.5, 0.2],
        energy_profile="measured",
    )
    conv_meta = cmp_res.conventional.activity.meta
    prop_meta = cmp_res.proposed.activity.meta
    assert conv_meta["adc_saturation"] == prop_meta["asc_input_clamped"] == 4
    assert type(conv_meta["adc_saturation"]) is type(prop_meta["asc_input_clamped"]) is int
    json.dumps(cmp_res.to_json_dict())


def test_comparison_rejects_mismatched_shared_parameters():
    with pytest.raises(ConfigError):
        run_comparison(conv_cfg(trials=5, seed=1), prop_cfg(trials=5, seed=2))
    with pytest.raises(ConfigError):
        run_comparison(conv_cfg(n_inputs=4), prop_cfg(n_inputs=8))


def test_comparison_rejects_unknown_energy_profile():
    with pytest.raises(ConfigError, match="unknown energy_profile 'bogus'"):
        run_comparison(conv_cfg(), prop_cfg(), energy_profile="bogus")


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
    with pytest.raises(ConfigError, match="variant must be one of"):
        PipelineConfig(variant="bogus", n_inputs=2)


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
    assert conv_cfg(lfsr_width=4, lfsr_taps=(4, 3)).lfsr_taps == (4, 3)


def test_too_wide_binary_bits_rejected():
    # (2^50 - 1) * 32767 thresholds would wrap in int64 and decode 0 for 1;
    # the config itself is refused, before any run
    with pytest.raises(ConfigError, match="overflow"):
        conv_cfg(n_inputs=1, trials=1, binary_bits=50)
    # n + width = 63 is the widest that fits: (2^48 - 1) * 32767 < 2^63
    cfg = conv_cfg(n_inputs=1, trials=1, binary_bits=48)
    assert conventional_pipeline([1.0], [1.0], cfg).oracle[0] == exact_oracle([1.0], [1.0], cfg)
    with pytest.raises(ConfigError, match="overflow"):
        conv_cfg(n_inputs=1, trials=1, binary_bits=49)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_inputs", 4.5),
        ("m", 3.5),
        ("binary_bits", 2.5),
        ("stream_length", 7.5),
        ("lfsr_width", 4.0),
        ("trials", 2.5),
        ("trials", True),
        ("seed", 1.5),
    ],
)
def test_run_fields_must_be_integers(name, value):
    with pytest.raises(ConfigError) as exc:
        conv_cfg(**{name: value})
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_inputs", 5),
        ("m", 7),
        ("binary_bits", 6),
        ("stream_length", 7),
        ("lfsr_width", 4),
        ("trials", 3),
        ("seed", 9),
        ("lfsr_taps", (15, 14)),
    ],
)
def test_numpy_integer_run_fields_report_like_python_ints(name, value):
    """Each integer run field is kept as a Python int, so the report is the same and dumps."""
    as_numpy = tuple(map(np.int64, value)) if name == "lfsr_taps" else np.int64(value)
    want, got = (
        run_comparison(conv_cfg(**kw), prop_cfg(**kw))
        for kw in ({"trials": 2, name: value}, {"trials": 2, name: as_numpy})
    )
    assert got.to_json_dict() == want.to_json_dict()
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


@pytest.mark.parametrize(
    "name, value, as_numpy",
    [
        ("fom_steps", 7, np.int64(7)),
        ("fom_ops", 3, np.int64(3)),
        ("efficiency_ops", {"x": 5}, {"x": np.int64(5)}),
    ],
    ids=("fom_steps", "fom_ops", "efficiency_ops"),
)
def test_numpy_integer_pricing_counts_report_like_python_ints(name, value, as_numpy):
    want, got = (
        run_comparison(conv_cfg(trials=2), prop_cfg(trials=2), **{name: v}) for v in (value, as_numpy)
    )
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


# each value is exact in float32, so the float32 run is the float run
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, value",
    [("vdd", 0.5), ("output_rate_hz", 8e6), ("flip_probability", 0.125), ("sigma", 0.25)],
)
def test_numpy_float_run_fields_report_like_python_floats(name, value):
    """Each real run field, and sigma, is kept as a Python float, so the report is the same and dumps."""

    def pair(x):
        kw = {"distribution": ZeroPeakedGaussian(x)} if name == "sigma" else {name: x}
        return conv_cfg(trials=2, **kw), prop_cfg(trials=2, **kw)

    want, got = (run_comparison(*pair(x)) for x in (value, np.float32(value)))
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_numpy_unit_energy_reports_like_a_python_float():
    conv, prop = default_tables()
    tables = (dataclasses.replace(conv, sram_cell_access=np.float32(28.0)), prop)
    want, got = (
        run_comparison(conv_cfg(trials=2), prop_cfg(trials=2), tables=t)
        for t in ((conv, prop), tables)
    )
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


@pytest.mark.parametrize("value", ["1", True])
def test_wrong_typed_unit_energy_names_the_unit(value):
    with pytest.raises(EnergyModelError) as exc:
        dataclasses.replace(default_tables()[0], sram_cell_access=value)
    assert str(exc.value) == f"unit energy sram_cell_access must be a number, got {value!r}"


def test_wrong_typed_explicit_inputs_name_the_field():
    with pytest.raises(ConfigError) as exc:
        Explicit(("0.5", True, 0, 0), ("0.25", False, 0, 0))
    assert str(exc.value) == "explicit samples[0] must be a number, got '0.5'"
    with pytest.raises(ConfigError) as exc:
        Explicit((0.5, 1, 0, 0), (0.25, False, 0, 0))
    assert str(exc.value) == "explicit weights[1] must be a number, got False"
    # ints and numpy floats are kept as Python floats, as the config reader keeps them
    dist = Explicit((0, 1), (np.float32(0.25), -1))
    assert (dist.samples, dist.weights) == ((0.0, 1.0), (0.25, -1.0))
    assert {type(x) for x in (*dist.samples, *dist.weights)} == {float}


def test_integer_vdd_is_echoed_as_an_integer():
    for vdd in (1, np.int64(1)):
        assert json.dumps(conv_cfg(vdd=vdd).to_json_dict()["vdd"]) == "1"
    assert type(MacConfig(3, 2, np.float32(0.5)).vdd) is float


@pytest.mark.parametrize("sigma", ["0.1", True, None])
def test_wrong_typed_sigma_names_the_field(sigma):
    with pytest.raises(ConfigError) as exc:
        ZeroPeakedGaussian(sigma)
    assert str(exc.value) == f"sigma must be a number, got {sigma!r}"


def test_numpy_integer_widths_build_the_same_tables():
    assert np.array_equal(lfsr.state_table(np.int64(5), (5, 3)), lfsr.state_table(5, (5, 3)))
    register = lfsr.Lfsr(np.int64(4), (4, 3), np.int64(8))
    assert (type(register.width), type(register.state)) == (int, int)
    assert type(MacConfig(np.int64(3), np.int64(2)).m) is int


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: conv_cfg(distribution=None), ConfigError, "distribution must be an Input"),
        (lambda: conv_cfg(distribution="uniform"), ConfigError, "distribution must be an Input"),
        (lambda: conv_cfg(n_inputs="3"), ConfigError, "n_inputs must be an integer, got '3'"),
        (lambda: prop_cfg(m=None), ConfigError, "m must be an integer, got None"),
        (lambda: prop_cfg(vdd="1"), ConfigError, "vdd must be a number, got '1'"),
        (lambda: conv_cfg(output_rate_hz=None), ConfigError, "output_rate_hz must be a number"),
        (lambda: conv_cfg(flip_probability="0"), ConfigError, "flip_probability must be a number"),
        (lambda: MacConfig(3, 2, "1"), MacError, "vdd must be a number, got '1'"),
    ],
    ids=("dist-none", "dist-str", "n_inputs", "m", "vdd", "rate", "flip", "mac-vdd"),
)
def test_wrong_typed_run_fields_name_the_field(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value).startswith(message)


def test_pipeline_config_adds_only_the_variant():
    run_fields = [f.name for f in fields(pipelines.RunConfig)]
    assert [f.name for f in fields(PipelineConfig)] == [*run_fields, "variant"]


@pytest.mark.parametrize(
    "kw",
    [{"vdd": float("inf")}, {"seed": -1}, {"output_rate_hz": float("inf")}],
)
def test_config_rejects_non_finite_and_negative_values(kw):
    with pytest.raises(ConfigError):
        prop_cfg(**kw)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: Explicit((0.5,), (0.5,)).draw(np.random.default_rng(1), 2),
            ConfigError,
            "has 1 entries, need 2",
            id="explicit_draw",
        ),
    ],
)
def test_distribution_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
