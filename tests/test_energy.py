"""Energy tables, activity pricing, efficiency/FoM math, gating statistics."""

import pytest

from scmac import (
    ActivityLog,
    ConfigError,
    EnergyModelError,
    EnergyReport,
    EnergyTable,
    accumulate,
    calibrated_activity,
    config_from_dict,
    default_tables,
    efficiency,
    expected_enabled_sas,
    fom,
    gating_energy_saving,
    naive_activity,
    reduction_percent,
)
from scmac.energy import (
    EVENT_KEYS,
    brute_force_enabled_average,
    uniform_survival,
    zero_peaked_survival,
)


def test_default_table_values():
    conv, prop = default_tables()
    assert conv.sram_cell_access == 28.00
    assert conv.adc_convert == 2150.0  # 2.15 pJ in fJ
    assert conv.bsc_convert == 141.61  # LFSR + comparator unit
    assert conv.sbc_convert == 185.54  # counter unit
    assert conv.sc_logic_eval == 20.26
    assert prop.sram_cell_access == 28.00
    assert prop.asc_convert == 16.20
    assert prop.mixed_signal_mac_eval == 11.86
    assert prop.sa_fire == pytest.approx(16.20 / 15)
    # eliminated modules price to zero on the proposed side
    assert prop.adc_convert == 0.0
    assert prop.bsc_convert == 0.0
    assert prop.sbc_convert == 0.0


def test_event_keys_keep_their_order():
    # the order sets the rows of the energy CSV and of the printed module table
    assert EVENT_KEYS == (
        "sram_cell_access",
        "adc_convert",
        "bsc_convert",
        "sbc_convert",
        "sc_logic_eval",
        "asc_convert",
        "mixed_signal_mac_eval",
        "sa_fire",
    )


def test_accumulate_empty_log():
    assert accumulate(ActivityLog(), default_tables()[1]).total_fj == 0.0


def test_accumulate_unit_example():
    log = ActivityLog({"sram_cell_access": 1, "asc_convert": 1, "mixed_signal_mac_eval": 1})
    report = accumulate(log, default_tables()[1])
    assert report.total_fj == pytest.approx(28.0 + 16.2 + 11.86)  # 56.06


def test_accumulate_linear_in_counts():
    log = ActivityLog({"sram_cell_access": 5, "adc_convert": 3, "sc_logic_eval": 2})
    single = accumulate(log, default_tables()[0])
    double = accumulate(log + log, default_tables()[0])
    for key, val in single.categories_fj.items():
        assert double.categories_fj[key] == pytest.approx(2 * val)
    assert double.total_fj == pytest.approx(2 * single.total_fj)


def test_activity_log_guards():
    log = ActivityLog()
    with pytest.raises(EnergyModelError):
        log.record("warp_drive", 1)
    with pytest.raises(EnergyModelError):
        log.record("adc_convert", -1)
    log.note("anything_goes", 3)
    assert log.meta["anything_goes"] == 3


def test_merge_is_associative():
    a = ActivityLog({"adc_convert": 1})
    b = ActivityLog({"adc_convert": 2, "sram_cell_access": 5})
    c = ActivityLog({"sa_fire": 7})
    assert (a + b) + c == a + (b + c)


def test_efficiency_examples():
    assert efficiency(150, 0.91e-12) * 1e-12 == pytest.approx(164.8, abs=0.1)
    assert efficiency(1, 1e-12) * 1e-12 == pytest.approx(1.0)
    assert efficiency(599, 0.91e-12) * 1e-12 == pytest.approx(658.2, abs=0.1)


def test_efficiency_guards():
    with pytest.raises(EnergyModelError):
        efficiency(0, 1e-12)
    with pytest.raises(EnergyModelError):
        efficiency(10, 0.0)


def test_accumulate_rejects_finite_units_that_overflow():
    table = EnergyTable(asc_convert=1e308, sa_fire=1e308)
    assert accumulate(ActivityLog({"sa_fire": 1}), table).total_fj == 1e308
    with pytest.raises(EnergyModelError, match="total overflows"):
        accumulate(ActivityLog({"sa_fire": 2}), table)
    with pytest.raises(EnergyModelError, match="total overflows"):
        accumulate(ActivityLog({"sa_fire": 1, "asc_convert": 1}), table)
    # the total fits, the power it draws at this rate does not
    log = ActivityLog({"sa_fire": 1})
    assert accumulate(log, EnergyTable(sa_fire=1e300), rate_hz=1e8).power_uw == pytest.approx(1e299)
    with pytest.raises(EnergyModelError, match="power overflows"):
        accumulate(log, EnergyTable(sa_fire=1e300), rate_hz=1e10)


def test_derived_figures_reject_overflow():
    with pytest.raises(EnergyModelError, match="efficiency overflows"):
        efficiency(150, 1e-310)
    with pytest.raises(EnergyModelError, match="overflows the reduction"):
        reduction_percent(EnergyReport({"sa_fire": 1e-10}), EnergyReport({"sa_fire": 1e300}))


def test_fom_examples():
    assert fom(0.91e-12, 2395, 1) / 1e-15 == pytest.approx(0.38, abs=0.005)
    assert fom(1e-12, 1, 1) == pytest.approx(1e-12)
    assert fom(1e-12, 10, 4) == pytest.approx(fom(1e-12, 10, 2) / 2)


def test_reduction_examples():
    base = EnergyReport({"adc_convert": 100.0})
    assert reduction_percent(base, EnergyReport({"adc_convert": 100.0})) == 0.0
    assert reduction_percent(base, EnergyReport({"adc_convert": 50.0})) == 50.0
    with pytest.raises(EnergyModelError):
        reduction_percent(EnergyReport({}), base)


def test_reduction_invariant_under_table_scaling():
    conv_log, prop_log = calibrated_activity()
    conv, prop = default_tables()
    r1 = reduction_percent(accumulate(conv_log, conv), accumulate(prop_log, prop))
    scaled_conv = EnergyTable(**{k: 3.0 * v for k, v in conv.as_dict().items()})
    scaled_prop = EnergyTable(**{k: 3.0 * v for k, v in prop.as_dict().items()})
    r2 = reduction_percent(
        accumulate(conv_log, scaled_conv), accumulate(prop_log, scaled_prop)
    )
    assert r1 == pytest.approx(r2, abs=1e-9)


def test_power_exact_at_headline_numbers():
    report = EnergyReport({"mixed_signal_mac_eval": 910.0}, rate_hz=10e6)
    assert report.power_uw == 9.1
    assert f"{report.power_uw:.2f}" == "9.10"


def test_calibrated_profile_reproduces_headline():
    conv_log, prop_log = calibrated_activity()
    conv, prop = default_tables()
    conv_report = accumulate(conv_log, conv, rate_hz=10e6)
    prop_report = accumulate(prop_log, prop, rate_hz=10e6)
    assert prop_report.per_output_fj == pytest.approx(909.8)
    assert f"{prop_report.per_output_pj:.2f}" == "0.91"
    assert f"{prop_report.power_uw:.2f}" == "9.10"
    red = reduction_percent(conv_report, prop_report)
    assert red == pytest.approx(82.1, abs=1.0)


def test_naive_profile_lands_in_expected_band():
    conv_log, prop_log = naive_activity(300)
    conv, prop = default_tables()
    red = reduction_percent(accumulate(conv_log, conv), accumulate(prop_log, prop))
    assert 80.0 < red < 99.0
    # the ADC line dominates the conventional side
    conv_report = accumulate(conv_log, conv)
    assert conv_report.categories_fj["adc_convert"] > 0.5 * conv_report.total_fj


def test_expected_enabled_uniform_closed_form():
    # E = 1 + sum_{i=1}^{m-1} (1 - i/(m+1)); m=3 gives 2.25
    assert expected_enabled_sas(3, uniform_survival) == pytest.approx(2.25)
    m = 15
    expect = 1 + sum(1 - i / 16 for i in range(1, 15))
    assert expected_enabled_sas(m, uniform_survival) == pytest.approx(expect)


def test_uniform_brute_force_matches_closed_form():
    m = 15
    grid = [(k + 0.5) / 40001 for k in range(40001)]
    brute = brute_force_enabled_average(m, grid)
    closed = expected_enabled_sas(m, uniform_survival)
    assert abs(brute - closed) / closed <= 1e-3


def test_expected_asc_energy_is_sa_fire_weighted():
    """E[ASC energy] = E[enabled] * sa_fire, cross-checked by brute force."""
    m = 15
    sa_unit = default_tables()[1].sa_fire
    grid = [(k + 0.5) / 20001 for k in range(20001)]
    brute_energy = brute_force_enabled_average(m, grid) * sa_unit
    closed_energy = expected_enabled_sas(m, uniform_survival) * sa_unit
    assert abs(brute_energy - closed_energy) / closed_energy <= 1e-3
    # full enable prices to the flat conversion energy
    assert m * sa_unit == pytest.approx(default_tables()[1].asc_convert)


def test_zero_peaked_saving_beats_uniform():
    m = 15
    uniform_saving = gating_energy_saving(m, expected_enabled_sas(m, uniform_survival))
    gauss_saving = gating_energy_saving(
        m, expected_enabled_sas(m, zero_peaked_survival(0.15))
    )
    assert gauss_saving > uniform_saving


def test_zero_peaked_survival_shape():
    s = zero_peaked_survival(0.15)
    assert s(0.0) == 1.0
    assert s(1.5) == 0.0
    assert 0.0 < s(0.5) < s(0.1) < 1.0


def test_report_json_has_all_derived_figures():
    report = EnergyReport(
        {"mixed_signal_mac_eval": 910.0},
        rate_hz=10e6,
        efficiency_ops={"back_solved": 150},
        fom_steps=2395,
        fom_ops=1,
    )
    d = report.to_json_dict()
    assert d["per_output_pj"] == pytest.approx(0.91)
    assert d["power_uw"] == 9.1
    assert d["efficiency_tops_per_watt"]["back_solved"] == pytest.approx(164.8, abs=0.1)
    assert d["fom_fj_per_step"] == pytest.approx(0.38, abs=0.005)
    assert set(d["categories_fj"]) <= set(EVENT_KEYS)


def test_table_rejects_unknown_and_negative():
    # the config reader owns the unit names a table side may set
    with pytest.raises(ConfigError, match=r"energy_tables\.proposed: \['flux_capacitor'\]"):
        config_from_dict({"energy_tables": {"proposed": {"flux_capacitor": 1.0}}})
    with pytest.raises(EnergyModelError):
        EnergyTable(sram_cell_access=-1.0)


def test_accumulate_rejects_unpriceable_log():
    # a log key outside the table name set is impossible via record();
    # simulate a stale log by poking the dict directly
    log = ActivityLog()
    log.counts["not_a_module"] = 3
    with pytest.raises(EnergyModelError):
        accumulate(log, default_tables()[0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: fom(1e-12, 0, 1), EnergyModelError, "positive", id="fom"),
        pytest.param(lambda: naive_activity(0), EnergyModelError, "n_inputs", id="naive"),
        pytest.param(
            lambda: expected_enabled_sas(0, uniform_survival), EnergyModelError, "m must", id="sas"
        ),
        pytest.param(
            lambda: brute_force_enabled_average(15, []), EnergyModelError, "one sample", id="brute"
        ),
    ],
)
def test_energy_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()
