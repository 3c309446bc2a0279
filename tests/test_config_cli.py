"""Config schema handling and the command-line front end."""

import json
import os

import pytest

from scmac import ConfigError, config_from_dict, default_config, load_config
from scmac.cli import comparison_summary_lines, main
from scmac.distributions import Explicit, Uniform, ZeroPeakedGaussian


def test_default_config_round_trips():
    cfg = default_config()
    again = config_from_dict(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()


def test_config_defaults():
    cfg = default_config()
    assert cfg.n_inputs == 300 and cfg.m == 15 and cfg.binary_bits == 4
    assert cfg.output_rate_hz == 10e6
    assert isinstance(cfg.distribution, ZeroPeakedGaussian)
    assert cfg.efficiency_ops == {"back_solved": 150, "structural_2n_minus_1": 599}


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"pipelines": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"pipeline": {"n_input": 4}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"energy_profile": "optimistic"}})


def test_config_rejects_wrong_version():
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 2})


def test_config_distribution_parsing():
    cfg = config_from_dict({"pipeline": {"input_distribution": {"kind": "uniform"}}})
    assert isinstance(cfg.distribution, Uniform)
    cfg = config_from_dict(
        {
            "pipeline": {
                "input_distribution": {
                    "kind": "explicit",
                    "samples": [0.1, 0.2],
                    "weights": [0.5, -0.5],
                },
                "n_inputs": 2,
            }
        }
    )
    assert isinstance(cfg.distribution, Explicit)
    with pytest.raises(ConfigError):
        config_from_dict({"pipeline": {"input_distribution": {"kind": "cauchy"}}})


def test_config_table_overrides():
    cfg = config_from_dict(
        {"energy_tables": {"proposed": {"asc_convert": 10.0, "sram_cell_access": 20.0}}}
    )
    assert cfg.tables[1].asc_convert == 10.0
    assert cfg.tables[0].adc_convert == 2150.0  # untouched side keeps defaults


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_cli_mac_worked_example(capsys):
    rc = main(["mac", "--in", "110,111", "--w", "+100,-110", "--m", "3", "--vdd", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "V = 0.357142857 V" in out
    assert "decoded = -1" in out
    assert "n_p = 1, n_n = 2" in out


def test_cli_mac_size_mismatch_exit_3(capsys):
    assert main(["mac", "--in", "110", "--w", "+100,-110"]) == 3
    assert main(["mac", "--in", "110,11", "--w", "+100,-110"]) == 3


def test_cli_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"pipeline": {"n_inputs": -3}}))
    assert main(["compare", "--config", str(p)]) == 2
    p.write_text("{{{")
    assert main(["compare", "--config", str(p)]) == 2


def test_cli_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--warp", "9"])
    assert exc.value.code == 2


def test_cli_io_failure_exit_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(
        [
            "compare",
            "--trials",
            "2",
            "--n-inputs",
            "4",
            "--out",
            str(blocker / "sub"),
        ]
    )
    assert rc == 4


def test_cli_compare_prints_reduction(tmp_path, capsys):
    rc = main(
        ["compare", "--trials", "3", "--n-inputs", "8", "--seed", "5", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "reduction: 82.1%" in out
    assert (tmp_path / "compare_summary.json").exists()
    assert (tmp_path / "compare_trials_conventional.csv").exists()
    assert (tmp_path / "compare_energy.csv").exists()


def test_cli_compare_deterministic_bytes(tmp_path, capsys):
    args = ["compare", "--trials", "4", "--n-inputs", "8", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in (
        "compare_summary.json",
        "compare_trials_conventional.csv",
        "compare_trials_proposed.csv",
        "compare_energy.csv",
    ):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_cli_seed_changes_outputs(tmp_path, capsys):
    base = ["compare", "--trials", "4", "--n-inputs", "8", "--format", "csv"]
    main(base + ["--seed", "1", "--out", str(tmp_path / "a")])
    main(base + ["--seed", "2", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "compare_trials_conventional.csv").read_bytes()
    b = (tmp_path / "b" / "compare_trials_conventional.csv").read_bytes()
    assert a != b


def test_report_reparse_reproduces_summary(tmp_path, capsys):
    rc = main(
        ["compare", "--trials", "3", "--n-inputs", "8", "--seed", "5", "--out", str(tmp_path)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    d = json.loads((tmp_path / "compare_summary.json").read_text())
    rendered = "\n".join(comparison_summary_lines(d))
    assert rendered in printed


def test_cli_format_selects_files(tmp_path, capsys):
    main(
        [
            "compare",
            "--trials",
            "2",
            "--n-inputs",
            "4",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        ]
    )
    capsys.readouterr()
    assert (tmp_path / "compare_summary.json").exists()
    assert not (tmp_path / "compare_trials_conventional.csv").exists()


def test_cli_profile_override(tmp_path, capsys):
    rc = main(["compare", "--trials", "2", "--n-inputs", "300", "--profile", "naive"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "energy profile: naive" in out


def test_cli_sweep_writes_grid(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--trials",
            "2",
            "--seed",
            "4",
            "--n-inputs",
            "4,8",
            "--length",
            "15,64",
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    rows = json.loads((tmp_path / "sweep_results.json").read_text())
    assert len(rows) == 4
    assert {(r["n_inputs"], r["stream_length"]) for r in rows} == {
        (4, 15),
        (4, 64),
        (8, 15),
        (8, 64),
    }
    assert (tmp_path / "sweep_results.csv").exists()


def test_cli_asc_stats(tmp_path, capsys):
    rc = main(["asc-stats", "--m", "15", "--sigma", "0.15", "--grid", "4001", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "uniform" in out and "zero_peaked_gaussian" in out
    d = json.loads((tmp_path / "asc_stats.json").read_text())
    savings = {e["distribution"]: e["saving"] for e in d["closed_form"]}
    assert savings["zero_peaked_gaussian(sigma=0.15)"] > savings["uniform"]


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        '{"mac": {"vdd": Infinity}}',
        '{"experiment": {"seed": -1}}',
        '{"pipeline": {"output_rate_hz": Infinity}}',
        '{"pipeline": {"n_inputs": Infinity}}',
        '{"experiment": {"trials": NaN}}',
        '{"pipeline": {"lfsr_width": 4, "lfsr_taps": [4, 2], "stream_length": 6}}',
        '{"pipeline": {"lfsr_width": 4, "lfsr_taps": [3]}}',
        '{"pipeline": {"binary_bits": 64}}',
    ],
)
def test_cli_rejects_bad_values_exit_2(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    out = tmp_path / "out"
    argv = ["compare", "--config", str(p), "--trials", "2", "--n-inputs", "4", "--out", str(out)]
    rc = main(argv)
    assert rc == 2
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


def test_replace_leaves_original_efficiency_ops_alone():
    import dataclasses

    cfg = default_config()
    small = dataclasses.replace(cfg, n_inputs=64)
    assert small.efficiency_ops["structural_2n_minus_1"] == 127
    assert cfg.efficiency_ops == {"back_solved": 150, "structural_2n_minus_1": 599}


def test_zero_inputs_error_names_n_inputs():
    with pytest.raises(ConfigError, match="n_inputs"):
        config_from_dict({"pipeline": {"n_inputs": 0}})
