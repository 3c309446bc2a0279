"""Config schema handling and the command-line front end."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

from scmac import (
    ConfigError,
    cli,
    config,
    config_from_dict,
    default_config,
    energy,
    load_config,
    pipelines,
)
from scmac.cli import comparison_summary_lines, main
from scmac.distributions import Explicit, Uniform, ZeroPeakedGaussian
from scmac.energy import CONVENTIONAL_TABLE, PROPOSED_TABLE, default_tables
from scmac.lfsr import MAXIMAL_TAPS


def test_default_config_round_trips():
    cfg = default_config()
    again = config_from_dict(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()


def test_config_setting_every_section_round_trips():
    conv, prop = (table.as_dict() for table in default_tables())
    conv["sram_cell_access"] = 30.0
    prop["asc_convert"] = 12.5
    raw = {
        "schema_version": 1,
        "pipeline": {
            "n_inputs": 3,
            "binary_bits": 5,
            "stream_length": 20,
            "lfsr_width": 5,
            "lfsr_taps": [5, 3],
            "output_rate_hz": 2e6,
            "flip_probability": 0.01,
            "input_distribution": {
                "kind": "explicit",
                "samples": [0.1, 0.5, 0.9],
                "weights": [0.2, -0.7, 1.0],
            },
        },
        "mac": {"m": 7, "vdd": 0.9},
        "energy_tables": {"conventional": conv, "proposed": prop},
        "experiment": {
            "trials": 6,
            "seed": 11,
            "energy_profile": "measured",
            "efficiency_ops": {"back_solved": 120, "other": 7},
            "fom_steps": 100,
            "fom_ops": 3,
        },
    }
    cfg = config_from_dict(raw)
    assert cfg.lfsr_taps == (5, 3) and isinstance(cfg.distribution, Explicit)
    assert cfg.tables[0].sram_cell_access == 30.0 and cfg.tables[1].asc_convert == 12.5
    # every key is written back as read; the 2N-1 op count is added only when pricing
    assert cfg.to_json_dict() == raw
    again = config_from_dict(cfg.to_json_dict())
    assert again == cfg and again.to_json_dict() == raw


def test_config_defaults():
    cfg = default_config()
    assert cfg.n_inputs == 300 and cfg.m == 15 and cfg.binary_bits == 4
    assert cfg.output_rate_hz == 10e6
    assert isinstance(cfg.distribution, ZeroPeakedGaussian)
    assert cfg.efficiency_ops == {}


def test_experiment_config_adds_only_the_pricing_fields():
    run_fields = {f.name for f in dataclasses.fields(pipelines.RunConfig)}
    own = {f.name for f in dataclasses.fields(config.ExperimentConfig)} - run_fields
    assert own == {"tables", "energy_profile", "efficiency_ops", "fom_steps", "fom_ops"}


def test_experiment_config_pricing_is_the_comparison_keywords():
    # run_comparisons takes the fields of Pricing as its pricing keywords
    run_fields = {f.name for f in dataclasses.fields(pipelines.RunConfig)}
    own = [f.name for f in dataclasses.fields(config.ExperimentConfig) if f.name not in run_fields]
    assert own == [f.name for f in dataclasses.fields(energy.Pricing)]
    assert list(default_config().pricing) == own
    with pytest.raises(TypeError, match="bogus"):
        pipelines.run_comparisons([], bogus=1)


# the second config sets every run field away from both classes' defaults
@pytest.mark.parametrize(
    "cfg",
    [
        default_config(),
        dataclasses.replace(
            default_config(),
            n_inputs=5,
            m=7,
            vdd=0.8,
            binary_bits=5,
            stream_length=9,
            lfsr_width=4,
            lfsr_taps=(4, 3),
            output_rate_hz=2e6,
            distribution=Uniform(),
            flip_probability=0.01,
            trials=3,
            seed=9,
        ),
    ],
    ids=["default", "changed"],
)
@pytest.mark.parametrize("variant", pipelines.VARIANTS)
def test_pipeline_config_carries_every_run_field(cfg, variant):
    run = cfg.pipeline_config(variant)
    assert run.variant == variant
    for f in dataclasses.fields(pipelines.RunConfig):
        # a run echoes the shipped taps where the config names none
        value = getattr(cfg, f.name)
        expected = MAXIMAL_TAPS[cfg.lfsr_width] if value is None else value
        assert getattr(run, f.name) == expected, f.name


def test_experiment_config_is_frozen():
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 2


def test_config_without_taps_writes_null_taps():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.json")
    assert load_config(path).to_json_dict()["pipeline"]["lfsr_taps"] is None


def _explicit(sample, weight):
    return {"kind": "explicit", "samples": [sample], "weights": [weight]}


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"pipelines": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"pipeline": {"n_input": 4}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": {"energy_profile": "optimistic"}})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"experiment": {"efficiency_ops": {"x": 0}}}, "efficiency_ops.x must be positive"),
        (
            {"pipeline": {"input_distribution": _explicit(1.5, 0.5)}},
            r"explicit samples must lie in \[0, 1\]",
        ),
        (
            {"pipeline": {"input_distribution": _explicit(0.5, -1.5)}},
            r"explicit weights must lie in \[-1, 1\]",
        ),
    ],
)
def test_config_rejects_out_of_range_values(raw, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_config_rejects_wrong_version():
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 2})


def test_config_distribution_parsing(tmp_path, capsys, monkeypatch):
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
    # each kind reads only its own keys, so another kind's key is a config error
    for distribution, key in [
        ({"kind": "uniform", "sigma": 0.3}, "sigma"),
        ({"kind": "zero_peaked_gaussian", "samples": [1]}, "samples"),
        ({"kind": "explicit", "samples": [0.5], "weights": [0.5], "sigma": 0.3}, "sigma"),
        ({"kind": "explicit", "samples": [0.5]}, "weights"),
    ]:
        raw = {"pipeline": {"input_distribution": distribution}}
        _assert_rejected(tmp_path, capsys, monkeypatch, json.dumps(raw), key)


def test_config_table_overrides():
    cfg = config_from_dict(
        {"energy_tables": {"proposed": {"asc_convert": 10.0, "sram_cell_access": 20.0}}}
    )
    # a named side keeps the shipped energy of every unit it leaves out
    assert cfg.tables[1] == dataclasses.replace(
        PROPOSED_TABLE, asc_convert=10.0, sram_cell_access=20.0
    )
    assert cfg.tables[0] == CONVENTIONAL_TABLE  # untouched side keeps defaults
    cfg = config_from_dict({"energy_tables": {"conventional": {"sram_cell_access": 30.0}}})
    assert cfg.tables == (
        dataclasses.replace(CONVENTIONAL_TABLE, sram_cell_access=30.0),
        PROPOSED_TABLE,
    )


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    # json raises a plain ValueError for an int longer than Python converts
    bad.write_text('{"experiment": {"seed": ' + "1" * 5000 + "}}")
    with pytest.raises(ConfigError, match="not valid JSON"):
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
    """Identical in-process runs write identical bytes through the one parser,
    also with a run of other flags between them."""
    args = ["compare", "--trials", "4", "--n-inputs", "8", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    other = ["compare", "--trials", "2", "--seed", "3", "--format", "csv", "--profile", "naive"]
    assert main(other + ["--out", str(tmp_path / "other")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert cli.build_parser() is cli.build_parser()
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


def test_cli_rerun_into_one_directory_replaces_only_changed_reports(tmp_path, capsys, monkeypatch):
    """A report that already holds the new bytes is left alone; any other is replaced."""
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(cli.os, "replace", lambda a, b: (replaced.append(b), real_replace(a, b)))
    # measured energies follow the inputs, so a new seed changes all four reports
    args = ["compare", "--trials", "2", "--n-inputs", "4", "--profile", "measured"]
    args += ["--out", str(tmp_path)]
    assert main(args) == 0
    assert len(replaced) == 4
    first = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
    replaced.clear()
    assert main(args) == 0
    assert replaced == []
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()} == first
    assert main(args + ["--seed", "2"]) == 0
    assert sorted(os.path.basename(p) for p in replaced) == sorted(first)
    capsys.readouterr()


# sha256 of the help text at 80 columns, recorded while `main` built a new
# parser per call
HELP_GOLDEN = {
    (): "60f921d4d8bfd7bdfe191a51b7a6028eab0f1b181e79d3b5f69db349d3333195",
    ("compare",): "7e0cfa6bcf17ae39e0aff8f4c507148d46ef14e4538e3211d4dd0df0f9e219cb",
    ("sweep",): "8859de333d41141dae223d14ce7a4217d8bdc9a4a54c82c4036bacad7d918299",
    ("asc-stats",): "c496c9b636048d26fc5b8a0df220be645d0fefc9acff5cfe13d3d4ada2dbbe6a",
}


def test_cli_help_text_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        for command, digest in HELP_GOLDEN.items():
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


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


@pytest.mark.parametrize(
    "flags", (["--m", "a"], ["--flip-p", "0.1,zz"], ["--m", ","]), ids=("int", "float", "empty")
)
def test_cli_sweep_rejects_bad_lists(flags, tmp_path, capsys):
    rc = main(["sweep", "--trials", "2", *flags, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad config:") and "comma-separated list" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_compare_flags_land_on_their_fields(capsys, monkeypatch):
    # flags are read by field name, so a flag whose dest drifted from its
    # field would be dropped without an error
    seen = []
    real = cli._comparison_for

    def spy(cfg):
        seen.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "_comparison_for", spy)
    argv = ["compare", "--seed", "7", "--m", "9", "--n-inputs", "5", "--length", "31"]
    argv += ["--flip-p", "0.125", "--trials", "3", "--profile", "naive", "--sigma", "0.25"]
    assert main(argv) == 0
    capsys.readouterr()
    expected = dataclasses.replace(
        default_config(),
        seed=7,
        m=9,
        n_inputs=5,
        stream_length=31,
        flip_probability=0.125,
        trials=3,
        energy_profile="naive",
        distribution=ZeroPeakedGaussian(0.25),
    )
    assert seen == [expected]


def test_cli_sweep_keeps_configured_efficiency_ops(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cfg.json"
    cfg = default_config().to_json_dict()
    cfg["experiment"]["efficiency_ops"] = {"back_solved": 150, "paper_ops": 42}
    path.write_text(json.dumps(cfg))
    seen, priced = [], []
    real = cli._comparisons_for

    def spy(base, pairs):
        seen.extend(dict(base.efficiency_ops) for _ in pairs)
        results = real(base, pairs)
        priced.extend(result.proposed.energy.efficiency_ops for result in results)
        return results

    monkeypatch.setattr(cli, "_comparisons_for", spy)
    rc = main(["sweep", "--config", str(path), "--trials", "2", "--n-inputs", "4,8"])
    capsys.readouterr()
    assert rc == 0
    # each point takes the configured labels; pricing adds its own 2N-1 count
    assert seen == [{"back_solved": 150, "paper_ops": 42}] * 2
    assert priced == [
        {"back_solved": 150, "paper_ops": 42, "structural_2n_minus_1": 2 * n - 1} for n in (4, 8)
    ]


def test_cli_sweep_makes_one_comparisons_call(capsys, monkeypatch):
    """`run_comparisons` finds the families of the grid, so the sweep hands it every point."""
    calls = []
    real = cli._comparisons_for

    def spy(base, pairs):
        calls.append(len(pairs))
        return real(base, pairs)

    monkeypatch.setattr(cli, "_comparisons_for", spy)
    assert main(["sweep", "--m", "3,5", "--n-inputs", "4,8", "--trials", "2"]) == 0
    capsys.readouterr()
    assert calls == [4]


def _explicit_config(tmp_path, n: int) -> str:
    path = tmp_path / "explicit.json"
    dist = {"kind": "explicit", "samples": [0.5] * n, "weights": [-0.25] * n}
    path.write_text(json.dumps({"pipeline": {"n_inputs": n, "input_distribution": dist}}))
    return str(path)


@pytest.mark.parametrize(
    "flags, message",
    [
        # the second length is past the width-15 period
        (["--length", "15,40000"], "stream_length must lie in [1, 32767]"),
        (["--n-inputs", "4,4000000000000000000000000"], "m * n_inputs = 6.000e+25 exceeds"),
        (["--m", "3,0"], "m must be positive, got 0"),
        (["--flip-p", "0,1.5"], "flip_probability must lie in [0, 1]"),
        # the explicit lists hold four entries, which the second point does not take
        (["--config", "EXPLICIT", "--n-inputs", "4,8"], "has 4 entries, need n_inputs = 8"),
    ],
    ids=("length", "n_inputs", "m", "flip", "explicit"),
)
def test_cli_sweep_validates_every_point_before_drawing(
    flags, message, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(pipelines, "_draw_trials", lambda *args: pytest.fail("drew trials"))
    flags = [_explicit_config(tmp_path, 4) if flag == "EXPLICIT" else flag for flag in flags]
    out = tmp_path / "out"
    rc = main(["sweep", "--trials", "2", "--n-inputs", "4", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.startswith("error: bad config:") and message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_sweep_runs_explicit_inputs_of_the_right_length(tmp_path, capsys):
    rc = main(["sweep", "--config", _explicit_config(tmp_path, 4), "--trials", "2"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("m=15 n=4 L=15 sigma=None p=0.0: ")


def test_cli_sweep_keeps_the_grid_order(tmp_path, capsys):
    """Families share a draw, yet rows and lines follow the (m, N, L, sigma, flip) grid order."""
    argv = ["sweep", "--trials", "3", "--seed", "5", "--n-inputs", "4", "--m", "3,5"]
    argv += ["--length", "15,64", "--sigma", "0.1,0.3", "--flip-p", "0,0.1", "--out", str(tmp_path)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    rows = json.loads((tmp_path / "sweep_results.json").read_text())
    grid = list(itertools.product((3, 5), (4,), (15, 64), (0.1, 0.3), (0.0, 0.1)))
    base = dataclasses.replace(default_config(), trials=3, seed=5)
    # each point run on its own, as the sweep ran them before families shared a draw
    points = [dataclasses.replace(base, **cli._sweep_fields(*key)) for key in grid]
    want = [cli._sweep_report(*key, cli._comparison_for(p)) for key, p in zip(grid, points)]
    assert rows == [row for row, _ in want]
    assert printed[: len(grid)] == [line for _, line in want]


def test_cli_asc_stats(tmp_path, capsys):
    rc = main(["asc-stats", "--m", "15", "--sigma", "0.15", "--grid", "4001", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "uniform" in out and "zero_peaked_gaussian" in out
    d = json.loads((tmp_path / "asc_stats.json").read_text())
    savings = {e["distribution"]: e["saving"] for e in d["closed_form"]}
    assert savings["zero_peaked_gaussian(sigma=0.15)"] > savings["uniform"]
    # recorded while the brute force still stepped the scalar converter per point
    printed = hashlib.sha256(out.replace(str(tmp_path), "OUT").encode()).hexdigest()
    written = hashlib.sha256((tmp_path / "asc_stats.json").read_bytes()).hexdigest()
    assert (printed, written) == (
        "6556c64edb412bd6423ec03840b57104c98efcf94abc2f479aab6ff086d2b87c",
        "9267fa99184889859a70f850b4f3873dfa25e7188f2a2b724c67b4f83a39473e",
    )


# asc_stats.json sha256 at m=15 and the default sigma, recorded while the
# grid was a Python list of (k + 0.5) / grid
ASC_GRID_GOLDEN = {
    1: "9ad5ee68c924681b6f92360b128e81dfc3e9ae76e34cf0e734a7e955b999e2c2",
    2: "d2070e0164875000f90da149d127b6a3037620397312bb25fcae41e326fa3972",
    3: "f9c303a09749ab6a622ad27a97bb23d749e63bdada100220b1a9d4b4eb47225f",
    40001: "12bdee75e4d9ca1e0b19167013bb714c2e5a080c0b9f6c8d704c54abcfbcaab8",
    50001: "45ad22961e3d3affc22d0f5209c61c4d834107e0a4924ff5b1ef9f7fa1962553",
    cli.MAX_ASC_GRID: "12e6b8ebe986890d295deda464620d5b2461d366ee2b7815afbf63713345e732",
}


@pytest.mark.parametrize("grid", sorted(ASC_GRID_GOLDEN))
def test_cli_asc_stats_grid_report_is_unchanged(grid, tmp_path, capsys):
    assert main(["asc-stats", "--grid", str(grid), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = hashlib.sha256((tmp_path / "asc_stats.json").read_bytes()).hexdigest()
    assert written == ASC_GRID_GOLDEN[grid]


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "PASS" in capsys.readouterr().out


def _assert_rejected(tmp_path, capsys, monkeypatch, text: str, key: str) -> str:
    """`compare` on this config text exits 2 naming `key`, before any draw and any report."""
    p = tmp_path / "cfg.json"
    p.write_text(text)
    out = tmp_path / "out"
    argv = ["compare", "--config", str(p), "--trials", "2", "--n-inputs", "4", "--out", str(out)]
    # a config error must come before any trial is drawn
    monkeypatch.setattr(pipelines, "_draw_trials", lambda *args: pytest.fail("drew trials"))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: bad config:") and "Traceback" not in err
    assert key in err, err
    assert not out.exists()
    return err


def _probe(text: str, key: str):
    return pytest.param(text, key, id=text)


@pytest.mark.parametrize(
    "text, key",
    [
        _probe('{"mac": {"vdd": Infinity}}', "vdd"),
        _probe('{"experiment": {"seed": -1}}', "seed"),
        _probe('{"pipeline": {"output_rate_hz": Infinity}}', "output_rate_hz"),
        _probe('{"pipeline": {"n_inputs": Infinity}}', "n_inputs"),
        _probe('{"experiment": {"trials": NaN}}', "trials"),
        _probe(
            '{"pipeline": {"lfsr_width": 4, "lfsr_taps": [4, 2], "stream_length": 6}}', "lfsr_taps"
        ),
        _probe('{"pipeline": {"lfsr_width": 4, "lfsr_taps": [3]}}', "lfsr_taps"),
        _probe('{"pipeline": {"binary_bits": 64}}', "binary_bits"),
        # (2^n - 1) * 32767 must fit int64: checked at load, never by building 1 << n
        _probe('{"pipeline": {"binary_bits": 62}}', "binary_bits"),
        _probe('{"pipeline": {"binary_bits": 1e30}}', "binary_bits"),
        _probe('{"pipeline": {"binary_bits": 1e308}}', "binary_bits"),
        _probe('{"pipeline": {"binary_bits": 9223372036854775808}}', "binary_bits"),
        # wrong JSON types name their key, not Python's conversion that failed
        _probe('{"pipeline": {"lfsr_taps": 5}}', "pipeline.lfsr_taps"),
        _probe('{"energy_tables": {"proposed": 3}}', "energy_tables.proposed"),
        _probe('{"pipeline": {"output_rate_hz": [1]}}', "pipeline.output_rate_hz"),
        _probe('{"pipeline": {"input_distribution": "uniform"}}', "pipeline.input_distribution"),
        _probe(
            '{"pipeline": {"input_distribution": {"kind": ["uniform"]}}}',
            "pipeline.input_distribution.kind",
        ),
        # one field, by its own name
        _probe('{"mac": {"m": 0}}', "config: m must be positive, got 0"),
        # m * N has 310 digits, which the message abbreviates
        _probe('{"pipeline": {"n_inputs": 1e308}}', "m * n_inputs = 1.500e+309 exceeds"),
        # an 8001-digit m * N is past what str() converts, but not what the message prints
        pytest.param(
            '{"pipeline": {"n_inputs": 1%s}, "mac": {"m": 1%s}}' % ("0" * 4000, "0" * 4000),
            "m * n_inputs = 1.000e+8000 exceeds",
            id="m_and_n_inputs_of_4001_digits",
        ),
        _probe(
            '{"experiment": {"efficiency_ops": {"x": 0}}}',
            "error: bad config: efficiency_ops.x must be positive",
        ),
        _probe(
            json.dumps({"pipeline": {"input_distribution": _explicit(1.5, 0.5)}}),
            "explicit samples must lie in [0, 1]",
        ),
        _probe(
            json.dumps({"pipeline": {"input_distribution": _explicit(0.5, -1.5)}}),
            "explicit weights must lie in [-1, 1]",
        ),
        # an explicit distribution must hold N entries, checked at load rather than at the draw
        _probe(
            '{"pipeline": {"n_inputs": 4, "input_distribution": '
            '{"kind": "explicit", "samples": [0.5], "weights": [0.5]}}}',
            "explicit input_distribution has 1 entries, need n_inputs = 4",
        ),
    ],
)
def test_cli_rejects_bad_values_exit_2(tmp_path, capsys, monkeypatch, text, key):
    err = _assert_rejected(tmp_path, capsys, monkeypatch, text, key)
    # no message prints a huge config value whole
    assert not re.search(r"\d{21}", err), err


# every number field of the schema, as a function of its value
_NUMBER_FIELDS = {
    "output_rate_hz": lambda v: {"pipeline": {"output_rate_hz": v}},
    "flip_probability": lambda v: {"pipeline": {"flip_probability": v}},
    "vdd": lambda v: {"mac": {"vdd": v}},
    "sigma": lambda v: {
        "pipeline": {"input_distribution": {"kind": "zero_peaked_gaussian", "sigma": v}}
    },
    "samples": lambda v: {"pipeline": {"input_distribution": _explicit(v, 0.5)}},
    "weights": lambda v: {"pipeline": {"input_distribution": _explicit(0.5, v)}},
    "sram_cell_access": lambda v: {"energy_tables": {"conventional": {"sram_cell_access": v}}},
}


@pytest.mark.parametrize(
    "value, message",
    [("0.5", "must be a number"), (False, "must be a number"), (2**1024, "must be at most")],
    ids=("string", "bool", "int_past_float"),
)
@pytest.mark.parametrize("key", _NUMBER_FIELDS)
def test_cli_rejects_non_number_number_fields_exit_2(
    tmp_path, capsys, monkeypatch, key, value, message
):
    text = json.dumps(_NUMBER_FIELDS[key](value))
    assert message in _assert_rejected(tmp_path, capsys, monkeypatch, text, key)


def test_cli_rejects_infinite_sigma_from_flag_and_file(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(
        '{"pipeline": {"input_distribution": {"kind": "zero_peaked_gaussian", "sigma": Infinity}}}'
    )
    out = tmp_path / "out"
    for argv in (
        ["compare", "--sigma", "inf", "--trials", "2", "--n-inputs", "4", "--out", str(out)],
        ["compare", "--config", str(p), "--trials", "2", "--n-inputs", "4", "--out", str(out)],
        ["asc-stats", "--sigma", "inf", "--out", str(out)],
    ):
        assert main(argv) == 2, argv
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


def _spy_asc_stats(monkeypatch, calls=None):
    """Make the two asc-stats workers fail, or record their calls into `calls`."""

    def spy(name):
        def worker(m, arg):
            if calls is None:
                raise AssertionError(f"{name} ran")
            calls.append(name)
            return 1.0

        return worker

    for name in ("brute_force_enabled_average", "expected_enabled_sas"):
        monkeypatch.setattr(cli, name, spy(name))


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "1000000000"],
        ["--grid", str(cli.MAX_ASC_GRID + 1)],
        ["--grid", "0"],
        ["--grid", "-3"],
        ["--m", str(10**12)],
        ["--m", str(cli.MAX_ASC_M + 1)],
        ["--m", "0"],
        ["--m", str(10**30)],
    ],
)
def test_cli_asc_stats_bounds_grid_and_m_before_any_work(argv, tmp_path, capsys, monkeypatch):
    _spy_asc_stats(monkeypatch)
    out = tmp_path / "out"
    assert main(["asc-stats", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ") and argv[0] in err
    assert len(err) < 100 and not out.exists()


def test_cli_asc_stats_runs_at_its_bounds(capsys, monkeypatch):
    calls = []
    _spy_asc_stats(monkeypatch, calls)
    assert main(["asc-stats", "--m", str(cli.MAX_ASC_M), "--grid", "1"]) == 0
    assert main(["asc-stats", "--m", "1", "--grid", str(cli.MAX_ASC_GRID)]) == 0
    assert sorted(set(calls)) == ["brute_force_enabled_average", "expected_enabled_sas"]


def test_cli_rejects_wide_lfsr_before_walking_its_cycle(tmp_path, capsys):
    # a width-31 cycle walk would take hours; the width bound comes first
    p = tmp_path / "cfg.json"
    p.write_text('{"pipeline": {"lfsr_width": 31, "lfsr_taps": [31, 28]}}')
    out = tmp_path / "out"
    argv = ["compare", "--config", str(p), "--trials", "2", "--n-inputs", "4", "--out", str(out)]
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert "lfsr_width 31" in capsys.readouterr().err
    assert elapsed < 1.0
    assert not out.exists()


def test_replace_leaves_original_efficiency_ops_alone():
    cfg = dataclasses.replace(default_config(), efficiency_ops={"structural_2n_minus_1": 5})
    small = dataclasses.replace(cfg, n_inputs=64, trials=2)
    priced = cli._comparison_for(small).proposed.energy.efficiency_ops
    # the derived count replaces the given one in place and reaches no config
    assert priced == {"structural_2n_minus_1": 127}
    assert cfg.efficiency_ops == small.efficiency_ops == {"structural_2n_minus_1": 5}
    priced = cli._comparison_for(dataclasses.replace(small, efficiency_ops={}))
    assert priced.proposed.energy.efficiency_ops == {
        "back_solved": 150,
        "structural_2n_minus_1": 127,
    }


def test_zero_inputs_error_names_n_inputs():
    with pytest.raises(ConfigError, match="n_inputs"):
        config_from_dict({"pipeline": {"n_inputs": 0}})


def test_config_rejects_non_maximal_taps_at_load():
    # period 6, not 15: caught when the config loads, before any run starts
    with pytest.raises(ConfigError, match="not maximal"):
        config_from_dict({"pipeline": {"lfsr_width": 4, "lfsr_taps": [4, 2], "stream_length": 6}})


def _compare_with_config(tmp_path, text: str, *flags: str) -> tuple[int, str]:
    p = tmp_path / "cfg.json"
    p.write_text(text)
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(p), *flags, "--out", str(out)])
    return rc, str(out)


@pytest.mark.parametrize("value", ("NaN", "Infinity", "-Infinity"))
def test_cli_rejects_non_finite_unit_energy_exit_2(tmp_path, capsys, value):
    text = f'{{"energy_tables": {{"proposed": {{"asc_convert": {value}}}}}}}'
    rc, out = _compare_with_config(tmp_path, text, "--trials", "2", "--n-inputs", "4")
    assert rc == 2
    assert "asc_convert must be finite and >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "experiment",
    [
        {"fom_steps": 10**400},
        {"fom_ops": 10**400},
        # each fits a float, their product does not
        {"fom_steps": 10**200, "fom_ops": 10**200},
        {"efficiency_ops": {"huge": 10**400}},
    ],
    ids=("fom_steps", "fom_ops", "fom_product", "efficiency_ops"),
)
def test_cli_rejects_op_counts_past_float_range_exit_2(tmp_path, capsys, experiment):
    rc, out = _compare_with_config(
        tmp_path, json.dumps({"experiment": experiment}), "--trials", "2", "--n-inputs", "4"
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: bad config") and "must be at most" in err
    assert not os.path.exists(out)


# every integer field of the schema, and the tap list, given a bool and a fraction
_INTEGER_FIELDS = [
    ("pipeline", "n_inputs"),
    ("pipeline", "binary_bits"),
    ("pipeline", "stream_length"),
    ("pipeline", "lfsr_width"),
    ("pipeline", "lfsr_taps"),
    ("mac", "m"),
    ("experiment", "trials"),
    ("experiment", "seed"),
    ("experiment", "efficiency_ops"),
    ("experiment", "fom_steps"),
    ("experiment", "fom_ops"),
]


@pytest.mark.parametrize("value", (2.7, True, "3"), ids=("fraction", "bool", "string"))
@pytest.mark.parametrize("section, key", _INTEGER_FIELDS, ids=[k for _, k in _INTEGER_FIELDS])
def test_cli_rejects_non_integer_integer_fields_exit_2(tmp_path, capsys, section, key, value):
    if key == "lfsr_taps":
        value = [15, value]
    elif key == "efficiency_ops":
        value = {"label": value}
    rc, out = _compare_with_config(tmp_path, json.dumps({section: {key: value}}))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: bad config") and "must be an integer" in err
    assert not os.path.exists(out)


def test_integral_floats_still_read_as_integers():
    cfg = config_from_dict(
        {"pipeline": {"n_inputs": 4.0, "lfsr_taps": [15.0, 14]}, "experiment": {"trials": 3.0}}
    )
    assert (cfg.n_inputs, cfg.trials, cfg.lfsr_taps) == (4, 3, (15, 14))
    assert all(type(x) is int for x in (cfg.n_inputs, cfg.trials, *cfg.lfsr_taps))


@pytest.mark.parametrize("vdd", ("1e-320", "5e-324", "2.225073858507201e-308"))
def test_cli_rejects_subnormal_vdd_exit_2(tmp_path, capsys, vdd):
    rc, out = _compare_with_config(tmp_path, f'{{"mac": {{"vdd": {vdd}}}}}', "--trials", "2")
    assert rc == 2
    assert "vdd must be finite and at least" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_smallest_normal_vdd_decodes_exactly(tmp_path, capsys):
    import sys

    text = json.dumps({"mac": {"vdd": sys.float_info.min}})
    rc, out = _compare_with_config(tmp_path, text, "--trials", "20", "--n-inputs", "300")
    capsys.readouterr()
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "compare_summary.json").read_text())
    assert summary["proposed"]["config"]["vdd"] == sys.float_info.min
    assert summary["proposed"]["statistics"]["max_abs_error"] == 0


@pytest.mark.parametrize("vdd", ("5e-324", "1e-320", "0", "-1", "inf", "1.7e308"))
def test_cli_mac_rejects_bad_vdd_exit_2(capsys, vdd):
    assert main(["mac", "--in", "111,110", "--w=111,-100", "--vdd", vdd]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vdd must be finite and at least" in err


@pytest.mark.parametrize("streams", ("", ","))
def test_cli_mac_without_streams_exit_2(capsys, streams):
    assert main(["mac", "--in", streams, "--w", streams]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one stream" in err


def test_cli_compare_does_not_load_the_selftest_suites():
    # a fresh interpreter: other tests in this process import the suites
    code = (
        "import sys\n"
        "from scmac.cli import main\n"
        "assert main(['compare', '--trials', '2', '--n-inputs', '4']) == 0\n"
        "assert 'scmac.selftest' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_mac_extreme_supported_vdd_decodes_exactly(capsys):
    import sys

    for vdd in (str(sys.float_info.min), "1", str(sys.float_info.max / 2)):
        assert main(["mac", "--in", "111,110", "--w=111,-100", "--vdd", vdd]) == 0
        assert "decoded = 2" in capsys.readouterr().out


# m*N = 2^48 - 1 is the largest array the voltage decode recovers exactly
@pytest.mark.parametrize(
    "m, n, rc",
    [((2**48 - 1) // 3, 3, 0), (2**44, 16, 2), (2**50, 16, 2), (2**48, 1, 2)],
)
def test_cli_compare_bounds_the_product_count(tmp_path, capsys, m, n, rc):
    text = json.dumps({"mac": {"m": m}, "pipeline": {"n_inputs": n}})
    got, out = _compare_with_config(tmp_path, text, "--trials", "3")
    assert got == rc
    if rc:
        assert "exceeds 281474976710655" in capsys.readouterr().err
        assert not os.path.exists(out)
    else:
        summary = json.loads((tmp_path / "out" / "compare_summary.json").read_text())
        assert summary["proposed"]["statistics"]["max_abs_error"] == 0


def test_cli_rejects_energy_that_overflows_exit_2(tmp_path, capsys):
    table = {"asc_convert": 1e308, "sa_fire": 1e308}
    text = json.dumps({"energy_tables": {"proposed": table}})
    rc, out = _compare_with_config(tmp_path, text, "--trials", "2", "--n-inputs", "4")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("stream", ("12", "1x"))
def test_cli_mac_malformed_literal_exit_2(capsys, stream):
    assert main(["mac", "--in", stream, "--w", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config:") and f"invalid bitstream literal {stream!r}" in err


# 10^13 trials' decodes are 72.8 TiB, which numpy refuses before touching
# any memory; past 2^48 trials the config itself is rejected
@pytest.mark.parametrize(
    "trials, message", [(10**13, "error: out of memory:"), (2**62, "error: bad config: trials")]
)
def test_cli_run_too_large_to_hold_exit_2(tmp_path, capsys, trials, message):
    text = json.dumps({"experiment": {"trials": trials}})
    rc, out = _compare_with_config(tmp_path, text)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not os.path.exists(out)


# the value each distribution kind's keys take in a config that runs
_DISTRIBUTION_KEYS = {
    "uniform": {},
    "zero_peaked_gaussian": {"sigma": 0.2},
    "explicit": {"samples": [0.1, 0.4, 0.6, 1.0], "weights": [-1.0, -0.3, 0.2, 0.9]},
}
_MUTANTS = (
    float("nan"), float("inf"), float("-inf"), -1, 0, 2**63, 1e308, "1", True, None, [], {}
)


def _mutation_sites():
    """(base config, key path) for every section and key of the schema, each
    distribution kind's keys and one unit energy."""
    base = {"pipeline": {"n_inputs": 4}, "experiment": {"trials": 2}}
    yield base, ("schema_version",)
    for section, keys in config._SCHEMA.items():
        yield base, (section,)
        for key in keys:
            yield base, (section, key)
    yield base, ("energy_tables", "proposed", "asc_convert")
    assert {kind: set(keys) for kind, (_, keys) in config._DISTRIBUTIONS.items()} == {
        kind: set(keys) for kind, keys in _DISTRIBUTION_KEYS.items()
    }
    for kind, keys in _DISTRIBUTION_KEYS.items():
        distribution = {"kind": kind, **keys}
        with_kind = {**base, "pipeline": {"n_inputs": 4, "input_distribution": distribution}}
        for key in distribution:
            yield with_kind, ("pipeline", "input_distribution", key)


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


def test_config_mutation_gate(tmp_path, capsys):
    # one key at a time set to each value a config must run with or refuse
    start = time.perf_counter()
    runs = 0
    for base, path in _mutation_sites():
        for value in _MUTANTS:
            raw = json.loads(json.dumps(base))
            node = raw
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
            # a fresh file per mutant: truncating one file 360 times can flush
            # it to disk each time, which took about 50 ms a write on ext4
            p = tmp_path / f"cfg{runs}.json"
            p.write_text(json.dumps(raw))
            out = tmp_path / f"out{runs}"
            runs += 1
            rc = main(["compare", "--config", str(p), "--out", str(out)])
            err = capsys.readouterr().err
            where = f"{'.'.join(path)} = {value!r}: rc {rc}, {err}"
            assert rc in (0, 2), where
            if rc == 2:
                assert err.startswith("error:") and "Traceback" not in err, where
                assert not out.exists(), where
            else:
                text = (out / "compare_summary.json").read_text()
                summary = json.loads(text, parse_constant=_reject_constant)
                assert summary["proposed"]["statistics"]["max_abs_error"] == 0, where
    elapsed = time.perf_counter() - start
    print(f"config mutation gate: {runs} configs in {elapsed:.2f} s")
    assert elapsed < 10.0
