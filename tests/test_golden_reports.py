"""Golden report digests: `scmac compare` output bytes pinned per config.

The digests were recorded before the trial workers were batched; any
refactor of the datapaths must reproduce every report file byte for byte.
The stdout digests, with the report directory replaced by `OUT`, were
recorded before the report writers were shared between subcommands.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import pytest

from scmac import pipelines
from scmac.cli import main
from scmac.config import load_config

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.json")
REPORTS = (
    "compare_energy.csv",
    "compare_summary.json",
    "compare_trials_conventional.csv",
    "compare_trials_proposed.csv",
)

# case -> (pipeline overrides, mac overrides, experiment overrides)
CASES = {
    "reference": ({}, {}, {}),
    "uniform": ({"input_distribution": {"kind": "uniform"}}, {}, {}),
    "flip_0.02": ({"flip_probability": 0.02}, {}, {}),
    "vdd_0.8": ({}, {"vdd": 0.8}, {}),
    "n_7": ({"n_inputs": 7}, {}, {"efficiency_ops": {"back_solved": 150}}),
    # sigma 0.9 clips about a quarter of the inputs to full scale, the ADC's
    # top code; the measured profile prices the pipelines' own activity logs
    "n_7_sigma_0.9_measured": (
        {"n_inputs": 7, "input_distribution": {"kind": "zero_peaked_gaussian", "sigma": 0.9}},
        {},
        {"efficiency_ops": {"back_solved": 150}, "energy_profile": "measured"},
    ),
}

GOLDEN = {
    "flip_0.02": {
        "compare_energy.csv": "0e41f5abd8a1f9417e8740b2f93c3bb73e0aff4f1475c5722c8400f7a230db30",
        "compare_summary.json": "0d8eab532a826789dd1dbba48e723113fae3401cb4dcb1004027990db1e0e260",
        "compare_trials_conventional.csv": "b00ed4abcba36ffd4270e54a0aa072485793624e6732c886382ad84c56a31405",
        "compare_trials_proposed.csv": "90a17fba304e35704f79723141b0d7395809274f56cbbb9ab65ed26dc38e55dd",
    },
    "n_7": {
        "compare_energy.csv": "0e41f5abd8a1f9417e8740b2f93c3bb73e0aff4f1475c5722c8400f7a230db30",
        "compare_summary.json": "60f9d7fa5a20e6e2d84f6140df2675d92607f3c5bbc626aafeb3872cbe028cea",
        "compare_trials_conventional.csv": "aca8f896d4ca8f87a2d6c862349393dee9511cb542ab69e7514eb014fcb937af",
        "compare_trials_proposed.csv": "87bee08c309323426ab28de912bd4f11d16665e1c29593ee970e4598afa8aac5",
    },
    "n_7_sigma_0.9_measured": {
        "compare_energy.csv": "bc88f012a72c1e35650410dea125ca19311de6c0275ba409f24e3e89c533ca7c",
        "compare_summary.json": "421f92c2c6b0b70861c74c478d533a824fb560d00ef0262a173c23fb1ba7903e",
        "compare_trials_conventional.csv": "37bd28572b3e2ddda237b7fb0851cdd83902f75888e5fb348a360fe724a4dafd",
        "compare_trials_proposed.csv": "8082a42efd4d04d3c36facad92a18fb1b4a4ccd8e0ea1aca3c00086d6d6728e8",
    },
    "reference": {
        "compare_energy.csv": "0e41f5abd8a1f9417e8740b2f93c3bb73e0aff4f1475c5722c8400f7a230db30",
        "compare_summary.json": "d1698740e02f9327735474e23862a05607a1f1d9ddd7acd0057799e2acb54b37",
        "compare_trials_conventional.csv": "4e34c0b04a08868efdf60d207dd93a906dea25b18d5c2790fca43d6119554164",
        "compare_trials_proposed.csv": "72078d291cbe3eec44659e6c2834b9090852bb8c27a745d1949445b754244a82",
    },
    "uniform": {
        "compare_energy.csv": "0e41f5abd8a1f9417e8740b2f93c3bb73e0aff4f1475c5722c8400f7a230db30",
        "compare_summary.json": "5ef8278b090a41d6f19fc42efd286b347e2c25812f17ef725f067f947b687b72",
        "compare_trials_conventional.csv": "adb0a972451b381af6913be151607e4e8e0da663f6eb529a0bc71c0d3f5d0a4a",
        "compare_trials_proposed.csv": "53ed638a423a1aac704ac2e607c7bed838ef1832236cd649f80dbd85b7a49c63",
    },
    "vdd_0.8": {
        "compare_energy.csv": "0e41f5abd8a1f9417e8740b2f93c3bb73e0aff4f1475c5722c8400f7a230db30",
        "compare_summary.json": "84f4f3d563623e27cb52513a02057fb8eaa8547dd908fb8115dfbac7451cab28",
        "compare_trials_conventional.csv": "4e34c0b04a08868efdf60d207dd93a906dea25b18d5c2790fca43d6119554164",
        "compare_trials_proposed.csv": "72078d291cbe3eec44659e6c2834b9090852bb8c27a745d1949445b754244a82",
    },
}


STDOUT_GOLDEN = {
    "flip_0.02": "72815e6a9b1ba8c8998c3b0bf3f38211f4caefed6d74299448aa4e4ca0764895",
    "n_7": "77a3b4e957ea3a694507cb1b652e6b9c0204ee0c4b4ae09ee3ad07d223fb3ca4",
    "n_7_sigma_0.9_measured": "f240382b513773166be1bfd8ce5f921fcde51388141bfd9f0e53fa79056395dd",
    "reference": "0553750e8ccc788a86c5aa1053a8793f5950bc6dd02ea1a2cdd176f4c1473304",
    "uniform": "5615919b4e05ff1e7fbfb3d1970794fa3a894f6fde0b525743e601a81b3b4066",
    "vdd_0.8": "89fcebf4bf0712b42698cfef231c73607db21d69b17727ac0180ba80b90ff08b",
}


# `scmac sweep` on the long-stream benchmark grid (N=300, four trials per
# point), where every chunk is one trial of 8191 or 32767 bits; recorded
# before the select layer gathered real leaves by position
SWEEP_GOLDEN = {
    "sweep_results.csv": "9dc7452571ec22653674e3402ffa95503ae43ad280a9d1d95fbf4ad287d6efd0",
    "sweep_results.json": "e2560dc20dae27f0dc939df16792fd9275da6ddec6177d0bb408d7aa8ca3e561",
}
SWEEP_STDOUT_GOLDEN = "d37b2e948d777b1b88baa3ac180a94d8344b0067bdb8dac4800cb68e3e80b819"


def stdout_digest(argv: list[str], out) -> str:
    """Run the CLI; the sha256 of its stdout with the report directory written as `OUT`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return hashlib.sha256(buf.getvalue().replace(str(out), "OUT").encode()).hexdigest()


def _run_case(case: str, tmp_path) -> tuple[dict[str, str], str]:
    pipeline, mac, experiment = CASES[case]
    with open(REFERENCE, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["pipeline"].update(pipeline)
    raw["mac"].update(mac)
    raw["experiment"].update(experiment)
    config = tmp_path / f"{case}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / case
    argv = ["compare", "--config", str(config), "--out", str(out), "--format", "both"]
    printed = stdout_digest(argv + ["--trials", "20"], out)
    reports = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORTS}
    return reports, printed


@pytest.mark.parametrize("case", sorted(CASES))
def test_compare_reports_match_golden_digests(case, tmp_path):
    assert _run_case(case, tmp_path) == (GOLDEN[case], STDOUT_GOLDEN[case])


def test_long_stream_sweep_matches_golden_digests(tmp_path):
    argv = ["sweep", "--config", REFERENCE, "--n-inputs", "300", "--length", "8191,32767"]
    argv += ["--flip-p", "0,0.02", "--trials", "4", "--out", str(tmp_path), "--format", "both"]
    printed = stdout_digest(argv, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SWEEP_GOLDEN
    }
    assert (digests, printed) == (SWEEP_GOLDEN, SWEEP_STDOUT_GOLDEN)


@pytest.mark.parametrize("flip", (0.0, 0.02))
def test_reports_and_results_do_not_depend_on_the_chunk_size(flip, tmp_path, monkeypatch):
    """N=300, 40 trials: chunks of one trial, the default and the whole run agree byte for byte."""
    with open(REFERENCE, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["pipeline"]["flip_probability"] = flip
    raw["experiment"]["energy_profile"] = "measured"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(str(config))
    seen = []
    for elements in (1 << 7, pipelines._CHUNK_ELEMENTS, 1 << 20):
        monkeypatch.setattr(pipelines, "_CHUNK_ELEMENTS", elements)
        out = tmp_path / str(elements)
        argv = ["compare", "--config", str(config), "--out", str(out), "--trials", "40"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        reports = {name: (out / name).read_bytes() for name in REPORTS}
        both = pipelines.run_comparison(
            dataclasses.replace(cfg.pipeline_config("conventional"), trials=40),
            dataclasses.replace(cfg.pipeline_config("proposed"), trials=40),
            energy_profile="measured",
        )
        # the logs in insertion order, which the sorted JSON reports hide
        results = [
            (r.decoded.tolist(), r.oracle.tolist(), list(r.activity.counts.items()))
            + (list(r.activity.meta.items()),)
            for r in (both.conventional, both.proposed)
        ]
        seen.append((reports, results))
    assert seen[0] == seen[1] == seen[2]
