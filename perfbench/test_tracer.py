"""Tests of the outside-in tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import scmac  # noqa: E402
import scmac.cli  # noqa: E402
import scmac.converters  # noqa: E402
import scmac.pipelines  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import NAMES, Tracer, discover, layer_totals  # noqa: E402


def _snapshot():
    """Every binding the tracer may touch: scmac module namespaces and class dicts."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "scmac" or name.startswith("scmac.")):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


def test_self_time_of_synthetic_nested_spans():
    # op [0, 100] > converters [10, 60] > (lfsr [20, 30], mac [40, 50]);
    # op > energy [70, 90]
    ids = {n: i for i, n in enumerate(NAMES)}
    spans = {
        "name": np.array([ids["op"], ids["converters"], ids["lfsr"], ids["mac"], ids["energy"]]),
        "parent": np.array([-1, 0, 1, 1, 0]),
        "op": np.array([7, 7, 7, 7, 7]),
        "start_ns": np.array([0, 10, 20, 40, 70]),
        "end_ns": np.array([100, 60, 30, 50, 90]),
    }
    totals = layer_totals(spans, 7)
    assert totals["op"]["self_s"] == pytest.approx(30e-9)
    assert totals["converters"]["self_s"] == pytest.approx(30e-9)
    assert totals["lfsr"]["self_s"] == pytest.approx(10e-9)
    assert totals["mac"]["self_s"] == pytest.approx(10e-9)
    assert totals["energy"]["self_s"] == pytest.approx(20e-9)
    assert totals["converters"]["calls"] == 1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(100e-9)
    assert layer_totals(spans, 8)["converters"] == {"self_s": 0.0, "calls": 0}


def test_live_nested_call_with_a_scripted_clock(monkeypatch):
    ticks = iter([0, 10, 20, 30, 40, 50, 60, 100])
    monkeypatch.setattr(tracer_mod, "time", types.SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
    tr = Tracer()

    def leaf():
        return 1

    outer_leaf = tr._wrap_function(leaf, "lfsr")

    def outer():
        return outer_leaf() + outer_leaf()

    traced_outer = tr._wrap_function(outer, "converters")
    with tr.operation(3):  # op starts at 0, ends at 100
        assert traced_outer() == 2  # converters 10..60, lfsr 20..30 and 40..50
    totals = tr.layer_totals(3)
    assert totals["op"]["self_s"] == pytest.approx(50e-9)
    assert totals["converters"]["self_s"] == pytest.approx(30e-9)
    assert totals["lfsr"]["self_s"] == pytest.approx(20e-9)
    assert totals["lfsr"]["calls"] == 2
    assert list(tr.span_arrays()["parent"]) == [-1, 0, 1, 1]


def test_install_wraps_binding_sites_and_uninstall_restores_them():
    original = scmac.converters.asc_encode
    assert scmac.pipelines.asc_encode is original
    before = _snapshot()
    tr = Tracer().install()
    try:
        assert scmac.pipelines.asc_encode is not original
        assert scmac.pipelines.asc_encode is scmac.converters.asc_encode is scmac.asc_encode
        assert isinstance(vars(scmac.converters.ThermometerCode)["count"], property)
        assert vars(scmac.converters.ThermometerCode)["count"] is not before[
            "scmac.converters.ThermometerCode"]["count"]
    finally:
        tr.uninstall()
    assert scmac.pipelines.asc_encode is scmac.converters.asc_encode is original
    assert _snapshot() == before


def test_traced_run_matches_untraced_and_restores_everything(tmp_path):
    cfg = dict(n_inputs=8, trials=3, seed=5, stream_length=31, flip_probability=0.02)
    conv = scmac.PipelineConfig(variant="conventional", **cfg)
    prop = scmac.PipelineConfig(variant="proposed", **cfg)
    plain = scmac.run_comparison(conv, prop, energy_profile="measured").to_json_dict()
    before = _snapshot()
    tr = Tracer()
    with tr.installed_for(1):
        traced = scmac.pipelines.run_comparison(conv, prop, energy_profile="measured").to_json_dict()
    assert traced == plain
    assert _snapshot() == before
    assert scmac.pipelines.asc_encode is scmac.converters.asc_encode
    totals = tr.layer_totals(1)
    for layer in ("converters", "lfsr", "bitstream", "prng", "mac", "energy", "pipelines",
                  "pipelines.conventional", "pipelines.proposed", "pipelines.oracle"):
        assert totals[layer]["calls"] > 0, layer
    assert totals["pipelines.oracle"]["calls"] == 2 * 3
    assert totals["cli"]["calls"] == 0
    path = tmp_path / "spans.npz"
    tr.write(str(path))
    with np.load(path) as data:
        assert list(data["names"]) == list(NAMES)
        assert data["op"].size == len(tr.names)


def test_uninstall_runs_when_the_traced_call_raises():
    before = _snapshot()
    tr = Tracer()
    with pytest.raises(scmac.ConfigError):
        with tr.installed_for(1):
            scmac.pipelines.conventional_pipeline(None, None, scmac.PipelineConfig(variant="proposed", n_inputs=2))
    assert _snapshot() == before
    assert tr.layer_totals(1)["pipelines.conventional"]["calls"] == 1


def test_discovery_finds_new_public_functions_by_module(monkeypatch):
    def asc_levels(x, m):
        return x, m

    asc_levels.__module__ = "scmac.converters"
    monkeypatch.setattr(scmac.converters, "asc_levels", asc_levels, raising=False)
    found = {(getattr(owner, "__name__", owner), attr): layer for owner, attr, _, layer in discover()}
    assert found[("scmac.converters", "asc_levels")] == "converters"
    assert found[("scmac.pipelines", "exact_oracle")] == "pipelines.oracle"
    assert found[("scmac.pipelines", "run_comparison")] == "pipelines"
    assert found[("ThermometerCode", "from_count")] == "converters"
    # private helpers and names re-exported from another module are not spans
    assert ("scmac.pipelines", "_proposed_trial") not in found
    assert ("scmac.pipelines", "asc_encode") not in found
