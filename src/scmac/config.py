"""JSON experiment configuration: schema, defaults, loading, validation.

Schema (version 1), all sections optional with the defaults shown:

    {
      "schema_version": 1,
      "pipeline": {
        "n_inputs": 300,            // N, pairs per MAC
        "binary_bits": 4,           // n, conventional ADC/BSC precision
        "stream_length": 15,        // L, conventional SC-logic stream length
        "lfsr_width": 15,           // stream-generator register width
        "lfsr_taps": null,          // optional tap override, e.g. [15, 14]
        "output_rate_hz": 1.0e7,
        "flip_probability": 0.0,
        "input_distribution": {"kind": "zero_peaked_gaussian", "sigma": 0.15}
        //   or {"kind": "uniform"}
        //   or {"kind": "explicit", "samples": [...], "weights": [...]}
      },
      "mac": {
        "m": 15,                    // bits per stochastic number
        "vdd": 1.0                  // volts
      },
      "energy_tables": {            // optional unit-energy overrides, fJ
        "conventional": {"sram_cell_access": 28.0, ...},
        "proposed":     {"asc_convert": 16.2, ...}
      },
      "experiment": {
        "trials": 200,
        "seed": 1,
        "energy_profile": "calibrated",   // calibrated | naive | measured
        "efficiency_ops": {"back_solved": 150},  // label -> op count;
                                          // structural 2N-1 is always added
        "fom_steps": 2395,
        "fom_ops": 1
      }
    }

Numbers in reports are femtojoules, microwatts, and TOPS/W.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields

from .distributions import InputDistribution, ZeroPeakedGaussian, distribution_from_dict
from .energy import ENERGY_PROFILES, EnergyTable, default_tables
from .errors import ConfigError
from .pipelines import PipelineConfig

SCHEMA_VERSION = 1

_SECTION_KEYS = {
    "pipeline": {
        "n_inputs",
        "binary_bits",
        "stream_length",
        "lfsr_width",
        "lfsr_taps",
        "output_rate_hz",
        "flip_probability",
        "input_distribution",
    },
    "mac": {"m", "vdd"},
    "energy_tables": {"conventional", "proposed"},
    "experiment": {
        "trials",
        "seed",
        "energy_profile",
        "efficiency_ops",
        "fom_steps",
        "fom_ops",
    },
}


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted configuration for the CLI and harness."""

    n_inputs: int = 300
    binary_bits: int = 4
    stream_length: int = 15
    lfsr_width: int = 15
    lfsr_taps: tuple[int, ...] | None = None
    output_rate_hz: float = 10e6
    flip_probability: float = 0.0
    distribution: InputDistribution = field(default_factory=ZeroPeakedGaussian)
    m: int = 15
    vdd: float = 1.0
    tables: tuple[EnergyTable, EnergyTable] = field(default_factory=default_tables)
    trials: int = 200
    seed: int = 1
    energy_profile: str = "calibrated"
    efficiency_ops: dict[str, int] = field(default_factory=dict)
    fom_steps: int = 2395
    fom_ops: int = 1

    def __post_init__(self):
        if self.energy_profile not in ENERGY_PROFILES:
            raise ConfigError(f"unknown energy_profile {self.energy_profile!r}")
        # a bad pipeline field fails here, at load time, not when the run starts
        self.pipeline_config("proposed")
        if self.fom_steps < 1 or self.fom_ops < 1:
            raise ConfigError("fom_steps and fom_ops must be positive")
        # derived label, recomputed whenever n_inputs changes; on a copy,
        # because dataclasses.replace hands the same dict to the new config
        self.efficiency_ops = dict(self.efficiency_ops or {"back_solved": 150})
        self.efficiency_ops["structural_2n_minus_1"] = 2 * self.n_inputs - 1
        # the energy model divides by these counts as floats
        for label, ops in self.efficiency_ops.items():
            if int(ops) < 1:
                raise ConfigError(f"efficiency op count {label!r} must be positive")
            if ops > sys.float_info.max:
                raise ConfigError(
                    f"efficiency op count {label!r} must be at most {sys.float_info.max:.6e}"
                )
        if self.fom_steps * self.fom_ops > sys.float_info.max:
            raise ConfigError(f"fom_steps * fom_ops must be at most {sys.float_info.max:.6e}")

    def pipeline_config(self, variant: str) -> PipelineConfig:
        names = [f.name for f in fields(PipelineConfig) if f.name != "variant"]
        return PipelineConfig(variant=variant, **{name: getattr(self, name) for name in names})

    def to_json_dict(self) -> dict:
        conv, prop = self.tables
        return {
            "schema_version": SCHEMA_VERSION,
            "pipeline": {
                "n_inputs": self.n_inputs,
                "binary_bits": self.binary_bits,
                "stream_length": self.stream_length,
                "lfsr_width": self.lfsr_width,
                "lfsr_taps": list(self.lfsr_taps) if self.lfsr_taps else None,
                "output_rate_hz": self.output_rate_hz,
                "flip_probability": self.flip_probability,
                "input_distribution": self.distribution.to_json_dict(),
            },
            "mac": {"m": self.m, "vdd": self.vdd},
            "energy_tables": {
                "conventional": conv.as_dict(),
                "proposed": prop.as_dict(),
            },
            "experiment": {
                "trials": self.trials,
                "seed": self.seed,
                "energy_profile": self.energy_profile,
                "efficiency_ops": dict(self.efficiency_ops),
                "fom_steps": self.fom_steps,
                "fom_ops": self.fom_ops,
            },
        }


def _require_keys(section: str, d: dict) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(d) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _strict_int(key: str, value) -> int:
    """An integer config value; bools, fractional floats and other types are ConfigErrors."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    # the casts below see outside values: int(Infinity) raises OverflowError
    try:
        return ExperimentConfig(**_config_kwargs(raw))
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _config_kwargs(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"schema_version", *_SECTION_KEYS}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")

    kwargs: dict = {}
    pipe = raw.get("pipeline", {})
    _require_keys("pipeline", pipe)
    for key in ("n_inputs", "binary_bits", "stream_length", "lfsr_width"):
        if key in pipe:
            kwargs[key] = _strict_int(key, pipe[key])
    for key in ("output_rate_hz", "flip_probability"):
        if key in pipe:
            kwargs[key] = float(pipe[key])
    if pipe.get("lfsr_taps") is not None:
        kwargs["lfsr_taps"] = tuple(_strict_int("lfsr_taps", t) for t in pipe["lfsr_taps"])
    if "input_distribution" in pipe:
        kwargs["distribution"] = distribution_from_dict(pipe["input_distribution"])

    mac_sec = raw.get("mac", {})
    _require_keys("mac", mac_sec)
    if "m" in mac_sec:
        kwargs["m"] = _strict_int("m", mac_sec["m"])
    if "vdd" in mac_sec:
        kwargs["vdd"] = float(mac_sec["vdd"])

    tables_sec = raw.get("energy_tables", {})
    _require_keys("energy_tables", tables_sec)
    conv, prop = default_tables()
    if "conventional" in tables_sec:
        conv = EnergyTable.from_dict(tables_sec["conventional"])
    if "proposed" in tables_sec:
        prop = EnergyTable.from_dict(tables_sec["proposed"])
    kwargs["tables"] = (conv, prop)

    exp = raw.get("experiment", {})
    _require_keys("experiment", exp)
    for key in ("trials", "seed", "fom_steps", "fom_ops"):
        if key in exp:
            kwargs[key] = _strict_int(key, exp[key])
    if "energy_profile" in exp:
        kwargs["energy_profile"] = str(exp["energy_profile"])
    if "efficiency_ops" in exp:
        ops = exp["efficiency_ops"]
        if not isinstance(ops, dict):
            raise ConfigError("efficiency_ops must map labels to op counts")
        kwargs["efficiency_ops"] = {
            str(k): _strict_int(f"efficiency op count {k!r}", v) for k, v in ops.items()
        }
    return kwargs


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
