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

# the `tables` field holds these two energy_tables entries as a pair
_TABLE_SIDES = ("conventional", "proposed")


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
        # the schema names fields and table sides, as `_config_kwargs` reads them
        values = {**vars(self), **dict(zip(_TABLE_SIDES, self.tables))}
        d = {"schema_version": SCHEMA_VERSION}
        for section, keys in _SCHEMA.items():
            d[section] = {key: _json_value(values[name]) for key, (name, _) in keys.items()}
        return d


def _json_value(value):
    if isinstance(value, EnergyTable):
        return value.as_dict()
    if isinstance(value, InputDistribution):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def _strict_int(key: str, value) -> int:
    """An integer config value; bools, fractional floats and other types are ConfigErrors."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _taps(key: str, value) -> tuple[int, ...] | None:
    return None if value is None else tuple(_strict_int(key, t) for t in value)


def _op_counts(key: str, value) -> dict[str, int]:
    if not isinstance(value, dict):
        raise ConfigError("efficiency_ops must map labels to op counts")
    return {str(k): _strict_int(f"efficiency op count {k!r}", v) for k, v in value.items()}


def _cast(convert):
    """A parser that converts the value and does not need its key."""
    return lambda key, value: convert(value)


# section -> JSON key -> (ExperimentConfig field, or table side; parser). Keys
# are read in this order, so a config with several faults reports the same
# one first.
_SCHEMA = {
    "pipeline": {
        "n_inputs": ("n_inputs", _strict_int),
        "binary_bits": ("binary_bits", _strict_int),
        "stream_length": ("stream_length", _strict_int),
        "lfsr_width": ("lfsr_width", _strict_int),
        "output_rate_hz": ("output_rate_hz", _cast(float)),
        "flip_probability": ("flip_probability", _cast(float)),
        "lfsr_taps": ("lfsr_taps", _taps),
        "input_distribution": ("distribution", _cast(distribution_from_dict)),
    },
    "mac": {"m": ("m", _strict_int), "vdd": ("vdd", _cast(float))},
    "energy_tables": {side: (side, _cast(EnergyTable.from_dict)) for side in _TABLE_SIDES},
    "experiment": {
        "trials": ("trials", _strict_int),
        "seed": ("seed", _strict_int),
        "fom_steps": ("fom_steps", _strict_int),
        "fom_ops": ("fom_ops", _strict_int),
        "energy_profile": ("energy_profile", _cast(str)),
        "efficiency_ops": ("efficiency_ops", _op_counts),
    },
}


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
    unknown = set(raw) - {"schema_version", *_SCHEMA}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")

    kwargs: dict = {}
    for section, keys in _SCHEMA.items():
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
        for key, (name, parse) in keys.items():
            if key in values:
                kwargs[name] = parse(key, values[key])
    kwargs["tables"] = tuple(
        kwargs.pop(side, table) for side, table in zip(_TABLE_SIDES, default_tables())
    )
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
