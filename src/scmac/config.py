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
      "energy_tables": {            // unit energies, fJ; a side keeps the shipped
        "conventional": {"sram_cell_access": 28.0, ...},  // energy of each unit
        "proposed":     {"asc_convert": 16.2, ...}        // it does not name
      },
      "experiment": {
        "trials": 200,
        "seed": 1,
        "energy_profile": "calibrated",   // calibrated | naive | measured
        "efficiency_ops": {},       // label -> op count, {} for {"back_solved": 150};
                                    // the structural 2N-1 count is always added
        "fom_steps": 2395,
        "fom_ops": 1
      }
    }

Numbers must be JSON numbers, not strings or bools. Each distribution kind
takes only the keys shown for it, and `explicit` needs both lists. Errors
name their key path, such as `pipeline.input_distribution.sigma`.

Numbers in reports are femtojoules, microwatts, and TOPS/W.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

from .distributions import Explicit, InputDistribution, Uniform, ZeroPeakedGaussian
from .energy import ENERGY_PROFILES, EVENT_KEYS, EnergyTable, default_tables
from .errors import ConfigError, EnergyModelError, require_int
from .pipelines import VARIANTS, PipelineConfig, RunConfig

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig(RunConfig):
    """Validated, fully-defaulted configuration for the CLI and harness."""

    n_inputs: int = 300
    distribution: InputDistribution = field(default_factory=ZeroPeakedGaussian)
    trials: int = 200
    tables: tuple[EnergyTable, EnergyTable] = field(default_factory=default_tables)
    energy_profile: str = "calibrated"
    efficiency_ops: dict[str, int] = field(default_factory=dict)
    fom_steps: int = 2395
    fom_ops: int = 1

    def __post_init__(self):
        if self.energy_profile not in ENERGY_PROFILES:
            raise ConfigError(f"unknown energy_profile {self.energy_profile!r}")
        # a bad run field fails here, at load time, not when the run starts
        super().__post_init__()
        if self.fom_steps < 1 or self.fom_ops < 1:
            raise ConfigError("fom_steps and fom_ops must be positive")
        # the energy model divides by these counts as floats
        for name, ops in self.efficiency_ops.items():
            if int(ops) < 1:
                raise ConfigError(f"efficiency_ops.{name} must be positive")
            if ops > sys.float_info.max:
                raise ConfigError(f"efficiency_ops.{name} must be at most {sys.float_info.max:.6e}")
        if self.fom_steps * self.fom_ops > sys.float_info.max:
            raise ConfigError(f"fom_steps * fom_ops must be at most {sys.float_info.max:.6e}")

    @property
    def pricing(self) -> dict:
        """The fields this config adds to the run fields: `run_comparisons`' pricing keywords."""
        run = {f.name for f in fields(RunConfig)}
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in run}

    def pipeline_config(self, variant: str, **changes) -> PipelineConfig:
        """`variant`'s PipelineConfig of these run fields, with `changes` set in place of some."""
        values = {f.name: getattr(self, f.name) for f in fields(RunConfig)}
        return PipelineConfig(variant=variant, **{**values, **changes})

    def to_json_dict(self) -> dict:
        # the schema names fields and table sides, as `_config_kwargs` reads them
        values = {**vars(self), **dict(zip(VARIANTS, self.tables))}
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


# each parser takes its value's key path, such as "pipeline.n_inputs", for its errors

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", (int, float): "a number"}


def _expect(key: str, value, json_type):
    # no config value is a bool, and Python's bool is an int
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ConfigError(f"{key} must be {_JSON_TYPES[json_type]}, got {value!r}")
    return value


def _read_object(key: str, value, keys: dict) -> dict:
    # keys: JSON key -> (field, parser), read in order, so the first fault is always the same
    unknown = set(_expect(key, value, dict)) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {key}: {sorted(unknown)}")
    return {name: parse(f"{key}.{k}", value[k]) for k, (name, parse) in keys.items() if k in value}


def _strict_int(key: str, value) -> int:
    """An integer config value; bools, fractional floats and other types are ConfigErrors."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return require_int(key, value, ConfigError)


def _number(key: str, value) -> float:
    try:
        return float(_expect(key, value, (int, float)))
    except OverflowError:
        raise ConfigError(f"{key} must be at most {sys.float_info.max:.6e}") from None


def _numbers(key: str, value) -> tuple[float, ...]:
    return tuple(_number(key, x) for x in _expect(key, value, list))


def _taps(key: str, value) -> tuple[int, ...] | None:
    return None if value is None else tuple(_strict_int(key, t) for t in _expect(key, value, list))


def _op_counts(key: str, value) -> dict[str, int]:
    counts = _expect(key, value, dict)
    return {label: _strict_int(f"{key}.{label}", ops) for label, ops in counts.items()}


# input_distribution kind -> (class, its keys besides "kind"); a key left out
# takes the class default, and a field without one is required
_DISTRIBUTIONS = {
    "uniform": (Uniform, {}),
    "zero_peaked_gaussian": (ZeroPeakedGaussian, {"sigma": ("sigma", _number)}),
    "explicit": (Explicit, {"samples": ("samples", _numbers), "weights": ("weights", _numbers)}),
}


def _distribution(key: str, value) -> InputDistribution:
    kind = _expect(key, value, dict).get("kind")
    if not isinstance(kind, str) or kind not in _DISTRIBUTIONS:
        raise ConfigError(f"{key}.kind must be one of {list(_DISTRIBUTIONS)}, got {kind!r}")
    cls, keys = _DISTRIBUTIONS[kind]
    args = _read_object(key, {k: v for k, v in value.items() if k != "kind"}, keys)
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in args]
    if missing:
        raise ConfigError(f"{key} of kind {kind!r} needs {missing}")
    return cls(**args)


def _table(shipped: EnergyTable, key: str, value) -> EnergyTable:
    # a side names the units it changes; the others keep their shipped energies
    return replace(shipped, **_read_object(key, value, {u: (u, _number) for u in EVENT_KEYS}))


# section -> JSON key -> (ExperimentConfig field, or table side; parser)
_SCHEMA = {
    "pipeline": {
        "n_inputs": ("n_inputs", _strict_int),
        "binary_bits": ("binary_bits", _strict_int),
        "stream_length": ("stream_length", _strict_int),
        "lfsr_width": ("lfsr_width", _strict_int),
        "output_rate_hz": ("output_rate_hz", _number),
        "flip_probability": ("flip_probability", _number),
        "lfsr_taps": ("lfsr_taps", _taps),
        "input_distribution": ("distribution", _distribution),
    },
    "mac": {"m": ("m", _strict_int), "vdd": ("vdd", _number)},
    "energy_tables": {
        side: (side, partial(_table, shipped))
        for side, shipped in zip(VARIANTS, default_tables())
    },
    "experiment": {
        "trials": ("trials", _strict_int),
        "seed": ("seed", _strict_int),
        "fom_steps": ("fom_steps", _strict_int),
        "fom_ops": ("fom_ops", _strict_int),
        "energy_profile": ("energy_profile", partial(_expect, json_type=str)),
        "efficiency_ops": ("efficiency_ops", _op_counts),
    },
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(**_config_kwargs(raw))
    except EnergyModelError as exc:  # a unit energy that is negative or not finite
        raise ConfigError(str(exc)) from exc


def _config_kwargs(raw: dict) -> dict:
    unknown = set(_expect("config root", raw, dict)) - {"schema_version", *_SCHEMA}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    version = _strict_int("schema_version", raw.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")

    kwargs: dict = {}
    for section, keys in _SCHEMA.items():
        kwargs.update(_read_object(section, raw.get(section, {}), keys))
    kwargs["tables"] = tuple(
        kwargs.pop(side, table) for side, table in zip(VARIANTS, default_tables())
    )
    return kwargs


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # also an int of more digits than Python converts
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
