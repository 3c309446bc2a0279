"""Synthetic sensor-input distributions for experiments.

Samples are unsigned fractions of full scale in [0, 1]; weights are signed
in [-1, 1]. The zero-peaked option mimics convolution-layer outputs, whose
values cluster around zero; its width is a config knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class InputDistribution:
    kind = "abstract"

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(samples in [0,1], weights in [-1,1]) for one trial."""
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"kind": self.kind, **{k: list(v) if isinstance(v, tuple) else v for k, v in values}}


@dataclass(frozen=True)
class Uniform(InputDistribution):
    kind = "uniform"

    def draw(self, rng, n):
        return rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)


@dataclass(frozen=True)
class ZeroPeakedGaussian(InputDistribution):
    """Gaussian around zero, clipped to range; sigma in full-scale units."""

    sigma: float = 0.15
    kind = "zero_peaked_gaussian"

    def __post_init__(self):
        if not (0 < self.sigma < math.inf):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")

    def draw(self, rng, n):
        # np.clip's wrapper costs more than the clipping at these sizes;
        # minimum/maximum give the same values
        samples = np.minimum(np.abs(rng.normal(0.0, self.sigma, n)), 1.0)
        weights = np.minimum(np.maximum(rng.normal(0.0, self.sigma, n), -1.0), 1.0)
        return samples, weights


@dataclass(frozen=True)
class Explicit(InputDistribution):
    """Fixed sample/weight vectors, identical every trial."""

    samples: tuple[float, ...]
    weights: tuple[float, ...]
    kind = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(float(x) for x in self.samples))
        object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))
        if len(self.samples) != len(self.weights):
            raise ConfigError("explicit samples and weights must have equal length")
        if any(not (0.0 <= x <= 1.0) for x in self.samples):
            raise ConfigError("explicit samples must lie in [0, 1]")
        if any(not (-1.0 <= w <= 1.0) for w in self.weights):
            raise ConfigError("explicit weights must lie in [-1, 1]")

    def draw(self, rng, n):
        if n != len(self.samples):
            raise ConfigError(
                f"explicit distribution has {len(self.samples)} entries, need {n}"
            )
        return np.asarray(self.samples), np.asarray(self.weights)

