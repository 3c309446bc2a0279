"""Synthetic sensor-input distributions for experiments.

Samples are unsigned fractions of full scale in [0, 1]; weights are signed
in [-1, 1]. The zero-peaked option mimics convolution-layer outputs, whose
values cluster around zero; its width is a config knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, require_real


@dataclass(frozen=True)
class InputDistribution:
    """A trial's inputs, drawn as one row of 2N values: the N samples, then the N weights.

    `fill_row` fills a row from the generator with one call, and
    `shape_block` turns a (T, 2N) block of filled rows into inputs in place,
    so a run fills one row per trial and shapes each block once.
    """

    kind = "abstract"

    def fill_row(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """Fill one trial's (2N,) float64 row from `rng`."""
        raise NotImplementedError

    def shape_block(self, block: np.ndarray) -> None:
        """Turn a (T, 2N) block of filled rows into samples and weights, in place."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(samples in [0,1], weights in [-1,1]) for one trial: one row, filled and shaped."""
        row = np.empty((1, 2 * n))
        self.fill_row(rng, row[0])
        self.shape_block(row)
        return row[0, :n], row[0, n:]

    def to_json_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"kind": self.kind, **{k: list(v) if isinstance(v, tuple) else v for k, v in values}}


@dataclass(frozen=True)
class Uniform(InputDistribution):
    kind = "uniform"

    def fill_row(self, rng, row):
        rng.random(out=row)

    def shape_block(self, block):
        # numpy's uniform(low, high) is low + (high - low) * x, so the samples'
        # uniform(0, 1) is x itself
        weights = block[:, block.shape[1] // 2 :]
        weights *= 2.0
        weights += -1.0


@dataclass(frozen=True)
class ZeroPeakedGaussian(InputDistribution):
    """Gaussian around zero, clipped to range; sigma in full-scale units."""

    sigma: float = 0.15
    kind = "zero_peaked_gaussian"

    def __post_init__(self):
        object.__setattr__(self, "sigma", require_real("sigma", self.sigma, ConfigError))
        if not (0 < self.sigma < math.inf):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")

    def fill_row(self, rng, row):
        rng.standard_normal(out=row)

    def shape_block(self, block):
        # numpy's normal(0, sigma) is 0.0 + sigma * x, whose + 0.0 turns -0.0 into +0.0
        block *= self.sigma
        block += 0.0
        n = block.shape[1] // 2
        samples, weights = block[:, :n], block[:, n:]
        np.abs(samples, out=samples)
        np.minimum(samples, 1.0, out=samples)
        np.maximum(weights, -1.0, out=weights)
        np.minimum(weights, 1.0, out=weights)


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

    def fill_row(self, rng, row):
        """Draws nothing: every trial's inputs are the same."""

    def shape_block(self, block):
        n = block.shape[1] // 2
        if n != len(self.samples):
            raise ConfigError(f"explicit distribution has {len(self.samples)} entries, need {n}")
        block[:, :n] = self.samples
        block[:, n:] = self.weights
