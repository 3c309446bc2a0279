"""End-to-end datapaths over synthetic sensor data.

Two variants of the same N-input MAC system:

* conventional: ADC -> binary SRAM -> LFSR-comparator stream conversion ->
  AND products -> positive/negative MUX accumulation trees -> ones
  counters. Stochastic, unbiased, with variance shrinking as 1/L.
* proposed: thermometer ASC -> digital SRAM -> mixed-signal capacitor MAC
  -> voltage decode. Deterministic coding, so the decoded result equals
  the exact quantized oracle.

Signed values use sign-magnitude in both variants; the conventional MUX
array is split into a positive and a negative tree whose counts are
subtracted, mirroring the n_p/n_n split of the capacitor array.

Every trial is reproducible from (config seed, trial index). Activity is
logged per event with bit-level SRAM counting; a comparison prices both
runs with `energy.Pricing`, against a configurable profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import numpy as np

from . import mac as mac_mod
from ._prng import _GOLDEN, _MASK64, bounded_uint32, mix, pcg64_lanes, splitmix64_array
from ._prng import unit_below, unit_words
from .bitstream import mux_tree_scale
from .converters import _clip_unit, thermometer_quantize, unit_levels
from .distributions import Explicit, InputDistribution, Uniform
from .energy import ActivityLog, EnergyReport, Pricing
from .errors import ConfigError, ConversionError, MacError, SizeMismatchError, require_int
from .errors import require_real, short_int
from .lfsr import cycle_length, register_taps, select_table, state_table
from .mac import MacConfig

VARIANTS = ("conventional", "proposed")

# a run keeps several 8-byte words per trial, so 2^48 trials would need
# petabytes; far enough beyond that, numpy cannot even size the arrays
MAX_TRIALS = 1 << 48


@dataclass(frozen=True)
class RunConfig:
    """The run fields of both datapath variants, and their checks.

    `m` is the stochastic word width of the proposed coding, `binary_bits`
    the conventional ADC/BSC precision, `stream_length` the conventional
    SC-logic bitstream length (any L up to the LFSR period; the comparator
    threshold is rescaled so the per-bit one-probability stays exact).
    """

    n_inputs: int
    m: int = 15
    vdd: float = 1.0
    binary_bits: int = 4
    stream_length: int = 15
    lfsr_width: int = 15
    lfsr_taps: tuple[int, ...] | None = None
    output_rate_hz: float = 10e6
    distribution: InputDistribution = field(default_factory=Uniform)
    flip_probability: float = 0.0
    trials: int = 1
    seed: int = 1

    def __post_init__(self):
        # each field's type is checked first, and a number is kept as a Python one
        ints = ("n_inputs", "m", "binary_bits", "stream_length", "lfsr_width", "trials", "seed")
        for name in ints:
            object.__setattr__(self, name, require_int(name, getattr(self, name), ConfigError))
        for name in ("vdd", "output_rate_hz", "flip_probability"):
            object.__setattr__(self, name, require_real(name, getattr(self, name), ConfigError))
        dist = self.distribution
        if not isinstance(dist, InputDistribution):
            raise ConfigError(f"distribution must be an InputDistribution, got {dist!r}")
        for name in ("n_inputs", "m", "binary_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {short_int(getattr(self, name))}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must lie in [1, 2^48], got {short_int(self.trials)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {short_int(self.seed)}")
        if not (0 < self.output_rate_hz < math.inf):
            raise ConfigError(f"output_rate_hz {self.output_rate_hz} is not positive and finite")
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ConfigError("flip_probability must lie in [0, 1]")
        try:
            MacConfig(self.m, self.n_inputs, self.vdd)
        except MacError as exc:
            raise ConfigError(str(exc)) from None
        # the draw would refuse it only after the run has started
        if isinstance(dist, Explicit) and len(dist.samples) != self.n_inputs:
            raise ConfigError(
                f"explicit input_distribution has {len(dist.samples)} entries, "
                f"need n_inputs = {short_int(self.n_inputs)}"
            )
        try:
            taps = register_taps(self.lfsr_width, self.lfsr_taps)
            period = cycle_length(self.lfsr_width, taps)
        except ConversionError as exc:
            raise ConfigError(str(exc)) from None
        if self.lfsr_taps is not None:
            object.__setattr__(self, "lfsr_taps", tuple(map(int, self.lfsr_taps)))
        # the comparator mapping and the conventional oracle both assume the
        # cycle visits every state 1..2^width - 1
        if period != (1 << self.lfsr_width) - 1:
            raise ConfigError(
                f"lfsr_taps {list(self.lfsr_taps or taps)} are not maximal for width "
                f"{self.lfsr_width}: period {period}, not {(1 << self.lfsr_width) - 1}"
            )
        if self.stream_length < 1 or self.stream_length > period:
            raise ConfigError(
                f"stream_length must lie in [1, {period}] for a width-"
                f"{self.lfsr_width} LFSR, got {short_int(self.stream_length)}"
            )
        # (2^n - 1) * period < 2^63 iff n + width <= 63, for a maximal period
        # and 2 <= width <= 20; this form never builds 1 << n for a huge n
        if self.binary_bits + self.lfsr_width > 63:
            raise ConfigError(
                f"binary_bits {short_int(self.binary_bits)} is too wide for a "
                f"period-{period} LFSR: comparator thresholds would overflow int64"
            )


@dataclass(frozen=True)
class PipelineConfig(RunConfig):
    """The run fields of one datapath variant."""

    variant: str = field(kw_only=True)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        super().__post_init__()
        # every report echoes the taps, as given or the shipped ones
        taps = self.lfsr_taps or register_taps(self.lfsr_width)
        object.__setattr__(self, "lfsr_taps", tuple(taps))

    @property
    def mac_config(self) -> MacConfig:
        return MacConfig(self.m, self.n_inputs, self.vdd)

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["lfsr_taps"] = list(self.lfsr_taps)
        d["input_distribution"] = d.pop("distribution").to_json_dict()
        return d


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _comparator_thresholds(clipped, binary_bits: int, period: int, out=None, codes=None):
    """Comparator thresholds of inputs already clipped to [0, 1] by `converters._clip_unit`.

    A threshold floor-scales the input's n-bit ADC code, `adc_quantize_flagged`'s
    min(floor(clip(x, 0, 1) * 2^n), 2^n - 1), onto the LFSR range:
    floor(code * period / (2^n - 1)) is the code's full-period ones count,
    the code itself at period 2^n - 1, and PipelineConfig keeps code *
    period below 2^63. This is the one array ADC. `out` takes the
    thresholds, in any integer dtype that holds the period, and `codes`, of
    the inputs' shape, the codes (a signed dtype that holds 2^n * period);
    where not given, they are new arrays and the thresholds are the int64
    codes array.
    """
    if codes is None:
        codes = np.empty(np.shape(clipped), np.int64)
    # scaling by 2^n is exact, and the cast truncates the non-negative product
    np.multiply(clipped, float(1 << binary_bits), out=codes, casting="unsafe")
    top = (1 << binary_bits) - 1
    np.minimum(codes, top, out=codes)
    codes *= period
    out = codes if out is None else out
    return np.floor_divide(codes, top, out=out, casting="unsafe")


# the grouped oracle sums N threshold products of up to period^2 each; at or
# above this bound on N * period^2 it sums Python ints instead of int64
_INT64_SUM_BOUND = 1 << 63


class _OraclePlan:
    """The part of the exact conventional oracle that depends on (N, width, period) alone.

    Input j sits at MUX leaf j. The selects are LFSR LSBs, and 2^(w-1) of
    the period's states are odd, so the tree reaches leaf j with weight
    w_k = one^k * zero^(levels-k) / period^levels, k = popcount(j),
    one = 2^(w-1), zero = period - one. Flips turn the product
    one-probability p = a_j b_j / period^2 into p(1-f) + (1-p)f. Grouping
    the inputs by popcount leaves one big-int term per non-empty group:

        total = scale * sum_k w_k ((f_den - 2 f_num) S_k + f_num period^2 C_k)

    over `den(f)`, where S_k and C_k sum sign_j * a_j * b_j and sign_j over
    popcount(j) = k. Neither sum reads the flip, so one plan serves every
    flip. The flip denominator (2^58 for f = 0.02) times the leaf weights
    overflows any fixed-width integer, so only S_k and C_k are arrays of
    fixed-width integers, and the weights are Python ints.
    """

    def __init__(self, n: int, width: int, period: int):
        scale = mux_tree_scale(n)
        self.levels = scale.bit_length() - 1
        popcount = np.array([j.bit_count() for j in range(n)])
        # an N below 2^levels leaves the top group empty; reduceat sums no empty group
        groups = np.flatnonzero(np.bincount(popcount))
        self.order = np.argsort(popcount, kind="stable")
        self.starts = np.searchsorted(popcount[self.order], groups)
        self.full = period * period
        self.dtype = np.int64 if n * self.full < _INT64_SUM_BOUND else object
        one = 1 << (width - 1)
        self.weights = np.array(
            [scale * one**k * (period - one) ** (self.levels - k) for k in groups.tolist()], object
        )
        self.tree_den = period**self.levels * self.full

    def group_sums(self, values):
        """(T, groups) sums of a (T, N) batch over each popcount group of its columns."""
        return np.add.reduceat(values[:, self.order], self.starts, axis=1)

    def numerators(self, s_sums, c_sums, flip: Fraction):
        """The exact expected decodes at `flip` times `den(flip)`, as Python ints.

        `c_sums` is read only when `flip` is above 0; without flips the C_k terms vanish.
        """
        nums = s_sums.astype(object) @ (self.weights * (flip.denominator - 2 * flip.numerator))
        if flip:
            nums += c_sums.astype(object) @ (self.weights * (flip.numerator * self.full))
        return nums

    def den(self, flip: Fraction) -> int:
        return self.tree_den * flip.denominator


def _check_fixed_inputs(samples, weights, cfg: PipelineConfig):
    samples = np.asarray(samples, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if samples.shape != (cfg.n_inputs,) or weights.shape != (cfg.n_inputs,):
        raise SizeMismatchError(
            f"expected {cfg.n_inputs} samples and weights, got "
            f"{samples.shape} and {weights.shape}"
        )
    return samples, weights


def exact_oracle(samples, weights, cfg: PipelineConfig):
    """Exact reference value of one trial's signed dot product under `cfg.variant`'s coding.

    proposed: the integer sum of sign * min(level_s, level_w), because the
    AND of two thermometer codes has min(count_a, count_b) ones.
    conventional: the exact expected decoded value of the stochastic path,
    as a Fraction. It covers the floor-scaled comparator thresholds, AND
    products of independently phased streams, per-level MUX selects (LFSR
    LSB, so P(1) = 2^(w-1)/(2^w - 1)), optional bit flips on the product
    streams, and the 2^ceil(log2 N) tree rescale.
    """
    samples, weights = _check_fixed_inputs(samples, weights, cfg)
    if cfg.variant == "proposed":
        total = 0
        for s, w in zip(samples, weights):
            a = thermometer_quantize(Fraction(float(s)), cfg.m)
            b = thermometer_quantize(Fraction(abs(float(w))), cfg.m)
            total += min(a, b) if float(w) >= 0.0 else -min(a, b)
        return total
    # the config has checked that the taps are maximal
    period = (1 << cfg.lfsr_width) - 1
    unit, _ = _clip_unit([samples, np.abs(weights)])
    thr_s, thr_w = _comparator_thresholds(unit, cfg.binary_bits, period)[:, None]
    plan = _OraclePlan(cfg.n_inputs, cfg.lfsr_width, period)
    sign = np.where(weights[None, :] >= 0.0, 1, -1)
    products = thr_s.astype(plan.dtype) * thr_w.astype(plan.dtype) * sign
    flip = Fraction(cfg.flip_probability)
    nums = plan.numerators(plan.group_sums(products), plan.group_sums(sign), flip)
    return Fraction(nums[0], plan.den(flip))


# ---------------------------------------------------------------------------
# Datapath runs
# ---------------------------------------------------------------------------


def _flip_row_keys(seed: int, trials: range, n: int) -> np.ndarray:
    """Flip-mask seeds of the input rows of each trial: (T, n) of mix(seed, 0xF11B, t, i).

    mix(seed, 0xF11B, t) is splitmix64(mix(seed, 0xF11B) ^ t), so one array
    round keys every trial, and one more every row.
    """
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    acc = splitmix64_array(t ^ np.uint64(mix(seed, 0xF11B)))
    return splitmix64_array(acc[:, None] ^ np.arange(n, dtype=np.uint64))


# the fields that fix each trial's inputs and phases: configs run from one draw share them
_DRAW_FIELDS = ("n_inputs", "trials", "seed", "distribution")


def _shared(cfgs, names, what: str) -> None:
    """ConfigError naming the fields of `names` on which `cfgs` differ, if any."""
    differ = [name for name in names if len({getattr(cfg, name) for cfg in cfgs}) > 1]
    if differ:
        raise ConfigError(f"{what} must share {', '.join(differ)}")


class _ConventionalRun:
    """One conventional run: the tables its chunks share and the per-trial summaries they count.

    Its configs differ at most in their stream lengths and flip
    probabilities, and in fields the conventional path does not read. A
    shorter stream is the first L bits of the longest one (the same phases,
    thresholds and flip keys), so a chunk draws, thresholds, selects and
    ANDs once at the longest length, and each distinct (length, flip) costs
    one compare, XOR and count of that stream's first L bits. The work on
    a draw block's (T, N) rows, `row_step`, runs once per block, and the work
    on its bits, `count`, once per chunk of the block; together they write each
    trial's decoded values and the integer popcount-group sums of its
    oracles, which neither the length nor the flip changes. `finish` turns
    the sums into exact oracle values, once per flip, and `result` gives
    each config its decodes, oracles and log.
    """

    # the fields its configs share: all it reads but the draw, the length and the flip
    reads = ("binary_bits", "lfsr_width", "lfsr_taps")

    def __init__(self, *cfgs: PipelineConfig):
        cfg = self.cfg = cfgs[0]
        self.lengths = sorted({c.stream_length for c in cfgs})
        self.flips = sorted({c.flip_probability for c in cfgs})
        self.seq2 = state_table(cfg.lfsr_width, cfg.lfsr_taps)
        self.lsb2 = select_table(cfg.lfsr_width, cfg.lfsr_taps)
        self.period = self.seq2.size // 2
        self.plan = _OraclePlan(cfg.n_inputs, cfg.lfsr_width, self.period)
        # the widest per-trial array is (N,) or the (L,) leaf index
        self.width = max(cfg.n_inputs, self.lengths[-1])
        # phases_s, phases_w, then the select phases, one per tree level
        self.phase_sizes = (cfg.n_inputs, cfg.n_inputs, self.plan.levels)
        groups = (cfg.trials, self.plan.starts.size)
        self.decoded = np.empty((len(self.flips), len(self.lengths), cfg.trials))
        self.s_sums = np.empty(groups, self.plan.dtype)
        # |C_k| is at most N
        flipped = self.flips[-1] > 0.0
        self.c_sums = np.empty(groups, np.min_scalar_type(-cfg.n_inputs)) if flipped else None
        self.saturated = 0

    def reserve(self, chunk: int, block: int) -> None:
        """The buffers of chunks of up to `chunk` trials in draw blocks of up to `block` trials."""
        cfg, longest = self.cfg, self.lengths[-1]
        self.chunk = chunk
        # `count` writes a chunk's selected bits, at most chunk * L, into these
        # buffers; `flat` has room for the trailing 0 of the signed counts
        size, most = chunk * longest, max(chunk * cfg.n_inputs, 1 << self.plan.levels)
        self.leaf = np.empty(size, np.min_scalar_type(most - 1))
        # the select bytes are built in `acc`, which is the leaf itself when it
        # is a byte; row r's leaves plus r * N are its flat input indices
        self.acc = self.leaf if self.leaf.itemsize == 1 else np.empty(size, np.uint8)
        self.leaf_offsets = (cfg.n_inputs * np.arange(chunk)[:, None]).astype(self.leaf.dtype)
        self.flat, self.idx = np.empty(size + 1, np.int64), np.empty(size, np.int64)
        self.state, self.thr = np.empty((2, size), self.seq2.dtype)
        self.bits, self.hits = np.empty((2, size), bool)
        self.sign = np.empty(size, np.int8)
        # `row_step` writes a block's ADC codes, thresholds and weight signs,
        # (block, N) each, into these; the codes, scaled by the period, take
        # the narrowest signed dtype that holds 2^n * period, as narrow casts
        # and divisions run faster
        shape = (block, cfg.n_inputs)
        self.codes = np.empty(shape, np.min_scalar_type(-(self.period << cfg.binary_bits)))
        self.thresholds = np.empty((2, *shape), self.seq2.dtype)
        self.weight_signs = np.empty(shape, np.int8)
        # chunk row r's bit t sits at position r * L + t: a phase shifted by
        # 1 - r * L, plus the position, indexes phase + 1 + t of the doubled
        # state table; a flip key shifted by -r * L * golden hashes the position
        # as the key hashes t; a row's bounds end its first L bits, for every L
        rows = np.arange(chunk)[:, None]
        self.shift, self.bounds = 1 - longest * rows, longest * rows + [0, *self.lengths]
        self.key_shift = rows.astype(np.uint64) * np.uint64(longest * _GOLDEN & _MASK64)

    def row_step(self, trials: range, unit, positive, outside) -> None:
        """The row work of a draw block: thresholds, signs, oracle group sums and saturation.

        The inputs are `_prepare_inputs`' arrays, one row per trial of
        `trials`. The thresholds and signs go to the run's buffers, from
        which `count` reads the block's chunks; the work is O(T * N).
        """
        cfg, plan, n_rows, n = self.cfg, self.plan, len(trials), self.cfg.n_inputs
        self.block = trials
        codes = self.codes[:n_rows]
        thr_s, thr_w = (
            _comparator_thresholds(half, cfg.binary_bits, self.period, out, codes)
            for half, out in zip((unit[:, :n], unit[:, n:]), self.thresholds[:, :n_rows])
        )
        sign = self.weight_signs[:n_rows]
        np.copyto(sign, positive)
        sign *= 2
        sign -= 1
        out = slice(trials.start, trials.stop)
        # a threshold is at most the period, below 2^20, so int64 holds every product
        products = thr_s.astype(plan.dtype)
        products *= thr_w
        products *= sign
        self.s_sums[out] = plan.group_sums(products)
        if self.c_sums is not None:
            self.c_sums[out] = plan.group_sums(sign)
        self.saturated += int(np.count_nonzero(outside[:, :n] | outside[:, n:]))

    def selected_inputs(self, sel_phases):
        """Flat bit position row * L + t and flat input index row * N + j(t) of every real selected bit.

        Tree level l sends slot 2k + sel_l[t] to slot k, so at bit t the tree
        outputs leaf j(t) = sum_l sel_l[t] << l. Leaves j >= N are all-zero
        padding, never flipped, and are dropped. `sel_phases` are the chunk's
        (T, levels) select phases, and L is the longest stream length; the
        work is O(T * L * levels) byte operations, into the run's buffers.
        """
        lsb2, levels, n = self.lsb2, sel_phases.shape[1], self.cfg.n_inputs
        n_rows, longest = sel_phases.shape[0], self.lengths[-1]
        size = n_rows * longest
        leaf = self.leaf[:size].reshape(n_rows, longest)
        acc = self.acc[:size].reshape(n_rows, longest)
        # row p is the window lsb2[p + 1 : p + 1 + L]; rows stop inside the table.
        # A view on the table's buffer, as as_strided would build, intern and
        # drop the keys of an __array_interface__ dict on every call, and so
        # churn the interpreter's table of interned strings
        shape, strides = (lsb2.size // 2, longest), lsb2.strides * 2
        windows = np.ndarray(shape, lsb2.dtype, lsb2, lsb2.itemsize, strides)
        if not levels:
            # a one-input tree selects leaf 0 at every bit
            leaf.fill(0)
        # a scalar phase reads its window as a view, an array of them gathers
        phases = sel_phases[0] if n_rows == 1 else sel_phases.T
        # Horner's rule on each byte of levels, top byte first, in uint8 steps
        # (uint16 shifts and mixed-dtype ORs measured slower); each byte then
        # goes into the leaf with one shift and OR
        for lo in reversed(range(0, levels, 8)):
            top = min(lo + 8, levels) - 1
            acc[...] = windows[phases[top]]
            for level in reversed(range(lo, top)):
                acc += acc
                acc |= windows[phases[level]]
            if lo + 8 < levels:
                leaf <<= 8
                leaf |= acc
            elif self.acc is not self.leaf:
                np.copyto(leaf, acc)
        # the mask of real leaves borrows the bytes of `flat`
        pos = np.flatnonzero(np.less(leaf, n, out=self.flat.view(bool)[:size].reshape(leaf.shape)))
        if n_rows > 1:
            leaf += self.leaf_offsets[:n_rows]
        # take casts into no other dtype, so the real leaves are gathered
        # into the bytes of `idx` and widened into `flat`
        k = pos.size
        flat = self.flat[:k]
        flat[...] = leaf.ravel().take(pos, out=self.idx.view(leaf.dtype)[:k], mode="clip")
        return pos, flat

    def count(self, rows: slice, keys, phases_s, phases_w, sel_phases) -> None:
        """Count the chunk `rows` of the last `row_step` block at its selected MUX leaves only.

        The phases are the chunk's (T, N) rows, and `sel_phases` its
        (T, levels) rows; `keys` are the block's (block, N) flip row keys,
        read only with flips. Each output bit is one product bit
        S_j[t] & W_j[t] of the leaf j(t) the tree selects (flipped by its
        keyed draw), or 0 at a padding leaf; the work is O(T * L * levels),
        never T * N * L, and it writes into the run's buffers.
        """
        plan, trials = self.plan, self.block[rows]
        n_rows, out = len(trials), slice(trials.start, trials.stop)
        # one select network feeds both trees, as a single MUX array would
        pos, flat = self.selected_inputs(sel_phases)
        k = pos.size
        bits, hits, state, thr = self.bits[:k], self.hits[:k], self.state[:k], self.thr[:k]
        thr_s, thr_w = self.thresholds[:, rows]
        for phases, thresholds, out_bits in ((phases_s, thr_s, bits), (phases_w, thr_w, hits)):
            idx = (phases + self.shift[:n_rows]).take(flat, out=self.idx[:k], mode="clip")
            idx += pos
            self.seq2.take(idx, out=state, mode="clip")
            thresholds.take(flat, out=thr, mode="clip")
            np.less_equal(state, thr, out=out_bits)
        bits &= hits
        signs = self.weight_signs[rows].take(flat, out=self.sign[:k], mode="clip")
        if self.flips[-1] > 0.0:
            # the keyed draw of every selected bit, shared by every flip
            shifted = keys[rows] - self.key_shift[:n_rows]
            words = shifted.take(flat, out=self.idx[:k].view(np.uint64), mode="clip")
            unit_words(words, pos.view(np.uint64), out=words, work=flat.view(np.uint64))
        # a row's signed counts between consecutive bounds add up to each length's
        # (row 0's bounds are the lengths); reduceat reads an empty segment's
        # start, and a trailing 0 keeps a start of k inside
        ends = pos.searchsorted(self.bounds[:n_rows])
        starts, empty = ends[:, :-1].ravel(), ends[:, :-1] == ends[:, 1:]
        signed = self.flat[: k + 1]
        signed[k] = 0
        for per_flip, flip in zip(self.decoded, self.flips):
            kept = np.not_equal(bits, unit_below(words, flip, out=hits), out=hits) if flip else bits
            np.multiply(kept.view(np.int8), signs, out=signed[:k], casting="unsafe")
            sums = np.add.reduceat(signed, starts).reshape(empty.shape)
            sums[empty] = 0
            per_flip[:, out] = (sums.cumsum(axis=1) * (1 << plan.levels) / self.bounds[0, 1:]).T

    def finish(self) -> None:
        """The exact oracles of every flip and the length-independent log notes."""
        cfg, plan = self.cfg, self.plan
        self.oracles = np.empty((len(self.flips), cfg.trials))
        step = max(1, _FINISH_BLOCK // plan.starts.size)
        for lo in range(0, cfg.trials, step):
            rows = slice(lo, lo + step)
            c_sums = None if self.c_sums is None else self.c_sums[rows]
            for oracle, flip in zip(self.oracles, map(Fraction, self.flips)):
                # int true division is correctly rounded, as float(Fraction(num, den)) is
                oracle[rows] = plan.numerators(self.s_sums[rows], c_sums, flip) / plan.den(flip)
        self.meta = {"adc_saturation": self.saturated} if self.saturated else {}
        self.meta["mux_pad_streams"] = cfg.trials * 2 * ((1 << plan.levels) - cfg.n_inputs)

    def result(self, cfg: PipelineConfig) -> ExperimentResult:
        """`cfg`'s decodes, its flip's exact oracles and its activity log."""
        i = self.flips.index(cfg.flip_probability)
        decoded = self.decoded[i, self.lengths.index(cfg.stream_length)]
        t, n, n_bits = cfg.trials, cfg.n_inputs, cfg.binary_bits
        # the ADC converts sensor samples only, as weights are preloaded. The
        # binary store writes fresh samples, reads samples + weights (+1 sign
        # bit), then takes the assumed write-back of both counts
        sram = n * n_bits + n * n_bits + n * (n_bits + 1) + 2 * cfg.stream_length.bit_length()
        counts = {
            "adc_convert": t * n,
            "sram_cell_access": t * sram,
            "bsc_convert": t * 2 * n,
            "sc_logic_eval": t * n,
            "sbc_convert": t * 2,
        }
        log, oracle = ActivityLog(counts, self.meta), self.oracles[i]
        return ExperimentResult(cfg.variant, cfg.to_json_dict(), cfg.seed, decoded, oracle, log)


class _ProposedRun:
    """The per-trial product counts and oracles of one proposed run, decoded once per run.

    Its configs differ at most in their flip probabilities and in fields the
    capacitor path does not read (the stream length, the LFSR and the ADC
    width), so the ASC levels are found once and each distinct flip costs
    one compare, XOR and count of the (T, N, m) product bits.
    """

    reads = ("m", "vdd")
    # the capacitor array reads no LFSR phases
    phase_sizes, period = (), 0

    def __init__(self, *cfgs: PipelineConfig):
        cfg = self.cfg = cfgs[0]
        self.flips = sorted({c.flip_probability for c in cfgs})
        # the widest per-trial array is (N,) or the (N, m) flip masks
        self.width = cfg.n_inputs * cfg.m if self.flips[-1] > 0.0 else cfg.n_inputs
        self.n_p, self.n_n = np.empty((2, len(self.flips), cfg.trials), dtype=np.int64)
        self.oracle = np.empty(cfg.trials, dtype=np.int64)
        self.fired = self.clamped = 0

    def reserve(self, chunk: int, block: int) -> None:
        """`count`'s chunks of up to `chunk` trials; the run holds no buffers across calls."""
        self.chunk = chunk

    def row_step(self, trials: range, unit, positive, outside) -> None:
        """The row work of a draw block: ASC levels, the oracles and the unflipped counts.

        The inputs are `_prepare_inputs`' arrays, one row per trial of
        `trials`; the product levels stay for `count` to flip.
        """
        m, n, out = self.cfg.m, self.cfg.n_inputs, slice(trials.start, trials.stop)
        levels = unit_levels(unit, m)
        samples = levels[:, :n]
        # a level-l sample fires 1 + min(l, m - 1) = 1 + l - [l == m] SAs
        fired = samples.size + int(samples.sum(dtype=np.int64))
        fired -= int(np.count_nonzero(samples == m))
        # the AND of two thermometer codes has min(count_a, count_b) leading ones
        exact = np.minimum(samples, levels[:, n:])
        n_p = np.multiply(exact, positive).sum(axis=1, dtype=np.int64)
        n_n = exact.sum(axis=1, dtype=np.int64) - n_p
        # the quantized oracle reads the same levels: sign * min(level_s, level_w)
        self.oracle[out] = n_p - n_n
        # the flips ascend, so a flip of 0 comes first and counts the unflipped levels
        if self.flips[0] == 0.0:
            self.n_p[0, out], self.n_n[0, out] = n_p, n_n
        self.fired += fired
        self.clamped += int(np.count_nonzero(outside[:, :n]))
        self.block, self.exact, self.positive = trials, exact, positive

    def count(self, rows: slice, keys) -> None:
        """Count every flip above 0 on the chunk `rows` of the last `row_step` block.

        `keys` are the block's (block, N) flip row keys; the work is O(T * N * m).
        """
        if self.flips[-1] == 0.0:
            return
        m, trials, positive = self.cfg.m, self.block[rows], self.positive[rows]
        out = slice(trials.start, trials.stop)
        products = np.arange(m) < self.exact[rows, :, None]
        words = unit_words(keys[rows, :, None], np.arange(m))
        for i, flip in enumerate(self.flips):
            if flip > 0.0:
                per_pair = (products ^ unit_below(words, flip)).sum(axis=2, dtype=np.int64)
                n_p = np.multiply(per_pair, positive).sum(axis=1)
                self.n_p[i, out], self.n_n[i, out] = n_p, per_pair.sum(axis=1) - n_p

    def finish(self) -> None:
        """The decodes of every flip and the activity log, shared by every config."""
        cfg = self.cfg
        t, n, m = cfg.trials, cfg.n_inputs, cfg.m
        self.decoded = np.empty((len(self.flips), t))
        for lo in range(0, t, _FINISH_BLOCK):
            rows = slice(lo, lo + _FINISH_BLOCK)
            for out, n_p, n_n in zip(self.decoded, self.n_p, self.n_n):
                out[rows] = mac_mod.decode_counts(n_p[rows], n_n[rows], cfg.mac_config)

        # gated pricing: only fired SAs draw energy; per-conversion and
        # disabled tallies stay in metadata so nothing is double-priced
        meta = {"asc_conversions": t * n, "sa_disabled": t * n * m - self.fired}
        if self.clamped:
            meta["asc_input_clamped"] = self.clamped
        # one evaluation walks idle (EN low), accumulate (S1) and share (S2) once
        meta.update(mac_phase_idle=t, mac_phase_accumulate=t, mac_phase_share=t)
        # stochastic store: write fresh sample codes, read samples + weights
        # (+ sign), then the assumed output write-back
        sram = n * m + n * m + n * (m + 1) + (2 * m * n).bit_length()
        counts = {
            "sa_fire": self.fired,
            "sram_cell_access": t * sram,
            "mixed_signal_mac_eval": t * n,
        }
        self.counts, self.meta = counts, meta
        # every flip reads the same quantized oracle
        self.oracles = self.oracle.astype(np.float64)

    def result(self, cfg: PipelineConfig) -> ExperimentResult:
        """`cfg`'s decodes, the exact oracles and the activity log."""
        decoded = self.decoded[self.flips.index(cfg.flip_probability)]
        log, oracle = ActivityLog(self.counts, self.meta), self.oracles
        return ExperimentResult(cfg.variant, cfg.to_json_dict(), cfg.seed, decoded, oracle, log)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """Per-trial decodes and oracles, activity, and optional energy pricing."""

    variant: str
    config: dict
    seed: int
    decoded: np.ndarray
    oracle: np.ndarray
    activity: ActivityLog
    energy: EnergyReport | None = None

    @property
    def errors(self) -> np.ndarray:
        return self.decoded - self.oracle

    @property
    def trials(self) -> int:
        return int(self.decoded.size)

    @property
    def max_abs_error(self) -> float:
        return self.statistics()["max_abs_error"]

    @property
    def rmse(self) -> float:
        return self.statistics()["rmse"]

    def statistics(self) -> dict[str, float]:
        """Max |error|, RMSE and mean error, from one subtraction of the oracles."""
        errors = self.errors
        return {
            "max_abs_error": float(np.abs(errors).max()),
            "rmse": float(np.sqrt(np.mean(errors**2))),
            "mean_error": float(errors.mean()),
        }

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "config": self.config,
            "seed": self.seed,
            "trials": self.trials,
            "statistics": self.statistics(),
            "decoded": self.decoded.tolist(),
            "oracle": self.oracle.tolist(),
            "activity": {"counts": dict(self.activity.counts), "meta": dict(self.activity.meta)},
            "energy": self.energy.to_json_dict() if self.energy else None,
        }


# trials per `count` call: about this many (trial, input or bit) elements
_CHUNK_ELEMENTS = 1 << 13

# Python ints (conventional oracle) or trials (proposed decode) per block of
# a run's finishing pass, which bounds the memory the pass takes
_FINISH_BLOCK = 1 << 10

# trials seeded per `pcg64_lanes` call: a call has a fixed cost of about
# 0.08 ms, about 60 lanes' worth, and its lanes are Python ints of about
# 0.3 KB each while it runs, so the block bounds the memory seeding takes
_LANE_BLOCK = 1 << 8


def _trial_lanes(seed: int, trials: int):
    """PCG64 (state, inc) of every trial's generator, seeded a block of trials at a time."""
    for lo in range(0, trials, _LANE_BLOCK):
        yield from zip(*pcg64_lanes(seed, lo, min(lo + _LANE_BLOCK, trials)))


def _draw_trials(cfg: PipelineConfig, fixed, trials: range, lanes, gen, phase_sizes, periods):
    """The (T, 2N) samples and weights of a block of trials, and for each
    period of `periods` the (T, size) LFSR phases of each size below it.

    The rows equal what each trial's own `np.random.default_rng((seed, t))`
    gives: its inputs (or `fixed`), then `integers(0, period, size=k)` for
    each k in `phase_sizes`. One `gen` takes each trial's lane state in turn,
    fills the trial's row of a (T, 2N) input block with one call and takes
    the raw phase words as one block per trial; the distribution shapes the
    input block, and the words are mapped below each period, for the whole
    block at once. Trials whose phases numpy would redraw below a period are
    drawn again from their own generator.
    """
    n, rows, dist = cfg.n_inputs, len(trials), cfg.distribution
    count = sum(phase_sizes)
    block = np.empty((rows, 2 * n))
    if fixed is not None:
        block[:, :n], block[:, n:] = fixed
    bg = gen.bit_generator
    raw = np.empty((rows, -(-count // 2)), dtype=np.uint64)
    # fixed inputs without phases draw nothing, so no lane is seeded for them
    for row in range(rows if fixed is None or count else 0):
        state, inc = next(lanes)
        bg.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if fixed is None:
            dist.fill_row(gen, block[row])
        if count:
            raw[row] = bg.random_raw(raw.shape[1])
    if fixed is None:
        dist.shape_block(block)
    split = {}
    for period in periods:
        phases, redraw = bounded_uint32(raw, count, period)
        for row in np.flatnonzero(redraw):
            rng = np.random.default_rng((cfg.seed, trials[row]))
            if fixed is None:
                dist.draw(rng, n)
            phases[row] = rng.integers(0, period, size=count)
        first, second = phase_sizes[0], phase_sizes[0] + phase_sizes[1]
        split[period] = [phases[:, :first], phases[:, first:second], phases[:, second:]]
    return block, split


def _prepare_inputs(inputs, unit=None, positive=None, outside=None):
    """Both runs' `row_step` inputs from a draw block's (T, 2N) samples and weights.

    They are the weight signs as `positive` (weights >= 0), then the whole
    block, with the weights turned into their magnitudes in place, clipped to
    [0, 1] as `unit` and flagged where it lay outside as `outside`; NaN is
    rejected. The arrays are written into the buffers given, (T, 2N),
    (T, N) and (T, 2N), or new ones; `row_step` takes them as
    (unit, positive, outside).
    """
    n = inputs.shape[1] // 2
    weights = inputs[:, n:]
    positive = np.greater_equal(weights, 0.0, out=positive)
    np.abs(weights, out=weights)
    unit, outside = _clip_unit(inputs, unit, outside)
    return unit, positive, outside


def _run_pipeline(samples, weights, *cfgs: PipelineConfig) -> list[ExperimentResult]:
    """Each config's result, in order, all from the same per-trial inputs, drawn once.

    The configs share the draw's (n_inputs, trials, seed, distribution), so
    they draw the same inputs and phase words. Each variant has one run per
    distinct `reads`, and each conventional run maps the phase words below
    its own period. Every draw block holds whole chunks of each run: each run
    does the block's row work once, then counts its own chunks of the
    block, and only a run's last chunk can be partial. The flip row keys
    are hashed, and the inputs clipped, once per block for every run.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    _shared(cfgs, _DRAW_FIELDS, "configs run together")
    fixed = None
    if samples is not None or weights is not None:
        if samples is None or weights is None:
            raise SizeMismatchError("provide both samples and weights, or neither")
        fixed = _check_fixed_inputs(samples, weights, cfg)

    run_classes = (_ConventionalRun, _ProposedRun)

    def run_key(c):
        i = VARIANTS.index(c.variant)
        return i, attrgetter(*run_classes[i].reads)(c)

    # one run per key, the conventional ones first: they read the phases and
    # count first, so the phases are freed before any proposed run counts
    runs = {k: run_classes[k[0]](*mine) for k, mine in groupby(sorted(cfgs, key=run_key), run_key)}
    phase_sizes = max(run.phase_sizes for run in runs.values())
    periods = {run.period for run in runs.values() if run.phase_sizes}
    # the trials whose inputs and raw phase words come to about a chunk's worth
    per_block = _CHUNK_ELEMENTS // (2 * cfg.n_inputs + -(-sum(phase_sizes) // 2))
    # a chunk takes about _CHUNK_ELEMENTS elements of its run's widest
    # per-trial array; where one trial of the widest run holds more than
    # that, a narrower run may take as many trials as fit it, up to a draw
    # block's worth. Every run's chunk becomes a multiple of the smallest
    budget = max(_CHUNK_ELEMENTS, *(run.width for run in runs.values()))
    chunks = [
        max(1, _CHUNK_ELEMENTS // run.width, min(budget // run.width, per_block))
        for run in runs.values()
    ]
    chunks = [chunk - chunk % min(chunks) for chunk in chunks]
    # a draw block holds about a chunk's worth of drawn elements, as each
    # block pays a fixed cost for its phases, and at least one chunk
    largest = max(chunks)
    step = largest * max(1, per_block // largest)
    for run, chunk in zip(runs.values(), chunks):
        run.reserve(chunk, step)
    # the prepared inputs of every block, held for the whole call
    n = cfg.n_inputs
    unit, outside = np.empty((step, 2 * n)), np.empty((step, 2 * n), bool)
    positive = np.empty((step, n), bool)
    flipped = max(c.flip_probability for c in cfgs) > 0.0
    lanes = _trial_lanes(cfg.seed, cfg.trials)
    gen = np.random.Generator(np.random.PCG64(0))
    for start in range(0, cfg.trials, step):
        block = range(start, min(start + step, cfg.trials))
        inputs, phases = _draw_trials(cfg, fixed, block, lanes, gen, phase_sizes, periods)
        size = len(block)
        prepared = _prepare_inputs(inputs, unit[:size], positive[:size], outside[:size])
        keys = _flip_row_keys(cfg.seed, block, n) if flipped else None
        for run in runs.values():
            if not run.phase_sizes:
                phases.clear()
            mine = phases.get(run.period, ())
            run.row_step(block, *prepared)
            for lo in range(0, size, run.chunk):
                rows = slice(lo, min(lo + run.chunk, size))
                run.count(rows, keys, *(a[rows] for a in mine))
        # a block's rows are freed before the next block is drawn
        del inputs, phases, mine, keys

    for run in runs.values():
        run.finish()
    return [runs[run_key(c)].result(c) for c in cfgs]


def _require_variant(cfg: PipelineConfig, variant: str) -> None:
    if cfg.variant != variant:
        raise ConfigError(f"config variant is {cfg.variant!r}")


def conventional_pipeline(samples, weights, cfg: PipelineConfig) -> ExperimentResult:
    """Run the conventional datapath; pass samples=weights=None to draw per trial."""
    _require_variant(cfg, "conventional")
    return _run_pipeline(samples, weights, cfg)[0]


def proposed_pipeline(samples, weights, cfg: PipelineConfig) -> ExperimentResult:
    """Run the proposed datapath; pass samples=weights=None to draw per trial."""
    _require_variant(cfg, "proposed")
    return _run_pipeline(samples, weights, cfg)[0]


@dataclass
class ComparisonResult:
    """Both variants on identical inputs, plus the energy comparison."""

    conventional: ExperimentResult
    proposed: ExperimentResult
    reduction_percent: float
    energy_profile: str

    def to_json_dict(self) -> dict:
        return {
            "energy_profile": self.energy_profile,
            "reduction_percent": self.reduction_percent,
            "conventional": self.conventional.to_json_dict(),
            "proposed": self.proposed.to_json_dict(),
        }


def run_comparisons(pairs, *, samples=None, weights=None, **pricing_fields) -> list[ComparisonResult]:
    """Run both pipelines of each (conventional, proposed) pair on identical inputs and price them.

    The pairs run in families, each from one draw per trial: a family is
    the pairs that share the draw fields, and each variant runs once per
    distinct `reads`, so a sweep over lengths, flips and m counts the
    longest stream once and runs the proposed path once per m. Every pair,
    and any fixed `samples` and `weights`, is checked before the first
    family draws; results come in pair order, and no pairs give none. The
    other keywords are the fields of `energy.Pricing`, which checks them
    before any pair.
    """
    pricing = Pricing(**pricing_fields)
    pairs = list(pairs)
    shared = (*_DRAW_FIELDS, "output_rate_hz", "flip_probability")
    draw_key = attrgetter(*_DRAW_FIELDS)
    families: dict[tuple, list[int]] = {}
    for i, (conv_cfg, prop_cfg) in enumerate(pairs):
        _shared((conv_cfg, prop_cfg), shared, "both variants of a comparison")
        _require_variant(conv_cfg, "conventional")
        _require_variant(prop_cfg, "proposed")
        families.setdefault(draw_key(conv_cfg), []).append(i)
    if samples is not None and weights is not None:
        for family in families.values():
            _check_fixed_inputs(samples, weights, pairs[family[0]][0])

    comparisons = [None] * len(pairs)
    for family in families.values():
        got = _run_pipeline(samples, weights, *(cfg for i in family for cfg in pairs[i]))
        for i, conv_res, prop_res in zip(family, got[::2], got[1::2]):
            logs = (conv_res.activity, prop_res.activity)
            # both sides of a pair share N, trials and the output rate
            conv_res.energy, prop_res.energy = pricing.price(logs, pairs[i][0])
            red = prop_res.energy.reduction_vs_baseline_percent
            comparisons[i] = ComparisonResult(conv_res, prop_res, red, pricing.energy_profile)
    return comparisons


def run_comparison(
    conv_cfg: PipelineConfig, prop_cfg: PipelineConfig, **options
) -> ComparisonResult:
    """`run_comparisons` of the one pair; see there for the options."""
    return run_comparisons([(conv_cfg, prop_cfg)], **options)[0]
