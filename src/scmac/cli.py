"""Command-line front end.

Subcommands: `mac` (one MAC from explicit bitstreams), `compare` (both
pipelines side by side), `sweep` (parameter grid), `asc-stats` (gating
savings per distribution), `selftest` (built-in invariant suites).

Exit codes: 0 success, 1 any other scmac error or a failed selftest, 2 bad
config/flags, 3 size mismatch, 4 I/O failure.
All randomness derives from the config/--seed value, so repeated runs
write byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

import numpy as np

from .bitstream import Bitstream
from .config import ExperimentConfig, default_config, load_config
from .distributions import ZeroPeakedGaussian
from .energy import (
    ENERGY_PROFILES,
    EVENT_KEYS,
    brute_force_enabled_average,
    expected_enabled_sas,
    gating_energy_saving,
    uniform_survival,
    zero_peaked_survival,
)
from .errors import (
    ConfigError,
    EnergyModelError,
    LengthMismatchError,
    MacError,
    ScmacError,
    SizeMismatchError,
    StreamError,
    short_int,
)
from .mac import MacConfig, MacInputs, decode_voltage, mac_evaluate
from .pipelines import VARIANTS, ComparisonResult, run_comparisons

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# report rendering (shared by stdout and the round-trip check)
# ---------------------------------------------------------------------------


def comparison_summary_lines(d: dict) -> list[str]:
    """Human-readable summary rendered from a comparison JSON dict.

    Feeding a re-parsed report file through this function reproduces the
    printed summary exactly.
    """
    conv = d["conventional"]
    prop = d["proposed"]
    conv_e = conv["energy"]
    prop_e = prop["energy"]
    lines = [
        f"stochastic MAC comparison (energy profile: {d['energy_profile']})",
        (
            f"  inputs: {conv['config']['n_inputs']}   trials: {conv['trials']}   "
            f"seed: {conv['seed']}"
        ),
        "",
        "accuracy vs exact oracle:",
    ]
    for res in (conv, prop):
        s = res["statistics"]
        lines.append(
            f"  {res['variant']:<12} rmse={s['rmse']:.6g}  max|err|={s['max_abs_error']:.6g}  "
            f"mean err={s['mean_error']:.3g}"
        )
    lines += ["", "per-module energy (fJ per output):"]
    lines.append(f"  {'module':<24}{'conventional':>14}{'proposed':>14}")
    for module, *per_output in _module_energies(d):
        cv_s, pv_s = ("-" if v is None else f"{v:.2f}" for v in per_output)
        lines.append(f"  {module:<24}{cv_s:>14}{pv_s:>14}")
    lines += ["", "summary:"]
    rate_mhz = prop_e["rate_hz"] / 1e6
    lines.append(f"  output rate: {rate_mhz:.1f} MHz   supply: {prop['config']['vdd']:.2f} V")
    lines.append(
        f"  energy/output: {conv_e['per_output_pj']:.2f} pJ (conventional) | "
        f"{prop_e['per_output_pj']:.2f} pJ (proposed)"
    )
    lines.append(
        f"  power: {conv_e['power_uw']:.2f} uW (conventional) | "
        f"{prop_e['power_uw']:.2f} uW (proposed)"
    )
    for label, ops in prop_e["efficiency_ops"].items():
        tops = prop_e["efficiency_tops_per_watt"][label]
        lines.append(f"  efficiency [{label}, {ops} ops]: {tops:.1f} TOPS/W")
    steps_ops = prop_e["fom_steps"] * prop_e["fom_ops"]
    lines.append(f"  FoM [steps*ops={steps_ops}]: {prop_e['fom_fj_per_step']:.2f} fJ/step")
    lines.append(f"  reduction: {d['reduction_percent']:.1f}%")
    return lines


def _module_energies(d: dict):
    """(module, conventional, proposed) fJ per output for each module either
    side logs, None on a side without it; then the totals."""
    sides = [d[variant]["energy"] for variant in VARIANTS]
    for key in EVENT_KEYS:
        fj = [e["categories_fj"].get(key) for e in sides]
        if fj != [None, None]:
            yield key, *(None if v is None else v / e["outputs"] for v, e in zip(fj, sides))
    yield "total", *(e["per_output_fj"] for e in sides)


def _write_text(path: str, text: str) -> None:
    data = text.encode("utf-8")
    # a replace over an existing file can flush it to disk, so a report
    # that already holds these bytes is left as it is
    try:
        if os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return
    except OSError:
        pass
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class _Floats(list):
    """A report's list of floats with their reprs, taken once for every report that writes them."""

    def __init__(self, values):
        super().__init__(values)
        self.reprs = list(map(repr, self))


def _reprs(values) -> list[str]:
    """The repr of each value: a `_Floats` list's own, or taken here."""
    return values.reprs if type(values) is _Floats else list(map(repr, values))


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline, byte for byte.

    With an indent, `json` runs its pure-Python encoder, so the text is
    built here: a list of finite floats, most of a comparison report, is one
    join of their reprs; dicts with str keys, other lists, str, int and
    finite floats are written as `json` writes them; anything else goes to
    `json.dumps` at its indent.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """`obj` as the `json.dumps` of `_json_text` writes it after `newline` and its indent."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    inner = newline + "  "
    if (kind is list or kind is _Floats) and obj:
        if set(map(type, obj)) == {float}:
            text = ("," + inner).join(_reprs(obj))
            # the repr of a finite float has no "n", unlike "nan" and "inf"
            if "n" not in text:
                return "[" + inner + text + newline + "]"
        items = [_json_value(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and obj and set(map(type, obj)) == {str}:
        items = [f"{encode_basestring_ascii(k)}: {_json_value(obj[k], inner)}" for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # json escapes every newline inside a string, so each one here starts an indented line
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _csv_text(header, rows) -> str:
    # csv writes floats by repr and None as an empty field
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _trials_csv(res: dict) -> str:
    """The trials table of one side, as `_csv_text` writes its rows of floats."""
    decoded, oracle = res["decoded"], res["oracle"]
    columns = enumerate(zip(decoded, oracle, _reprs(decoded), _reprs(oracle)))
    rows = [f"{t},{d_text},{o_text},{d - o!r}\n" for t, (d, o, d_text, o_text) in columns]
    return "trial,decoded,oracle,error\n" + "".join(rows)


def _write_reports(out_dir: str, fmt: str, reports) -> None:
    """Write, in order, each (file name, "csv" or "json", text builder) that `fmt` selects."""
    for name, kind, text in reports:
        if fmt in (kind, "both"):
            path = os.path.join(out_dir, name)
            _write_text(path, text())
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_or_default(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    # each override flag is stored under the ExperimentConfig field it sets
    given = vars(args)
    names = [f.name for f in dataclasses.fields(cfg)]
    overrides = {name: given[name] for name in names if given.get(name) is not None}
    if given.get("sigma") is not None:
        overrides["distribution"] = ZeroPeakedGaussian(args.sigma)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _pair(cfg: ExperimentConfig, **changes):
    """The (conventional, proposed) PipelineConfigs of `cfg` with `changes` set."""
    return tuple(cfg.pipeline_config(v, **changes) for v in VARIANTS)


def _comparisons_for(base: ExperimentConfig, pairs) -> list[ComparisonResult]:
    """Both pipelines of each pair, priced by `base`'s settings, as `run_comparisons` runs them."""
    return run_comparisons(pairs, **base.pricing)


def _comparison_for(cfg: ExperimentConfig) -> ComparisonResult:
    return _comparisons_for(cfg, [_pair(cfg)])[0]


def _parse_stream(token: str) -> Bitstream:
    try:
        return Bitstream.from_string(token)
    except StreamError as exc:
        # a malformed literal is a bad flag, not a size mismatch
        raise ConfigError(str(exc)) from None


def cmd_mac(args) -> int:
    in_tokens = [t for t in args.in_streams.split(",") if t]
    w_tokens = [t for t in args.w_streams.split(",") if t]
    if len(in_tokens) != len(w_tokens):
        raise SizeMismatchError(
            f"got {len(in_tokens)} input streams but {len(w_tokens)} weights"
        )
    if not in_tokens:
        raise ConfigError("--in and --w need at least one stream each")
    ins = [_parse_stream(t) for t in in_tokens]
    signs, mags = [], []
    for t in w_tokens:
        sign = 1
        if t and t[0] in "+-":
            sign = 1 if t[0] == "+" else 0
            t = t[1:]
        signs.append(sign)
        mags.append(_parse_stream(t))
    m = args.m if args.m is not None else len(ins[0])
    for s in (*ins, *mags):
        if len(s) != m:
            raise SizeMismatchError(f"stream {s.to_string()} is not {m} bits wide")
    try:
        cfg = MacConfig(m, len(ins), args.vdd)
    except MacError as exc:
        # a bad --m or --vdd is a bad argument, not a size mismatch
        raise ConfigError(str(exc)) from None
    inputs = MacInputs(
        [s.bits for s in ins], [s.bits for s in mags], signs
    )
    v, counts = mac_evaluate(inputs, cfg)
    print(f"V = {v:.9f} V")
    print(f"decoded = {decode_voltage(v, cfg)}")
    print(f"n_p = {counts.n_p}, n_n = {counts.n_n}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_or_default(args)
    d = _comparison_for(cfg).to_json_dict()
    print("\n".join(comparison_summary_lines(d)))
    if args.out:
        energy_header = ("module", "conventional_fj_per_output", "proposed_fj_per_output")
        # the summary and the trials tables write the same decodes and oracles
        for side in VARIANTS:
            for key in ("decoded", "oracle"):
                d[side][key] = _Floats(d[side][key])
        reports = [("compare_summary.json", "json", partial(_json_text, d))]
        for side in VARIANTS:
            reports.append((f"compare_trials_{side}.csv", "csv", partial(_trials_csv, d[side])))
        reports.append(
            ("compare_energy.csv", "csv", partial(_csv_text, energy_header, _module_energies(d)))
        )
        _write_reports(args.out, args.format, reports)
    return EXIT_OK


def _parse_list(text, cast):
    try:
        values = [cast(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{text!r} is not a comma-separated list of {cast.__name__} values")
    return values


def _sweep_fields(m, n, length, sigma, flip) -> dict:
    """The pipeline fields one sweep point sets."""
    point = dict(m=m, n_inputs=n, stream_length=length, flip_probability=flip)
    if sigma is not None:
        point["distribution"] = ZeroPeakedGaussian(sigma)
    return point


def _sweep_report(m, n, length, sigma, flip, cmp_res: ComparisonResult) -> tuple[dict, str]:
    """The report row and the printed line of one sweep point."""
    conv, prop = cmp_res.conventional.statistics(), cmp_res.proposed.statistics()
    row = {
        "m": m,
        "n_inputs": n,
        "stream_length": length,
        "sigma": "" if sigma is None else repr(sigma),
        "flip_probability": repr(float(flip)),
        "conventional_rmse": repr(conv["rmse"]),
        "proposed_rmse": repr(prop["rmse"]),
        "conventional_max_abs_error": repr(conv["max_abs_error"]),
        "proposed_max_abs_error": repr(prop["max_abs_error"]),
        "reduction_percent": repr(cmp_res.reduction_percent),
    }
    line = (
        f"m={m} n={n} L={length} sigma={sigma} p={flip}: "
        f"conv rmse={conv['rmse']:.4g}, prop rmse={prop['rmse']:.4g}, "
        f"reduction={cmp_res.reduction_percent:.1f}%"
    )
    return row, line


def cmd_sweep(args) -> int:
    base = _load_or_default(args)
    ms = _parse_list(args.m_list, int) if args.m_list else [base.m]
    ns = _parse_list(args.n_list, int) if args.n_list else [base.n_inputs]
    lengths = _parse_list(args.length_list, int) if args.length_list else [base.stream_length]
    sigmas = _parse_list(args.sigma_list, float) if args.sigma_list else [None]
    flips = _parse_list(args.flip_list, float) if args.flip_list else [base.flip_probability]

    grid = list(itertools.product(ms, ns, lengths, sigmas, flips))
    # every point is built, and so validated, before the first is drawn; a
    # point sets pipeline fields alone, so its pair is all it has to check
    points = [_pair(base, **_sweep_fields(*key)) for key in grid]
    results = _comparisons_for(base, points)
    reported = [_sweep_report(*key, cmp_res) for key, cmp_res in zip(grid, results)]
    rows = [row for row, _ in reported]
    print("\n".join(line for _, line in reported))
    if args.out:
        table = partial(_csv_text, rows[0].keys(), [row.values() for row in rows])
        reports = [("sweep_results.csv", "csv", table)]
        reports.append(("sweep_results.json", "json", partial(_json_text, rows)))
        _write_reports(args.out, args.format, reports)
    return EXIT_OK


# the brute force holds a few float64 arrays of --grid points (8 MB each per
# 10^6) and the closed form sums --m survival terms in Python (about 0.2 s per 10^6)
MAX_ASC_GRID = MAX_ASC_M = 10**6


def cmd_asc_stats(args) -> int:
    m = args.m if args.m is not None else 15
    for flag, value, bound in (("--m", m, MAX_ASC_M), ("--grid", args.grid, MAX_ASC_GRID)):
        if not 1 <= value <= bound:
            raise ConfigError(f"{flag} must lie in [1, {bound}], got {short_int(value)}")
    sigma = ZeroPeakedGaussian(args.sigma).sigma  # rejects a sigma that is not positive and finite
    grid = args.grid
    entries = []
    for label, survival in (
        ("uniform", uniform_survival),
        (f"zero_peaked_gaussian(sigma={sigma})", zero_peaked_survival(sigma)),
    ):
        expected = expected_enabled_sas(m, survival)
        saving = gating_energy_saving(m, expected)
        entries.append({"distribution": label, "expected_enabled_sas": expected, "saving": saving})

    # the midpoints (k + 0.5) / grid, each correctly rounded as in Python
    brute = brute_force_enabled_average(m, (np.arange(grid) + 0.5) / grid)
    d = {
        "m": m,
        "grid_points": grid,
        "closed_form": entries,
        "uniform_brute_force_enabled_sas": brute,
    }
    print(f"ASC chain gating, m={m} (SA 0 always fires; SA i needs Y[i-1] high)")
    for e in entries:
        print(
            f"  {e['distribution']:<36} E[enabled]={e['expected_enabled_sas']:.4f}  "
            f"energy saving={100 * e['saving']:.1f}%"
        )
    print(f"  uniform brute force over {grid} grid points: E[enabled]={brute:.4f}")
    print("  savings depend on the input distribution; compare against your own data")
    if args.out:
        _write_reports(args.out, "json", [("asc_stats.json", "json", partial(_json_text, d))])
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here, so that the other subcommands do not load the suites
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(verbose=True) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `scmac` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scmac",
        description="Stochastic-computing MAC engine and memory-system simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mac = sub.add_parser("mac", help="evaluate one MAC from explicit bitstreams")
    p_mac.add_argument("--in", dest="in_streams", required=True, metavar="BITS,BITS,...")
    p_mac.add_argument(
        "--w",
        dest="w_streams",
        required=True,
        metavar="[+-]BITS,...",
        help="weight magnitudes with optional sign prefix (+ positive, - negative)",
    )
    p_mac.add_argument("--m", type=int, default=None, help="bits per number (default: inferred)")
    p_mac.add_argument("--vdd", type=float, default=1.0)
    p_mac.set_defaults(func=cmd_mac)

    def add_common(p, with_overrides=True):
        p.add_argument("--config", default=None, help="JSON config path (default: built-ins)")
        p.add_argument("--out", default=None, help="directory for report files")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        if with_overrides:
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--n-inputs", dest="n_inputs", type=int, default=None)
            # each dest is the field the flag overrides; the metavars keep the usage text
            p.add_argument(
                "--length",
                dest="stream_length",
                metavar="LENGTH",
                type=int,
                default=None,
                help="conventional stream length",
            )
            p.add_argument("--sigma", type=float, default=None, help="zero-peaked sigma")
            p.add_argument(
                "--flip-p", dest="flip_probability", metavar="FLIP_P", type=float, default=None
            )
            p.add_argument("--trials", type=int, default=None)
            p.add_argument(
                "--profile",
                dest="energy_profile",
                choices=ENERGY_PROFILES,
                default=None,
                help="activity profile for energy pricing",
            )

    p_cmp = sub.add_parser("compare", help="run both pipelines on identical inputs")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid over m/N/L/sigma/flip-p")
    add_common(p_sweep, with_overrides=False)
    p_sweep.add_argument("--m", dest="m_list", default=None, metavar="M1,M2,...")
    p_sweep.add_argument("--n-inputs", dest="n_list", default=None, metavar="N1,N2,...")
    p_sweep.add_argument("--length", dest="length_list", default=None, metavar="L1,L2,...")
    p_sweep.add_argument("--sigma", dest="sigma_list", default=None, metavar="S1,S2,...")
    p_sweep.add_argument("--flip-p", dest="flip_list", default=None, metavar="P1,P2,...")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_asc = sub.add_parser("asc-stats", help="ASC gating energy vs input distribution")
    p_asc.add_argument("--m", type=int, default=None)
    p_asc.add_argument("--sigma", type=float, default=ZeroPeakedGaussian.sigma)
    p_asc.add_argument("--grid", type=int, default=50001, help="brute-force grid size")
    p_asc.add_argument("--out", default=None)
    p_asc.set_defaults(func=cmd_asc_stats)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suites")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SizeMismatchError, LengthMismatchError, MacError, StreamError) as exc:
        print(f"error: size mismatch: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except EnergyModelError as exc:
        print(f"error: energy model: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy refused an allocation up front: the run is too large to hold
        print(f"error: out of memory: {exc or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_CONFIG
    except ScmacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
