"""Command-line front end.

Subcommands: `mac` (one MAC from explicit bitstreams), `compare` (both
pipelines side by side), `sweep` (parameter grid), `asc-stats` (gating
savings per distribution), `selftest` (built-in invariant suites).

Exit codes: 0 success, 2 bad config/flags, 3 size mismatch, 4 I/O failure.
All randomness derives from the config/--seed value, so repeated runs
write byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

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
)
from .errors import (
    ConfigError,
    EnergyModelError,
    LengthMismatchError,
    MacError,
    ScmacError,
    SizeMismatchError,
    StreamError,
)
from .mac import MacConfig, MacInputs, decode_voltage, mac_evaluate
from .pipelines import ComparisonResult, run_comparison

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
    for key in EVENT_KEYS:
        cv = conv_e["categories_fj"].get(key)
        pv = prop_e["categories_fj"].get(key)
        if cv is None and pv is None:
            continue
        cv_s = f"{cv / conv_e['outputs']:.2f}" if cv is not None else "-"
        pv_s = f"{pv / prop_e['outputs']:.2f}" if pv is not None else "-"
        lines.append(f"  {key:<24}{cv_s:>14}{pv_s:>14}")
    lines.append(
        f"  {'total':<24}{conv_e['per_output_fj']:>14.2f}{prop_e['per_output_fj']:>14.2f}"
    )
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


def _energy_csv_rows(d: dict):
    conv_e = d["conventional"]["energy"]
    prop_e = d["proposed"]["energy"]
    for key in EVENT_KEYS:
        cv = conv_e["categories_fj"].get(key)
        pv = prop_e["categories_fj"].get(key)
        if cv is None and pv is None:
            continue
        yield {
            "module": key,
            "conventional_fj_per_output": repr(cv / conv_e["outputs"]) if cv is not None else "",
            "proposed_fj_per_output": repr(pv / prop_e["outputs"]) if pv is not None else "",
        }
    yield {
        "module": "total",
        "conventional_fj_per_output": repr(conv_e["per_output_fj"]),
        "proposed_fj_per_output": repr(prop_e["per_output_fj"]),
    }


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _trials_csv_text(res_dict: dict) -> str:
    rows = []
    for t, (dec, orc) in enumerate(zip(res_dict["decoded"], res_dict["oracle"])):
        rows.append(
            {"trial": t, "decoded": repr(dec), "oracle": repr(orc), "error": repr(dec - orc)}
        )
    return _csv_text(rows, ["trial", "decoded", "oracle", "error"])


def write_comparison_reports(d: dict, out_dir: str, fmt: str) -> list[str]:
    written = []
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, "compare_summary.json")
        _write_text(path, json.dumps(d, indent=2, sort_keys=True) + "\n")
        written.append(path)
    if fmt in ("csv", "both"):
        for variant in ("conventional", "proposed"):
            path = os.path.join(out_dir, f"compare_trials_{variant}.csv")
            _write_text(path, _trials_csv_text(d[variant]))
            written.append(path)
        path = os.path.join(out_dir, "compare_energy.csv")
        _write_text(
            path,
            _csv_text(
                _energy_csv_rows(d),
                ["module", "conventional_fj_per_output", "proposed_fj_per_output"],
            ),
        )
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_or_default(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    for attr, field_name in (
        ("m", "m"),
        ("n_inputs", "n_inputs"),
        ("length", "stream_length"),
        ("flip_p", "flip_probability"),
        ("trials", "trials"),
        ("profile", "energy_profile"),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            overrides[field_name] = val
    if getattr(args, "sigma", None) is not None:
        overrides["distribution"] = ZeroPeakedGaussian(args.sigma)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _comparison_for(cfg: ExperimentConfig) -> ComparisonResult:
    return run_comparison(
        cfg.pipeline_config("conventional"),
        cfg.pipeline_config("proposed"),
        tables=cfg.tables,
        energy_profile=cfg.energy_profile,
        efficiency_ops=cfg.efficiency_ops,
        fom_steps=cfg.fom_steps,
        fom_ops=cfg.fom_ops,
    )


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
    cmp_res = _comparison_for(cfg)
    d = cmp_res.to_json_dict()
    print("\n".join(comparison_summary_lines(d)))
    if args.out:
        written = write_comparison_reports(d, args.out, args.format)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def _parse_list(text, cast):
    try:
        values = [cast(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{text!r} is not a comma-separated list of {cast.__name__} values")
    return values


def cmd_sweep(args) -> int:
    base = _load_or_default(args)
    ms = _parse_list(args.m_list, int) if args.m_list else [base.m]
    ns = _parse_list(args.n_list, int) if args.n_list else [base.n_inputs]
    lengths = _parse_list(args.length_list, int) if args.length_list else [base.stream_length]
    sigmas = _parse_list(args.sigma_list, float) if args.sigma_list else [None]
    flips = _parse_list(args.flip_list, float) if args.flip_list else [base.flip_probability]

    rows = []
    for m in ms:
        for n in ns:
            for length in lengths:
                for sigma in sigmas:
                    for flip in flips:
                        point = dict(
                            m=m,
                            n_inputs=n,
                            stream_length=length,
                            flip_probability=flip,
                        )
                        if sigma is not None:
                            point["distribution"] = ZeroPeakedGaussian(sigma)
                        cfg = dataclasses.replace(base, **point)
                        cmp_res = _comparison_for(cfg)
                        rows.append(
                            {
                                "m": m,
                                "n_inputs": n,
                                "stream_length": length,
                                "sigma": "" if sigma is None else repr(sigma),
                                "flip_probability": repr(float(flip)),
                                "conventional_rmse": repr(cmp_res.conventional.rmse),
                                "proposed_rmse": repr(cmp_res.proposed.rmse),
                                "conventional_max_abs_error": repr(
                                    cmp_res.conventional.max_abs_error
                                ),
                                "proposed_max_abs_error": repr(cmp_res.proposed.max_abs_error),
                                "reduction_percent": repr(cmp_res.reduction_percent),
                            }
                        )
                        print(
                            f"m={m} n={n} L={length} sigma={sigma} p={flip}: "
                            f"conv rmse={cmp_res.conventional.rmse:.4g}, "
                            f"prop rmse={cmp_res.proposed.rmse:.4g}, "
                            f"reduction={cmp_res.reduction_percent:.1f}%"
                        )
    if args.out:
        fields = list(rows[0].keys())
        if args.format in ("csv", "both"):
            path = os.path.join(args.out, "sweep_results.csv")
            _write_text(path, _csv_text(rows, fields))
            print(f"wrote {path}")
        if args.format in ("json", "both"):
            path = os.path.join(args.out, "sweep_results.json")
            _write_text(path, json.dumps(rows, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
    return EXIT_OK


def cmd_asc_stats(args) -> int:
    m = args.m if args.m is not None else 15
    sigma = args.sigma if args.sigma is not None else 0.15
    grid = args.grid
    rng_xs = [(k + 0.5) / grid for k in range(grid)]

    entries = []
    for label, survival in (
        ("uniform", uniform_survival),
        (f"zero_peaked_gaussian(sigma={sigma})", ZeroPeakedGaussian(sigma).sample_survival()),
    ):
        expected = expected_enabled_sas(m, survival)
        saving = gating_energy_saving(m, expected)
        entries.append({"distribution": label, "expected_enabled_sas": expected, "saving": saving})

    brute = brute_force_enabled_average(m, rng_xs)
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
        path = os.path.join(args.out, "asc_stats.json")
        _write_text(path, json.dumps(d, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    # imported here, so that the other subcommands do not load the suites
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(verbose=True) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
            p.add_argument("--length", type=int, default=None, help="conventional stream length")
            p.add_argument("--sigma", type=float, default=None, help="zero-peaked sigma")
            p.add_argument("--flip-p", dest="flip_p", type=float, default=None)
            p.add_argument("--trials", type=int, default=None)
            p.add_argument(
                "--profile",
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
    p_asc.add_argument("--sigma", type=float, default=None)
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
