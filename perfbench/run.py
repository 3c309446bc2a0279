"""scmac benchmark: one workload per process, host-time metrics, checked outputs.

    python3 perfbench/run.py --workload compare-reference --seed 1 --seconds 50 --trace 0

Run from anywhere; the checkout root is the parent of this directory and
scmac is imported from its `src/`. All times are host (wall-clock) seconds
of the simulator itself; simulated quantities are checked, never gated.

--trace 0 measures the end-to-end metrics: set-up time of a fresh
interpreter (median of several), then operations back to back for
--seconds (the first one a warm-up), one caller, one thread. A fixed gauge
(gauge.py) runs around each timed operation and set-up probe and, from a
timer signal, during each operation; the reported times are rescaled to
the gauge's reference host speed, so that the host's speed drift cancels.
--trace 1 alternates untraced and traced operations for --seconds and
reports the per-layer metrics from the traced ones (see tracer.py).

Every operation's outputs are checked: at the default seed against the
digests in golden.json, at any other seed for byte-identical outputs
across repetitions, and always for the workload's invariants. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# one thread for numpy's native libraries, here and in the set-up probes:
# the workloads are single-threaded. Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_MIN_SAMPLES = 5

# a fresh interpreter up to "first operation ready": imports, config load,
# LFSR cycle fill; the parent times it until the child prints "ready"
SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}]({root!r}, {seed!r}, {workdir!r}).prepare()
print("ready", flush=True)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_scmac():
    """Import scmac from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "scmac", "__init__.py")):
        print(f"error: no scmac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import scmac

    if os.path.dirname(os.path.abspath(scmac.__file__)) != os.path.join(SRC, "scmac"):
        print(f"error: imported scmac from {scmac.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return os.uname().machine


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "scmac")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance(wl, trace: int) -> dict:
    import platform

    import numpy

    return {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": trace,
        "params": wl.params(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def time_setup(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first operation being ready.

    Returns the raw host time and the time at the reference host speed,
    gauged right before and after the probe.
    """
    child_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    code = SETUP_PROBE.format(src=SRC, here=HERE, name=name, root=ROOT, seed=seed, workdir=child_dir)
    with gauge.Sampler(ticks=False) as sampler:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
    return elapsed, sampler.normalise(elapsed)


class Runner:
    """Runs and checks operations of one workload; keeps per-op records."""

    def __init__(self, wl, golden: dict | None, workdir: str):
        self.wl = wl
        self.expected = golden  # digests every operation must reproduce
        self.workdir = workdir
        self.records = []  # dicts: op, traced, seconds, normalised, gauge, problems, figures

    def run_op(self, tracer=None, gauged: bool = False) -> dict:
        op_id = len(self.records) + 1
        out = tempfile.mkdtemp(dir=self.workdir)
        result, raised = None, None
        sampler = gauge.Sampler() if gauged else None
        gc.collect()
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.installed_for(op_id):
                        result = self.wl.call(out)
                else:
                    result = self.wl.call(out)
            except Exception:  # an operation that raises is a failed operation
                raised = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        try:
            if raised is not None:
                digests, problems, figures = {}, ["raised:\n" + raised], {}
            else:
                digests, problems, figures = self.wl.check(result, out)
        except Exception:
            digests, problems, figures = {}, ["check raised:\n" + traceback.format_exc()], {}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if digests:
            if self.expected is None:
                self.expected = digests
            elif digests != self.expected:
                diff = sorted(k for k in set(digests) | set(self.expected) if digests.get(k) != self.expected.get(k))
                problems.append(f"output digests differ from the reference: {diff} -> "
                                f"{ {k: digests.get(k) for k in diff} }")
        rec = {"op": op_id, "traced": tracer is not None, "seconds": elapsed, "problems": problems,
               "figures": figures}
        shown = f"{elapsed:9.4f} s"
        if sampler is not None:
            rec["normalised"] = sampler.normalise(elapsed)
            rec["gauge"] = statistics.fmean(sampler.edges + sampler.ticks)
            shown += (f"  gauge {rec['gauge'] * 1e3:6.2f} ms ({len(sampler.ticks)} ticks)"
                      f"  normalised {rec['normalised']:9.4f} s")
        self.records.append(rec)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"  op {op_id:>3} {'traced  ' if tracer else 'untraced'} {shown}  {status}", flush=True)
        return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(wl, runner: Runner, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics; times are at the reference host speed (gauge.py)."""
    import resource

    timed = runner.records[1:]  # records[0] is the warm-up
    runs = [r["normalised"] for r in timed]
    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["problems"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    q1, med, q3 = quartiles(runs)
    metrics = {
        "setup_s": {"value": statistics.median(s[1] for s in setup), "unit": "s"},
        "run_s": {"value": med, "unit": "s"},
        "mac_outputs_per_s": {"value": wl.outputs_per_op / med, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    print(f"end-to-end ({wl.name}, seed {wl.seed}; host time at the reference host speed, "
          f"on which one gauge run takes {gauge.GAUGE_REF_S} s):")
    print(f"  setup_s            {metrics['setup_s']['value']:.4f} s    median of {len(setup)} fresh interpreters "
          f"(raw host time {statistics.median(s[0] for s in setup):.4f} s)")
    print(f"  run_s              {med:.4f} s    median of {len(runs)} ops, quartiles {q1:.4f} / {q3:.4f}, "
          f"min {min(runs):.4f}, max {max(runs):.4f} (raw host time {statistics.median(r['seconds'] for r in timed):.4f} s)")
    print(f"  mac_outputs_per_s  {metrics['mac_outputs_per_s']['value']:.2f} 1/s  "
          f"({wl.outputs_per_op} MAC outputs per op / median op time)")
    print(f"  peak_rss_mb        {metrics['peak_rss_mb']['value']:.2f} MB")
    print(f"  failed_frac        {failed / attempted:.4f}      ({failed} of {attempted} ops, warm-up included)")
    print(f"  gauge              {statistics.median(r['gauge'] for r in timed) * 1e3:.3f} ms  "
          f"median over ops of the mean gauge run")
    return metrics


def per_layer(wl, runner: Runner, tracer, setup_op: int) -> dict:
    from tracer import LAYERS, layer_totals

    spans = tracer.span_arrays()
    traced = [r for r in runner.records if r["traced"]]
    untraced = [r["seconds"] for r in runner.records[1:] if not r["traced"]]
    per_op = [layer_totals(spans, r["op"]) for r in traced]
    span_counts = [int((spans["op"] == r["op"]).sum()) - 1 for r in traced]  # minus the root span

    def med(fn):
        return statistics.median(fn(t) for t in per_op)

    metrics, shares = {}, {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": med(lambda t: t[layer]["self_s"]), "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": med(lambda t: t[layer]["calls"]), "unit": "count"}
        shares[layer] = med(lambda t: t[layer]["self_s"] / sum(t[x]["self_s"] for x in LAYERS))
    outputs, pairs = wl.outputs_per_op, wl.pairs_per_op
    metrics["converters.calls_per_pair"] = {"value": metrics["converters.calls"]["value"] / pairs, "unit": "count"}
    for layer in ("energy", "lfsr", "pipelines.oracle"):
        metrics[f"{layer}.calls_per_output"] = {
            "value": metrics[f"{layer}.calls"]["value"] / outputs,
            "unit": "count",
        }
    setup_totals = layer_totals(spans, setup_op)
    metrics["setup.lfsr.self_s"] = {"value": setup_totals["lfsr"]["self_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": statistics.median(span_counts), "unit": "count"}
    traced_med = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_frac"] = {"value": traced_med / statistics.median(untraced) - 1.0, "unit": "fraction"}

    print(f"per-layer ({wl.name}, seed {wl.seed}; medians over {len(traced)} traced ops, "
          f"{len(untraced)} untraced; {outputs} outputs and {pairs} pairs per op):")
    print(f"  {'layer':<24}{'self_s':>12}{'share':>9}{'calls':>12}   (share: of the layers' summed self time)")
    for layer in LAYERS:
        print(f"  {layer:<24}{metrics[layer + '.self_s']['value']:>12.4f}"
              f"{100 * shares[layer]:>8.1f}%{metrics[layer + '.calls']['value']:>12.0f}")
    for key in ("converters.calls_per_pair", "energy.calls_per_output", "lfsr.calls_per_output",
                "pipelines.oracle.calls_per_output", "setup.lfsr.self_s", "trace.spans", "trace.overhead_frac"):
        print(f"  {key:<36}{metrics[key]['value']:.6g}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_scmac()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir: str) -> int:
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
    golden = workloads.load_golden()[wl.name] if args.seed == workloads.DEFAULT_SEED else None
    print("provenance " + json.dumps(provenance(wl, args.trace), sort_keys=True), flush=True)

    if not args.trace:
        time_setup(wl.name, args.seed, workdir)  # warms the bytecode cache; not counted
    setup = []
    runner = Runner(wl, golden, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed_for(0):  # op 0: the traced set-up
            wl.prepare()
    else:
        wl.prepare()

    # closed loop, one caller: the first op warms caches and is not timed;
    # with --trace 1, untraced and traced ops alternate. With --trace 0 a
    # set-up probe follows each op, so it samples the same stretch of host
    # speed, and both are gauged (gauge.py).
    deadline = time.perf_counter() + args.seconds
    runner.run_op()
    while True:
        traced_turn = bool(args.trace) and len(runner.records) % 2 == 0
        runner.run_op(tracer if traced_turn else None, gauged=not args.trace)
        if not args.trace:
            setup.append(time_setup(wl.name, args.seed, workdir))
        timed = runner.records[1:]
        enough = len(timed) >= (2 if args.trace else 1)
        if enough and time.perf_counter() >= deadline:
            break
    while not args.trace and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(time_setup(wl.name, args.seed, workdir))

    if args.trace:
        metrics = per_layer(wl, runner, tracer, setup_op=0)
        path = os.path.join(WORK_ROOT, f"trace-{wl.name}.npz")  # the latest traced run's spans
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(wl, runner, setup)
        figures = runner.records[-1]["figures"]
        print("simulated figures of the last op " + json.dumps(figures, sort_keys=True))
        if "headline" in figures:
            print("paper reference (calibrated activity profile; simulated vs paper; "
                  "a match is within one unit of the paper's last digit):")
            for key, (paper, digits) in workloads.PAPER_HEADLINE.items():
                sim = figures["headline"][key]
                mark = "ok" if workloads.matches_paper(key, sim) else "MISMATCH"
                print(f"  {key:<24}{sim:>14.{digits + 2}f}  paper {paper:>7}  "
                      f"diff {sim - float(paper):+.{digits + 2}f}  {mark}")

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["problems"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
