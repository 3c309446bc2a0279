"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload compare-reference --seeds 1-10 \
        --seconds 50 --trace 0 --out perfbench/baseline/compare-reference.json

Runs `run.py` once per seed, one after another, and writes every run's
result line and printed metrics block plus, per metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="summary JSON to write")
    args = p.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        provenance = json.loads(lines[0].split(" ", 1)[1])
        # the metrics block as printed, with raw host times and gauge readings
        report = [line for line in lines if line.startswith(("end-to-end", "per-layer", "  "))]
        runs.append({"seed": seed, "provenance": provenance, "result": result, "report": report})
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                          if not k.endswith(".calls"))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              f"{shown}", flush=True)

    summary = summarise([r["result"] for r in runs])
    for name, s in summary.items():
        if s["spread"] is not None and not name.endswith(".calls"):
            print(f"  {name:<36} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}")
    doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "runs": runs, "summary": summary}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
