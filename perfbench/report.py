"""Run every workload and print its metrics by name, with their units.

    python3 perfbench/report.py [--seeds 1,2,3] [--json OUT]

For each workload this runs ``run.py`` untraced once per seed and traced once
with the first seed, each run as long as ``run_seconds`` of ``BENCHMARK.json``.
It prints the median of every end-to-end metric with the spread between its
quartiles as a share of the median, and ``op_ms_p90`` pooled over the ops of
all the untraced runs with its sample count; then a table of the per-layer
metrics.  ``fail_ratio`` is failed ops over attempted ops, over all runs of a
workload.  The exit status is 1 when any op failed and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run, with its op latencies (ms) when untraced."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["op_ms"] = [t for line in lines if line.startswith("op_ms ")
                       for t in json.loads(line.split(None, 1)[1])]
    return result


def pooled_p90(runs: list[dict]) -> dict:
    """The 90th percentile of the op latencies of all ``runs`` together."""
    samples = [t for r in runs for t in r["op_ms"]]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return {"value": p90, "samples": len(samples),
            "beyond": sum(t > p90 for t in samples)}


def summary(values: list[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    median = statistics.median(values)
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2],
            "iqr_share": (quartiles[2] - quartiles[0]) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1",
                        help="comma-separated workload seeds (default 1)")
    parser.add_argument("--json", type=Path, help="also write the results here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        results[workload] = {
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                               for r in runs])
                           for m in spec["end_to_end"]},
            "op_ms_p90_pooled": pooled_p90(runs),
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "per_layer": {name: v["value"]
                          for name, v in traced["metrics"].items()},
        }

    print(f"{len(seeds)} run(s) of {seconds:g} s per workload, seeds {args.seeds}")
    print(f"{'workload':18} {'metric':12} {'unit':5} {'median':>12} {'iqr/median':>10}")
    for workload, result in results.items():
        for m in spec["end_to_end"]:
            s = result["end_to_end"][m["name"]]
            print(f"{workload:18} {m['name']:12} {m['unit']:5} "
                  f"{s['median']:12.5g} {s['iqr_share']:10.4f}")
        pooled = result["op_ms_p90_pooled"]
        print(f"{workload:18} {'op_ms_p90':12} {'ms':5} {pooled['value']:12.5g}"
              f"   pooled: {pooled['samples']} samples, {pooled['beyond']} beyond")
        print(f"{workload:18} {'fail_ratio':12} {'-':5} {result['fail_ratio']:12.5g}"
              f"   of {result['attempted']} ops")
    names = list(results)
    print(f"\n{'per-layer metric (traced, seed ' + str(seeds[0]) + ')':36} {'unit':5} "
          + " ".join(f"{n:>17}" for n in names))
    for m in spec["per_layer"]:
        cells = " ".join(f"{results[n]['per_layer'][m['name']]:17.6g}"
                         for n in names)
        print(f"{m['name']:36} {m['unit']:5} {cells}")

    if args.json:
        args.json.write_text(json.dumps({
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seeds": seeds,
            "seconds": seconds,
            "workloads": results,
        }, indent=1) + "\n")
    return 1 if any(r["fail_ratio"] > 0 for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
