"""Paired benchmark runs of two checkouts, written to one JSON file.

    python3 tools/paired_bench.py --parent DIR --change DIR \
        --workload family_matrix --pairs 10 --out BENCH_19.json

Make both checkouts the same way, with ``git archive``, just before the
round::

    mkdir parent change
    git archive HEAD~1 | tar -x -C parent
    git archive HEAD | tar -x -C change

``kb_churn``'s ``peak_rss_mb`` has read 1.2-1.4% higher in some checkout
directories than in others that hold the very same files, for a reason
not found.  Before reading a difference of that size, run the parent
against a second extraction of the parent.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
process at a time, for ``BENCHMARK.json``'s ``run_seconds`` (read from the
change checkout); the side that runs first alternates from pair to pair,
and pair k (from 1) uses workload seed k.  For every end-to-end metric
that ``BENCHMARK.json`` lists, the file holds both sides' medians and
quartiles, the pairs the change won, whether the change is better by the
claim rule (it wins at least nine tenths of the pairs, and the medians
differ by more than the distance between the parent's quartiles), whether
its median is worse than the parent's by more than the metric's bound,
and whether the runs spread too widely to tell (either side's quartile
distance exceeds the bound, relative to its median, and not every change
run is better than every parent run).  It also holds each run's metrics
and failed-op counts, and names both trees: by commit where a side is the
root of a git clone, else by ``src-sha256:`` and 16 hex digits over the
sorted paths and contents of its ``src/**/*.py``, and by both, joined by
``+``, where a clone's ``src/`` differs from its commit, and gives the
lines and bytes of each side's ``src/alcsim/**/*.py``, the source that
every benchmark process compiles and so what ``setup_s`` and
``peak_rss_mb`` meter.  After the runs it
prints one line per metric on stdout: both medians, their ratio, the pairs
the change won, and which verdicts hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
VERDICTS = ("better_beyond_spread", "worse_than_bound", "unresolved")
RUN_TIMEOUT_S = 900


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its last output line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed in {checkout} (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def tree_of(checkout: Path) -> str:
    """The checked-out commit if ``checkout`` is the root of a git clone,
    with ``+`` and the digest of its sources appended if ``src/`` differs
    from that commit; else that digest alone, ``src-sha256:<16 hex>``."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                          cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.split()
    if not proc.returncode and Path(lines[0]).resolve() == checkout.resolve():
        edited = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all", "--",
             "src"], cwd=checkout, capture_output=True, text=True,
            check=True).stdout
        return lines[1] + ("+" + sources_digest(checkout) if edited else "")
    return sources_digest(checkout)


def sources_digest(checkout: Path) -> str:
    """``src-sha256:`` and 16 hex digits over the sorted paths and contents
    of ``checkout``'s ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted(checkout.glob("src/**/*.py")):
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(checkout).as_posix()}\0{content}\n"
                      .encode())
    return "src-sha256:" + digest.hexdigest()[:16]


def source_size(checkout: Path) -> dict:
    """The lines and bytes of ``checkout``'s ``src/alcsim/**/*.py``."""
    sources = [path.read_bytes()
               for path in checkout.glob("src/alcsim/**/*.py")]
    return {"lines": sum(text.count(b"\n") for text in sources),
            "bytes": sum(map(len, sources))}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metric: dict) -> dict:
    """Medians, quartiles, wins and the claim rule for one metric."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [run[side]["metrics"][name] for run in runs]
              for side in SIDES}
    stats = {side: spread(values[side]) for side in SIDES}
    gains = [(c - p) if higher else (p - c)
             for p, c in zip(values["parent"], values["change"])]
    wins = sum(gain > 0 for gain in gains)
    median_gain = stats["change"]["median"] - stats["parent"]["median"]
    if not higher:
        median_gain = -median_gain
    parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    too_wide = any(
        stats[side]["q3"] - stats[side]["q1"]
        > metric["bound"] * abs(stats[side]["median"]) for side in SIDES)
    change_above = (min(values["change"]) > max(values["parent"]) if higher
                    else max(values["change"]) < min(values["parent"]))
    return {
        "unit": metric["unit"], "better": metric["better"],
        "bound": metric["bound"], **stats,
        "change_over_parent": (stats["change"]["median"]
                               / stats["parent"]["median"]),
        "change_wins": wins, "ties": sum(gain == 0 for gain in gains),
        "parent_iqr": parent_iqr,
        "better_beyond_spread": (wins >= 0.9 * len(runs)
                                 and median_gain > parent_iqr),
        "worse_than_bound": -median_gain > metric["bound"] * abs(
            stats["parent"]["median"]),
        "unresolved": too_wide and not change_above,
    }


def verdict_lines(report: dict) -> list[str]:
    """One line per metric of ``report``, as ``main`` prints them."""
    lines = []
    for name, m in report["metrics"].items():
        held = ", ".join(v for v in VERDICTS if m[v]) or "none"
        lines.append(
            f"{name}: parent {m['parent']['median']:.4g} change "
            f"{m['change']['median']:.4g} {m['unit']} "
            f"({m['change_over_parent']:.3f}x), change won "
            f"{m['change_wins']} of {report['pairs']} pairs; {held}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}

    runs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        run = {"pair": k, "seed": k, "first": order[0]}
        for side in order:
            run[side] = run_once(checkouts[side], args.workload, k, seconds)
        runs.append(run)
        print(f"pair {k}: " + ", ".join(
            f"{side} {run[side]['metrics'].get('ops_per_s', 0):.0f} ops/s"
            for side in SIDES), file=sys.stderr)

    report = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
        "commits": {side: tree_of(checkouts[side]) for side in SIDES},
        "source": {side: source_size(checkouts[side]) for side in SIDES},
        "all_correct": all(run[side]["correct"] for run in runs
                           for side in SIDES),
        "fail_ratio": {side: sum(run[side]["failed"] for run in runs)
                       / sum(run[side]["attempted"] for run in runs)
                       for side in SIDES},
        "metrics": {metric["name"]: summarise(runs, metric)
                    for metric in bench["end_to_end"]},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(verdict_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
