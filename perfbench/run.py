"""Run one alcsim benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload family_matrix --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of that
checkout and from nowhere else.  ``--trace 0`` runs a fixed number of passes
of the workload, each in a fresh process that sets the workload up, makes one
pass and checks its outputs, and reports the end-to-end metrics that
``BENCHMARK.json`` lists; a call's latency is the sum over its pieces, cut
where the garbage collector ran, of each piece's minimum over the passes.
The number of passes is ``--seconds`` over the workload's pass time on the
commit that defined the benchmark, so a run lasts about ``--seconds`` there
and takes the same number of samples on every commit.  ``--trace 1`` alternates traced and untraced passes in one process
for ``--seconds`` and reports the per-layer metrics.  Every output is checked
against ``expected.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, Pinned, mark_collections

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall time of one pass process (start, set-up, pass, checks) on the commit
# that defined the benchmark, on a 2-core VM; it fixes the passes per run.
PASS_SECONDS = {"family_matrix": 2.9, "entail_matrix": 3.5,
                "subsumption_sweep": 11.5, "kb_churn": 2.6}
MIN_PASSES = 3
DEADLINE = 150.0  # no pass starts after this many seconds of a run


def import_alcsim():
    """Import ``alcsim`` from this checkout's ``src/``; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import alcsim
        import alcsim.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import alcsim from {src}: {exc}")
    if src.resolve() not in Path(alcsim.__file__).resolve().parents:
        raise SystemExit(f"alcsim was imported from {alcsim.__file__}, not {src}")
    return alcsim


def set_up(name: str, seed: int, workdir: Path, expected: dict):
    """Import the program and build the workload; returns it with its time."""
    start = time.perf_counter()
    alcsim = import_alcsim()
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name](alcsim, rng, workdir, expected)
    setup = time.perf_counter() - start
    # Input files are the harness's I/O, not the program's work, and creating
    # hundreds of them on a shared disk took anywhere from 0.02 to 0.3 s.
    for path, text in getattr(workload, "files", {}).items():
        path.write_text(text)
    return workload, Pinned(alcsim, workdir, expected), setup


def failed_ops(workload, ops) -> int:
    """Failed ops of a pass; prints the first exception raised, if any."""
    failed = 0
    for op in ops:
        if isinstance(op.output, Exception) and not failed:
            traceback.print_exception(op.output, file=sys.stderr)
        failed += workload.failed_ops(op)
    return failed


def one_pass(name: str, seed: int, workdir: Path, expected: dict) -> dict:
    """Set up, make one pass, then check it and run the pinned requests."""
    workload, pinned, setup = set_up(name, seed, workdir, expected)
    with mark_collections():
        ops = workload.run_pass()
    attempted = sum(op.ops for op in ops)
    return {
        "setup_s": setup,
        "pieces": [op.pieces for op in ops],
        "ops": [op.ops for op in ops],
        "timed_attempted": attempted,
        "timed_failed": failed_ops(workload, ops),
        "attempted": attempted + len(pinned.requests),
        "pinned_failed": pinned.run(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_in_fresh_process(name: str, seed: int) -> dict:
    # The same hash seed in every pass of a run makes them do the same work
    # in the same order, down to where the garbage collector runs.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--one-pass"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"the pass process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_count(name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cut_alike(pieces: tuple[list[float], ...]) -> bool:
    return len({len(p) for p in pieces}) == 1


def call_latency(pieces: tuple[list[float], ...]) -> float:
    """Latency of one call from its pieces in every pass.

    Piece *k* of a call is the same work in every pass, so the call's latency
    is the sum over its pieces of each piece's minimum over the passes.  Where
    the passes cut the call into different numbers of pieces, it is the
    minimum of the whole call.
    """
    if not cut_alike(pieces):
        return min(map(sum, pieces))
    return sum(map(min, zip(*pieces)))


def op_latencies(passes: list[dict]) -> list[float]:
    """Latency of each op, from its call's latency over the passes.

    Every pass makes the same calls in the same order on the same inputs, so
    call ``i`` of every pass does the same work.  Other load on the machine
    only ever adds time to a call, and on a shared 2-core VM it adds 30-100%
    for stretches of milliseconds to minutes, so the minimum over a fixed
    number of passes, taken piece by piece, is the steadiest reading of what
    the program itself costs.  A call that fills a matrix shares its latency
    evenly among its cells.
    """
    return [call_latency(pieces) / ops
            for pieces, ops in zip(zip(*(p["pieces"] for p in passes)),
                                   passes[0]["ops"])
            for _ in range(ops)]


def end_to_end(name: str, seed: int, seconds: float):
    start = time.perf_counter()
    passes = []
    for _ in range(pass_count(name, seconds)):
        if passes and time.perf_counter() - start > DEADLINE:
            break
        passes.append(pass_in_fresh_process(name, seed))
    latencies = op_latencies(passes)
    timed_attempted = sum(p["timed_attempted"] for p in passes)
    timed_failed = sum(p["timed_failed"] for p in passes)
    metrics = {
        "ops_per_s": (len(latencies) * (1 - timed_failed / timed_attempted)
                      / sum(latencies)),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = timed_failed + sum(p["pinned_failed"] for p in passes)
    calls = list(zip(*(p["pieces"] for p in passes)))
    uncut = sum(not cut_alike(pieces) for pieces in calls)
    print(f"{name}: {len(passes)} passes of {len(latencies)} ops in "
          f"{len(calls)} timed calls, each pass in its own process, "
          f"{time.perf_counter() - start:.1f} s; "
          f"{sum(len(pieces[0]) for pieces in calls)} pieces, "
          f"{uncut} calls cut differently between passes")
    print("op_ms " + json.dumps([t * 1e3 for t in latencies]))
    return attempted, failed, metrics


def per_layer(name: str, seed: int, seconds: float):
    workload, pinned, _ = set_up(name, seed, HERE / ".work" / str(os.getpid()),
                                 load_expected())
    attempted = failed = 0
    units: list[dict] = []
    traced: list[float] = []
    plain: list[float] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        with Tracer() as tracer:
            failed += pinned.run()
            began = time.perf_counter()
            traced_ops = workload.run_pass()
            traced.append(time.perf_counter() - began)
        units.append(tracer.metrics())
        began = time.perf_counter()
        plain_ops = workload.run_pass()
        plain.append(time.perf_counter() - began)
        attempted += len(pinned.requests)
        for ops in (traced_ops, plain_ops):
            attempted += sum(op.ops for op in ops)
            failed += failed_ops(workload, ops)
    # counts come from the first traced unit, times are medians over units
    metrics = {key: (statistics.median(u[key] for u in units)
                     if key.endswith("_s") else value)
               for key, value in units[0].items()}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"{name}: {len(units)} traced and {len(plain)} untraced passes; "
          "counts are per traced pass plus the pinned requests")
    return attempted, failed, metrics


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.one_pass:
        workdir = HERE / ".work" / str(os.getpid())
        try:
            result = one_pass(args.workload, args.seed, workdir, load_expected())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        try:
            attempted, failed, values = per_layer(args.workload, args.seed,
                                                  args.seconds)
        finally:
            shutil.rmtree(HERE / ".work" / str(os.getpid()), ignore_errors=True)
        declared = spec["per_layer"]
    else:
        attempted, failed, values = end_to_end(args.workload, args.seed,
                                               args.seconds)
        declared = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        raise SystemExit("metrics differ from those BENCHMARK.json declares")
    print(f"{failed} of {attempted} ops failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
