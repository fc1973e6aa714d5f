"""Benchmark of the elastica lab: one workload per process, one ladder at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wg-square-eig --seed 1 --seconds 40 --trace 0

Workloads are defined in `workloads.py`.  A run is a closed loop with one
client: it solves whole ladders back to back and starts another only while
the previous ladder's time still fits in `--seconds`.  The seed picks the
ARPACK start vector of each ladder (`ExperimentConfig.seed`); the source
workload is deterministic and ignores it.  Every level solve is checked by
the workload's correctness gate; a failure counts and the run goes on.

`--trace 0` reports the end-to-end metrics:

* ``ladder_s``    median wall time from the call into the lab to the checked table;
* ``peak_rss_mb`` peak resident memory of this process;
* ``setup_s``     median over 5 fresh processes of the time to import the
                  lab, numpy and scipy and finish a warm-up solve of the
                  coarsest level (`setup_probe.py`);
* ``passed_ops``  share of level solves that passed the gate.  The count
                  of failed ones is the result's ``failed``.

`--trace 1` solves one ladder untraced, then traced ladders (see
`spans.py`), and reports the per-layer metrics: sums over a ladder and
values at the finest level, medians over traced ladders, and
``trace.overhead_s``, the traced minus the untraced ladder time.  It writes
the spans to ``perfbench/out/trace-<workload>-<seed>.json``.

A human summary goes to standard error; the last line of standard output is
the JSON result.  `--coarsest` solves only the coarsest level of each ladder
(used by `selftest.py`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

SETUP_PROBES = 5


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _solve_ladder(wl, seed, levels):
    """One ladder: (wall seconds, per-level gate faults)."""
    t0 = time.perf_counter()
    try:
        output = wl.run(seed, levels)
    except Exception:   # the run goes on; every level of this ladder fails
        wall = time.perf_counter() - t0
        _log(traceback.format_exc())
        return wall, [["ladder raised"] for _ in levels]
    wall = time.perf_counter() - t0
    return wall, wl.check(output)


class Tally:
    """Level solves attempted and failed, with the reasons logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, faults) -> None:
        self.attempted += len(faults)
        for found in faults:
            if found:
                self.failed += 1
                _log("gate failure: " + "; ".join(found))


def _setup_probe(workload: str, seed: int) -> tuple[float, bool]:
    """Launch a probe; it prints the system-wide monotonic time it finished at,
    because waiting on it with a timeout polls in 50 ms steps."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    cmd = [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        return time.clock_gettime(time.CLOCK_MONOTONIC) - t0, False
    return float(done.stdout.split()[-1]) - t0, True


def _ladders(wl, seeds, levels, seconds, tally, solve=_solve_ladder):
    """Solve ladders until the next one would not fit; return their times."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        wall, faults = solve(wl, next(seeds), levels)
        tally.add(faults)
        times.append(wall)
        _log(f"ladder {len(times)}: {wall:.3f} s")
    return times


def _seed_stream(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def timed_run(wl, args, tally) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        wall, ok = _setup_probe(wl.name, args.seed)
        tally.add([[] if ok else ["setup probe failed"]])
        setups.append(wall)
    _log("setup probes: " + ", ".join(f"{s:.3f} s" for s in setups))

    seeds = _seed_stream(args.seed)
    levels = wl.coarsest if args.coarsest else wl.levels
    _solve_ladder(wl, next(seeds), wl.coarsest)   # warm-up, not timed
    times = _ladders(wl, seeds, levels, args.seconds, tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _log(f"ladder_s median of {len(times)} ladders")
    return {
        "ladder_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "passed_ops": {
            "value": (tally.attempted - tally.failed) / tally.attempted,
            "unit": "share",
        },
    }


def traced_run(wl, args, tally, environment) -> tuple[dict, bool]:
    import spans

    seeds = _seed_stream(args.seed)
    levels = wl.coarsest if args.coarsest else wl.levels
    _solve_ladder(wl, next(seeds), wl.coarsest)   # warm-up, not timed
    start = time.perf_counter()
    plain, faults = _solve_ladder(wl, next(seeds), levels)
    tally.add(faults)
    _log(f"untraced ladder: {plain:.3f} s")

    tracer = spans.Tracer()
    summaries = []
    consistent = True

    def traced_ladder(wl, seed, levels):
        nonlocal consistent
        tracer.reset()
        with tracer.span("ladder"):
            wall, faults = _solve_ladder(wl, seed, levels)
        summary = spans.summarize(tracer)
        layer_self = sum(s.self_time for s in tracer.spans if s.name != "ladder")
        if layer_self > wall:
            consistent = False
            _log(f"layer self times {layer_self:.3f} s exceed the ladder's {wall:.3f} s")
        summary.update(ladder_s=wall, layer_self_s=layer_self, spans=spans.record(tracer))
        summaries.append(summary)
        return wall, faults

    spans.install(tracer)
    try:
        remaining = args.seconds - (time.perf_counter() - start)
        traced = _ladders(wl, seeds, levels, remaining, tally, solve=traced_ladder)
    finally:
        tracer.restore()

    metrics = spans.median_metrics(summaries)
    metrics["trace.overhead_s"] = statistics.median(traced) - plain
    _print_rows(summaries)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "environment": environment,
        "untraced_ladder_s": plain,
        "ladders": summaries,
        "metrics": metrics,
    }
    path = env.OUT / f"trace-{wl.name}-{args.seed}.json"
    path.write_text(json.dumps(record, indent=1))
    _log(f"wrote {path}")
    return {
        name: {"value": value, "unit": spans.unit(name)} for name, value in metrics.items()
    }, consistent


def _print_rows(summaries) -> None:
    """Per-level rows in the ROADMAP baseline layout, medians over traced ladders."""
    complete = [s for s in summaries if len(s["rows"]) == len(summaries[0]["rows"])]
    _log("| n | free dofs | mesh+pack+assemble | eigensolve | factor+solve |")
    _log("|---|---|---|---|---|")
    for i, row in enumerate(summaries[0]["rows"]):
        med = {
            key: statistics.median(s["rows"][i][key] for s in complete)
            for key in ("mesh_pack_assemble_s", "eigensolve_s", "factor_solve_s")
        }
        n = round(math.sqrt(row["triangles"] / 2))   # every workload meshes the unit square
        _log(
            f"| {n} | {row['free_dofs']} | "
            f"{med['mesh_pack_assemble_s']:.2f} s | {med['eigensolve_s']:.2f} s | "
            f"{med['factor_solve_s']:.2f} s |"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--coarsest", action="store_true",
                        help="solve only the coarsest level of each ladder")
    args = parser.parse_args(argv)

    load_1min = os.getloadavg()[0]
    env.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    environment = env.record(load_1min)
    _log(json.dumps(environment))

    tally = Tally()
    consistent = True
    if args.trace:
        metrics, consistent = traced_run(wl, args, tally, environment)
    else:
        metrics = timed_run(wl, args, tally)
    _log(f"failed_ops: {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
