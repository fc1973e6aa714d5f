"""Set-up probe: import the lab, numpy and scipy, solve the coarsest level, exit.

`run.py` times this process from launch to the system-wide monotonic time
(CLOCK_MONOTONIC) it prints when done, as one `setup_s` sample.  Exits 1,
printing no time, when the warm-up solve fails the workload's correctness gate.
"""

from __future__ import annotations

import argparse
import sys
import time

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env.prepare()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    faults = wl.check(wl.run(args.seed % 2**32, wl.coarsest))
    for found in faults:
        if found:
            print("; ".join(found), file=sys.stderr)
    if any(faults):
        return 1
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
