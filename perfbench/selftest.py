"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
* each workload, on its coarsest level, emits exactly the metrics that
  BENCHMARK.json names, with their units, in both modes, and passes its gate;
* an eigenvalue perturbed by 1e-8 relative (a source-problem norm by 1e-7)
  is counted as exactly one failed level solve;
* the benchmark exits non-zero without a result in a directory that holds
  only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _fail(msg: str) -> None:
    raise SystemExit(f"selftest FAILED: {msg}")


def check_metrics(names) -> None:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    for name in names:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = _bench(env.ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                          "--trace", trace, "--coarsest")
            if done.returncode != 0:
                _fail(f"{name} --trace {trace} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                _fail(f"{name} --trace {trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                _fail(f"{name} --trace {trace}: metrics differ: {set(got) ^ set(want)}")
            print(f"ok: {name} --trace {trace} emits all {len(want)} {key} metrics")


def check_perturbation(workloads, run) -> None:
    for wl in workloads.WORKLOADS.values():
        output = wl.run(7, wl.coarsest)
        if any(wl.check(output)):
            _fail(f"{wl.name}: unperturbed coarsest level fails the gate")
        if isinstance(wl, workloads.EigenLadder):
            output[0].gammas[0, 0] *= 1 + 1e-8
        else:
            rows = output[1]
            rows[0] = (rows[0][0] * (1 + 1e-7), rows[0][1])
        tally = run.Tally()
        tally.add(wl.check(output))
        if tally.failed != 1:
            _fail(f"{wl.name}: perturbation counted {tally.failed} failed ops, not 1")
        print(f"ok: {wl.name} counts the perturbed level as a failed op")


def check_bare_directory() -> None:
    bare = env.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        done = _bench(bare, "--workload", "wg-square-eig", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        _fail(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok: bare directory exits {done.returncode} without a result")


def main() -> int:
    env.prepare()
    import run
    import workloads

    check_bare_directory()
    check_perturbation(workloads, run)
    check_metrics(workloads.WORKLOADS)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
