#!/usr/bin/env python3
"""Speed gate for the two execution engines, in host CPU time.

    python3 scripts/engine_speed.py

Run from the root of a source checkout. Two checks:

1. perfbench's paper-sweeps workload (table1, fig6 and blocks at scale 5 on
   the default threaded engine, built in Release into .bench_build/) must
   match its pinned stdout digests, fail nothing, and simulate at least
   MIN_SIM_MIPS million instructions per CPU second: 0.75 x the 38 MIPS
   threaded reference recorded in BENCH_PR10.json.
2. `cicmon table1 --scale 2 --jobs 1` must cost between MIN_RATIO and
   MAX_RATIO times more CPU on `--engine switch` than on `--engine
   threaded`, best of ROUNDS interleaved runs per engine, with identical
   stdout. A ratio near 1 means the threaded engine lost its speedup; one
   above MAX_RATIO means the switch interpreter fell back towards its
   pre-predecode speed (BENCH_PR2.json: 3.6x slower).

Exits 1 with the reason when a check fails.
"""
import json
import os
import resource
import subprocess
import sys

MIN_SIM_MIPS = 28.5
MIN_RATIO, MAX_RATIO = 2.0, 8.0
ROUNDS = 3
TABLE1 = ["table1", "--scale", "2", "--jobs", "1"]


def cpu_run(argv):
    """Runs argv to completion; returns its CPU seconds (user + sys) and stdout."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime), out


def check_paper_sweeps():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-sweeps",
                          "--seconds", "5"], stdout=subprocess.PIPE, text=True)
    print(run.stdout, end="")
    if run.returncode != 0:
        return "perfbench exited with %d" % run.returncode
    report = json.loads(run.stdout.strip().splitlines()[-1])
    mips = report["metrics"].get("sim_mips", {}).get("value", 0.0)
    print("paper-sweeps: %.1f Minstr/CPU-s (floor %.1f)" % (mips, MIN_SIM_MIPS))
    if not report["correct"] or report["failed"] != 0:
        return "paper-sweeps output is wrong (%d of %d failed)" % (report["failed"],
                                                                  report["attempted"])
    if mips < MIN_SIM_MIPS:
        return "paper-sweeps at %.1f Minstr/CPU-s, below %.1f" % (mips, MIN_SIM_MIPS)
    return None


def check_engine_ratio():
    cicmon = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "cicmon",
                          "cicmon")
    best = {}
    outputs = set()
    for _ in range(ROUNDS):
        for engine in ("switch", "threaded"):
            cpu_s, out = cpu_run([cicmon] + TABLE1 + ["--engine", engine])
            best[engine] = min(cpu_s, best.get(engine, cpu_s))
            outputs.add(out)
    ratio = best["switch"] / best["threaded"]
    print("table1 --scale 2: switch %.3f CPU-s, threaded %.3f CPU-s, ratio %.2f "
          "(bounds %.1f-%.1f)" % (best["switch"], best["threaded"], ratio, MIN_RATIO, MAX_RATIO))
    if len(outputs) != 1:
        return "table1 stdout differs between the engines"
    if not MIN_RATIO <= ratio <= MAX_RATIO:
        return "switch/threaded CPU ratio %.2f outside [%.1f, %.1f]" % (ratio, MIN_RATIO,
                                                                       MAX_RATIO)
    return None


def main():
    failures = [f for f in (check_paper_sweeps(), check_engine_ratio()) if f]
    for failure in failures:
        print("engine_speed: FAILED: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
