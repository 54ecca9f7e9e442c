#!/usr/bin/env python3
"""Speed gate for the two execution engines, in host CPU time.

    python3 scripts/engine_speed.py

Run from the root of a source checkout. Three checks:

1. perfbench's paper-sweeps workload (table1, fig6 and blocks at scale 5 on
   the default threaded engine, built in Release into .bench_build/) must
   match its pinned stdout digests and fail nothing.
2. `cicmon table1 --scale 5 --jobs 1` must simulate at least MIN_SIM_MIPS
   million instructions per CPU second, best of ROUNDS runs. The count is
   the run's own `engine.instructions` (--metrics json), so it follows
   what the command simulates. The floor is 0.4 x the 72.0 MIPS that
   table1 read on the 4-vCPU reference VM (best of 10) when it was set.
   perfbench's paper-sweeps `sim_mips` is not gated: its numerator is
   pinned at 8 kernel runs per pass, and a pass now runs 3 (table1,
   fig6 and blocks each read every table size off one run per kernel),
   so it over-reports by 8/3.
3. `cicmon table1 --scale 2 --jobs 1` must cost between MIN_RATIO and
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
import tempfile

MIN_SIM_MIPS = 28.8
MIN_RATIO, MAX_RATIO = 2.0, 8.0
ROUNDS = 3
TABLE1 = ["table1", "--scale", "2", "--jobs", "1"]
TABLE1_SPEED = ["table1", "--scale", "5", "--jobs", "1"]


def cpu_run(argv):
    """Runs argv to completion; returns its CPU seconds (user + sys) and stdout."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime), out


def bench_cicmon():
    """The Release CLI that perfbench built in check 1."""
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "cicmon",
                        "cicmon")


def check_paper_sweeps():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-sweeps",
                          "--seconds", "5"], stdout=subprocess.PIPE, text=True)
    print(run.stdout, end="")
    if run.returncode != 0:
        return "perfbench exited with %d" % run.returncode
    report = json.loads(run.stdout.strip().splitlines()[-1])
    if not report["correct"] or report["failed"] != 0:
        return "paper-sweeps output is wrong (%d of %d failed)" % (report["failed"],
                                                                  report["attempted"])
    return None


def check_sim_mips():
    best = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "metrics.json")
        for _ in range(ROUNDS):
            cpu_s, _ = cpu_run([bench_cicmon()] + TABLE1_SPEED +
                               ["--metrics", "json", "--metrics-out", metrics_path])
            with open(metrics_path) as f:
                instructions = json.load(f)["counters"]["engine.instructions"]
            best = max(best, instructions / cpu_s / 1e6)
    print("table1 --scale 5: %.1f Minstr/CPU-s (floor %.1f)" % (best, MIN_SIM_MIPS))
    if best < MIN_SIM_MIPS:
        return "table1 at %.1f Minstr/CPU-s, below %.1f" % (best, MIN_SIM_MIPS)
    return None


def check_engine_ratio():
    cicmon = bench_cicmon()
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
    failures = [f for f in (check_paper_sweeps(), check_sim_mips(), check_engine_ratio()) if f]
    for failure in failures:
        print("engine_speed: FAILED: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
