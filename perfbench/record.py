#!/usr/bin/env python3
"""Records repeated end-to-end runs into perfbench/results/.

    # run-to-run spread: ten seeds per workload on this checkout
    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/spread.json head

    # trajectory: other builds, default seed, three runs each
    python3 perfbench/record.py --runs 3 --out perfbench/results/trajectory.json \\
        5027011=PATH/TO/5027011/cicmon 53716a2=PATH/TO/53716a2/cicmon head

Each BUILD is LABEL=CICMON_BINARY, timed through `run.py --cicmon` (stdout
still checked; set-up time is not measured, because the per-layer driver
that measures it links this checkout's library, not the binary's), or a
bare LABEL, which builds and times this checkout. Builds run interleaved, one run at a time, so a slow drift of
the host spreads over all of them. Each run is a separate `run.py` process.
The summary gives, per build, workload and metric, the median, the quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCHEMA = "cicmon-perfbench-results-v1"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0, "n": len(values)}


def one_run(workload, seed, seconds, binary):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if binary:
        argv += ["--cicmon", binary]
    proc = subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s" % (" ".join(argv), proc.stderr.decode()[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=str(run.DEFAULT_SEED), help="e.g. 1-10 or 3,7")
    parser.add_argument("--runs", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("builds", nargs="+", help="LABEL=CICMON_BINARY, or LABEL for this checkout")
    args = parser.parse_args()

    builds = []
    for spec in args.builds:
        label, _, binary = spec.partition("=")
        builds.append((label, os.path.abspath(binary) if binary else None))
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = []
    for workload in workloads:
        for seed in seeds:
            for _ in range(args.runs):
                for label, binary in builds:
                    started = time.monotonic()
                    result = one_run(workload, seed, args.seconds, binary)
                    run.log("record: %s %s seed %d (%.0f s): %s" % (
                        label, workload, seed, time.monotonic() - started,
                        {k: round(v["value"], 6) for k, v in result["metrics"].items()}))
                    runs.append({"build": label, "workload": workload, "seed": seed,
                                 "result": result})

    summary = {}
    for label, _ in builds:
        for workload in workloads:
            mine = [r["result"] for r in runs if r["build"] == label and r["workload"] == workload]
            metrics = {}
            for name, unit in run.E2E_UNITS.items():
                values = [r["metrics"][name]["value"] for r in mine
                          if r["correct"] and name in r["metrics"]]
                if values:
                    metrics[name] = dict(summarize(values), unit=unit)
            summary.setdefault(label, {})[workload] = {
                "correct": all(r["correct"] for r in mine),
                "failed": sum(r["failed"] for r in mine),
                "attempted": sum(r["attempted"] for r in mine),
                "metrics": metrics,
            }
    document = {"schema": SCHEMA, "seeds": seeds, "runs_per_seed": args.runs,
                "seconds": args.seconds, "summary": summary, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
