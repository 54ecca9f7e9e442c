#!/usr/bin/env python3
"""The cicmon benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the `cicmon`
CLI and the per-layer driver from source into `.bench_build/` (or
$CARGO_TARGET_DIR); scratch files go to `.bench_out/`.

--trace 0 runs a fixed number of passes over the workload's `cicmon`
commands, with tracing off, and reports end-to-end metrics from host CPU
time (user+sys of every process, read with wait4). --trace 1 runs the
per-layer driver (perfbench/layers.cc) plus the fleet-versus-direct
comparison and reports per-layer metrics; its spans go to
`.bench_out/spans-*.jsonl`.

Every command's stdout is checked before its timing counts: at the default
seed against the digests pinned in perfbench/expected.json, at any other
seed against the same command run on the reference interpreter
(`--engine switch`). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/METRICS.md defines every
metric.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 2026  # cicmon's default campaign --seed
PAPER_SCALE = "5"    # paper-sweeps --scale: long runs, warm translation caches
LAYER_TRIALS = 1000  # per-site trials of the traced fault layer
COMMAND_TIMEOUT_S = 90
MIN_PASSES = 3
# A build too slow to finish its passes in twice --seconds stops there (after
# MIN_PASSES), and no run times for longer than this, so that it ends within
# its 180-second limit.
TIMED_LOOP_CAP_S = 110

# table1 runs each kernel on 3 machines, fig6 on 4 IHT sizes and blocks once:
# 8 runs per kernel, 27 + 36 + 9 = 72 sweep cells per pass.
KERNEL_RUNS_PER_PASS = 8
SWEEP_CELLS_PER_PASS = 27 + 36 + 9

# Each workload: the sweeps or the campaigns (kernel, site, trials) of one
# pass, and the wall seconds one pass takes on the 4-vCPU reference VM,
# set-up measurement included. --seconds divided by pass_s fixes the number
# of timed passes, so two builds take the best of the same number of passes.
WORKLOADS = {
    "paper-sweeps": {
        "sweeps": ["table1", "fig6", "blocks"],
        "pass_s": 1.4,
    },
    "campaign-suffix": {
        "campaigns": [("dijkstra", "post-id-latch", 1500), ("patricia", "fetch-bus-paired", 1500)],
        "pass_s": 1.9,
    },
    "campaign-restore": {
        "campaigns": [("dijkstra", "fetch-bus", 10000), ("bitcount", "fetch-bus", 10000),
                      ("dijkstra", "memory-text", 2000), ("dijkstra", "icache-line", 2000)],
        "pass_s": 1.6,
    },
    "fleet-dispatch": {
        "campaigns": [("dijkstra", "fetch-bus", 20000)],
        "fleet": True,
        "pass_s": 0.7,
    },
}

E2E_UNITS = {"sim_mips": "Minstr/CPU-s", "trials_per_cpu_s": "trials/CPU-s",
             "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def campaign(kernel, site, trials, seed):
    return ["campaign", "--workload", kernel, "--site", site, "--trials", str(trials),
            "--seed", str(seed), "--jobs", "1"]


def commands(workload, seed):
    """The cicmon commands of one pass."""
    spec = WORKLOADS[workload]
    if "sweeps" in spec:
        return [[sweep, "--scale", PAPER_SCALE, "--jobs", "1"] for sweep in spec["sweeps"]]
    argvs = [campaign(kernel, site, trials, seed) for kernel, site, trials in spec["campaigns"]]
    if spec.get("fleet"):
        return [["dispatch"] + argv + ["--workers", "2", "--shards", "40", "--quiet",
                                       "--dir", os.path.join(OUT_DIR, "dispatch")]
                for argv in argvs]
    return argvs


def layer_campaign_args(workload, with_trials):
    """--campaign KERNEL:SITE[:TRIALS] for each campaign of the workload."""
    args = []
    for kernel, site, trials in WORKLOADS[workload]["campaigns"]:
        args += ["--campaign", ":".join([kernel, site] + ([str(trials)] if with_trials else []))]
    return args


def setup_args(workload):
    spec = WORKLOADS[workload]
    if "sweeps" in spec:
        return ["--kernels", PAPER_SCALE]
    return layer_campaign_args(workload, False) + (["--encode"] if spec.get("fleet") else [])


def trials_per_pass(workload):
    spec = WORKLOADS[workload]
    if "sweeps" in spec:
        return SWEEP_CELLS_PER_PASS
    return sum(trials for _, _, trials in spec["campaigns"])


# --- Build -------------------------------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets=("cicmon_cli", "perfbench_layers", "perfbench_launch")):
    """Builds the requested targets; returns the CLI and layer-driver paths."""
    global LAUNCHER
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no cicmon sources beside perfbench/ (CMakeLists.txt, src/)")
    out = build_dir()
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        if configure.returncode != 0:
            log(configure.stdout.decode(errors="replace")[-4000:])
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    made = subprocess.run(["cmake", "--build", out, "-j", "4", "--target", *targets],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if made.returncode != 0:
        log(made.stdout.decode(errors="replace")[-4000:])
        raise BenchError("cmake build failed")
    LAUNCHER = os.path.join(out, "perfbench_launch")
    return os.path.join(out, "cicmon", "cicmon"), os.path.join(out, "perfbench_layers")


# --- Processes ---------------------------------------------------------------

LAUNCHER = None  # perfbench_launch, set by build()


class Result:
    def __init__(self, code, stdout, stderr, cpu_s, rss_mib):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.cpu_s, self.rss_mib = cpu_s, rss_mib


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, timeout=COMMAND_TIMEOUT_S, cpu=None):
    """Runs argv to completion through perfbench_launch, which reports the
    CPU time (user+sys) and peak RSS of argv and every descendant it reaped.
    `cpu` pins it to that CPU. On timeout the whole process group is
    killed."""
    os.makedirs(OUT_DIR, exist_ok=True)
    err_path = os.path.join(OUT_DIR, "stderr-%d.txt" % os.getpid())
    report_path = os.path.join(OUT_DIR, "usage-%d.txt" % os.getpid())
    if os.path.exists(report_path):
        os.unlink(report_path)
    with open(err_path, "w+b") as err:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen([LAUNCHER, report_path] + argv, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, start_new_session=True, preexec_fn=pin)
        killer = threading.Timer(timeout, kill_group, (proc.pid,))
        killer.start()
        try:
            stdout = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    os.unlink(err_path)
    try:
        with open(report_path) as f:
            cpu_s, rss_kib, code = f.read().split()
        os.unlink(report_path)
    except (OSError, ValueError):
        return Result(proc.returncode or -1, stdout, stderr, 0.0, 0.0)
    return Result(int(code), stdout, stderr, float(cpu_s), int(rss_kib) / 1024.0)


def run_json(argv, what, timeout=COMMAND_TIMEOUT_S, cpu=None):
    """Runs one perfbench_layers mode and parses its JSON stdout."""
    res = run_process(argv, timeout=timeout, cpu=cpu)
    if res.code != 0:
        raise BenchError("%s failed:\n%s" % (what, res.stderr))
    return json.loads(res.stdout.decode())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def reference_argv(argv):
    """The same output from the reference interpreter, run directly: dispatch
    stdout is byte-identical to the direct run of the same campaign."""
    if argv[0] == "dispatch":
        argv = argv[1:argv.index("--workers")]
    return argv + ["--engine", "switch"]


def expected_digests(cicmon, workload, seed):
    """One expected stdout digest per command of the workload: pinned at the
    default seed (and for paper-sweeps, whose kernel inputs the CLI fixes),
    else from the reference interpreter."""
    argvs = commands(workload, seed)
    if seed == DEFAULT_SEED or "sweeps" in WORKLOADS[workload]:
        pinned = load_expected()["digests"][workload]
        if len(pinned) != len(argvs):
            raise BenchError("expected.json does not match the %s command list" % workload)
        return pinned
    digests = []
    for argv in argvs:
        ref = run_process([cicmon] + reference_argv(argv), timeout=150)
        if ref.code != 0:
            raise BenchError("reference run failed: %s\n%s" % (" ".join(argv), ref.stderr))
        digests.append(digest(ref.stdout))
    return digests


def executed_instructions(layers, workload, seed):
    """Exact simulated instructions of each campaign of the workload: its
    golden run plus the trials' executed suffixes."""
    argv = [layers, "executed", "--seed", str(seed)] + layer_campaign_args(workload, True)
    return run_json(argv, "instruction count")["executed_instructions"]


def instructions_per_pass(layers, workload, seed):
    """Exact simulated instructions of one pass: pinned for paper-sweeps and
    at the default seed, else counted by the per-layer driver."""
    pinned = load_expected()
    if "sweeps" in WORKLOADS[workload]:
        return KERNEL_RUNS_PER_PASS * pinned["instructions_per_kernel_pass"]
    if seed == DEFAULT_SEED:
        return sum(pinned["executed_instructions"][workload])
    return sum(executed_instructions(layers, workload, seed))


DISPATCH_SUMMARY = re.compile(r"dispatch: \S+ over (\d+) shards .*?(\d+) retried")
DISPATCH_UTIL = re.compile(
    r"dispatch: workers ([\d.]+)% utilized \((\d+) ms run vs (\d+) ms queue-wait across "
    r"(\d+) slots, (\d+) ms elapsed\)")


class Pass:
    """One pass over a workload's commands, checked and accounted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cpu_s = []  # per command
        self.rss_mib = 0.0
        self.errors = []


def run_pass(cicmon, workload, seed, expected, cpu):
    it = Pass()
    for argv, want in zip(commands(workload, seed), expected):
        if argv[0] == "dispatch":
            # A fresh artifact directory: dispatch would resume from old shards.
            shutil.rmtree(argv[argv.index("--dir") + 1], ignore_errors=True)
        res = run_process([cicmon] + argv, cpu=cpu)
        it.attempted += 1
        it.cpu_s.append(res.cpu_s)
        it.rss_mib = max(it.rss_mib, res.rss_mib)
        problems = []
        if res.code != 0:
            problems.append("exit %d" % res.code)
        if digest(res.stdout) != want:
            problems.append("stdout differs from the expected output")
        if argv[0] == "dispatch":
            summary = DISPATCH_SUMMARY.search(res.stderr)
            if summary is None:
                problems.append("no dispatch summary on stderr")
            else:
                it.attempted += int(summary.group(1))
                retried = int(summary.group(2))
                it.failed += retried
                if retried:
                    problems.append("%d shard(s) retried" % retried)
        if problems:
            it.failed += 1
            it.errors.append("%s: %s" % (" ".join(argv), ", ".join(problems)))
    return it


# --- End-to-end (--trace 0) ------------------------------------------------------

def measure_setup(layers, workload, cpu):
    """CPU seconds of the workload's set-up: the fastest of several
    repetitions in one perfbench_layers process."""
    return run_json([layers, "setup", *setup_args(workload)], "setup measurement",
                    timeout=120, cpu=cpu)["setup_s"]


def run_end_to_end(cicmon, layers, workload, seed, seconds, time_setup):
    expected = expected_digests(cicmon, workload, seed)
    instructions = instructions_per_pass(layers, workload, seed)
    planned = max(MIN_PASSES, int(round(seconds / WORKLOADS[workload]["pass_s"])))
    attempted = failed = 0
    rss = 0.0
    passes = []  # timed passes in which every operation succeeded
    setups = []  # one set-up measurement per pass
    errors = []
    # Pass i runs on CPU i mod n. Co-tenants slow some vCPUs more than others
    # for minutes at a time, and the scheduler tends to keep a run on one of
    # them; rotating gives every run the same share of each CPU. Fleet stays
    # unpinned: its two workers need CPUs of their own.
    cpus = sorted(os.sched_getaffinity(0))
    started = time.monotonic()
    for done in range(1, planned + 1):
        cpu = None if WORKLOADS[workload].get("fleet") else cpus[(done - 1) % len(cpus)]
        it = run_pass(cicmon, workload, seed, expected, cpu)
        attempted += it.attempted
        failed += it.failed
        errors.extend(it.errors)
        rss = max(rss, it.rss_mib)
        if it.failed == 0:
            passes.append(it)
        if time_setup:
            setups.append(measure_setup(layers, workload, cpu))
        elapsed = time.monotonic() - started
        if done < planned and (elapsed > TIMED_LOOP_CAP_S or len(errors) > 20 or
                               (done >= MIN_PASSES and elapsed > 2 * seconds)):
            log("perfbench: stopped after %d of %d passes (%.0f s)" % (done, planned, elapsed))
            break
    metrics = {}
    if passes:
        # Best-of: each command's fastest pass, as `cicmon bench --best-of`
        # does. Co-tenants of a shared host slow a process by up to ~50%,
        # depending on which vCPU it lands on and drifting over minutes; the
        # fastest of a fixed number of passes repeats the uncontended cost
        # far more steadily than the median (METRICS.md).
        best_cpu = sum(min(p.cpu_s[i] for p in passes) for i in range(len(passes[0].cpu_s)))
        metrics["sim_mips"] = instructions / best_cpu / 1e6
        metrics["trials_per_cpu_s"] = trials_per_pass(workload) / best_cpu
        pass_cpu = [sum(p.cpu_s) for p in passes]
        print("timed passes = %d of %d in %.1f s; CPU s per pass: best-of %.4f, median %.4f, "
              "max %.4f" % (len(passes), planned, time.monotonic() - started, best_cpu,
                            statistics.median(pass_cpu), max(pass_cpu)))
        print("simulated instructions per pass = %d; trials per pass = %d" % (
            instructions, trials_per_pass(workload)))
    if setups:
        metrics["setup_s"] = min(setups)
        print("setup CPU s: fastest %.6f, median %.6f of %d measurements" % (
            min(setups), statistics.median(setups), len(setups)))
    metrics["peak_rss_mb"] = rss
    for line in errors[:20]:
        log("perfbench: FAILED " + line)
    return {
        "correct": failed == 0 and bool(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                    for name, value in metrics.items()},
    }


# --- Per-layer (--trace 1) -----------------------------------------------------------

def run_dist_layer(cicmon, seed):
    """Fleet versus direct CPU for the fleet-dispatch campaign, alternating,
    median of three each; utilization and elapsed time from dispatch's own
    stderr summary."""
    fleet_argv = commands("fleet-dispatch", seed)[0]
    direct_argv = fleet_argv[1:fleet_argv.index("--workers")]
    want = expected_digests(cicmon, "fleet-dispatch", seed)[0]
    fleet_cpu, direct_cpu, util, elapsed = [], [], [], []
    attempted = failed = 0
    for _ in range(3):
        shutil.rmtree(fleet_argv[fleet_argv.index("--dir") + 1], ignore_errors=True)
        for argv in (fleet_argv, direct_argv):
            res = run_process([cicmon] + argv)
            attempted += 1
            summary = DISPATCH_SUMMARY.search(res.stderr)
            retried = argv is fleet_argv and (summary is None or int(summary.group(2)) > 0)
            if res.code != 0 or digest(res.stdout) != want or retried:
                failed += 1
                continue
            if argv is direct_argv:
                direct_cpu.append(res.cpu_s)
                continue
            fleet_cpu.append(res.cpu_s)
            found = DISPATCH_UTIL.search(res.stderr)
            if found:
                util.append(float(found.group(1)) / 100.0)
                elapsed.append(int(found.group(5)) / 1000.0)
    metrics = {}
    if fleet_cpu and direct_cpu:
        fleet_s, direct_s = statistics.median(fleet_cpu), statistics.median(direct_cpu)
        metrics["dist.fleet_cpu_s"] = (fleet_s, "s")
        metrics["dist.direct_cpu_s"] = (direct_s, "s")
        metrics["dist.tax_cpu_frac"] = (fleet_s / direct_s - 1.0, "ratio")
    absent = {}
    if util:
        metrics["dist.worker_util_frac"] = (statistics.median(util), "ratio")
        metrics["dist.elapsed_s"] = (statistics.median(elapsed), "s")
    else:
        reason = "dispatch printed no worker-utilization summary"
        absent["dist.worker_util_frac"] = reason
        absent["dist.elapsed_s"] = reason
    return metrics, absent, attempted, failed


def run_per_layer(cicmon, layers, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    report = run_json([layers, "trace", "--workload", workload, "--seed", str(seed),
                       "--kernel-scale", PAPER_SCALE, "--trials", str(LAYER_TRIALS),
                       "--spans", spans], "per-layer driver", timeout=150)
    metrics = {name: (m["value"], m["unit"]) for name, m in report["metrics"].items()}
    absent = dict(report["absent"])
    for failure in report["failures"]:
        log("perfbench: FAILED layer check: " + failure)
    dist_metrics, dist_absent, dist_attempted, dist_failed = run_dist_layer(cicmon, seed)
    metrics.update(dist_metrics)
    absent.update(dist_absent)
    attempted = report["attempted"] + dist_attempted
    failed = report["failed"] + dist_failed
    for name, reason in sorted(absent.items()):
        print("absent: %s (%s)" % (name, reason))
    print("spans: %s" % os.path.relpath(spans, ROOT))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


# --- Pinning ------------------------------------------------------------------

def pin(cicmon, layers):
    """Rewrites expected.json at the default seed: each command's stdout
    digest, taken from the reference interpreter; the exact instructions of
    one pass over the kernels at the paper-sweeps scale; and the exact
    simulated instructions of each campaign."""
    digests = {}
    executed = {}
    for workload, spec in WORKLOADS.items():
        digests[workload] = []
        for argv in commands(workload, DEFAULT_SEED):
            ref = run_process([cicmon] + reference_argv(argv), timeout=600)
            if ref.code != 0:
                raise BenchError("reference run failed: %s\n%s" % (" ".join(argv), ref.stderr))
            digests[workload].append(digest(ref.stdout))
        if "campaigns" in spec:
            executed[workload] = executed_instructions(layers, workload, DEFAULT_SEED)
    kernels = run_json([layers, "instructions", "--scale", PAPER_SCALE], "instruction count")
    expected = {
        "seed": DEFAULT_SEED,
        "paper_scale": float(PAPER_SCALE),
        "instructions_per_kernel_pass": kernels["instructions_per_kernel_pass"],
        "executed_instructions": executed,
        "digests": digests,
    }
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    print("pinned %s" % os.path.relpath(EXPECTED_PATH, ROOT))


# --- Entry point -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cicmon", help="time this prebuilt cicmon binary instead of "
                                         "building one; set-up time is then not measured")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perfbench/expected.json from the reference interpreter")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        cicmon, layers = build()
        if args.cicmon:
            if args.trace or args.pin:
                raise BenchError("--trace 1 and --pin time this checkout; drop --cicmon")
            cicmon = os.path.abspath(args.cicmon)
        if args.pin:
            pin(cicmon, layers)
            return 0
        if args.trace:
            result = run_per_layer(cicmon, layers, args.workload, args.seed)
        else:
            result = run_end_to_end(cicmon, layers, args.workload, args.seed, args.seconds,
                                    time_setup=not args.cicmon)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1
    for name, metric in result["metrics"].items():
        print("%s = %.6g %s" % (name, metric["value"], metric["unit"]))
    print("fail_frac = %.6g ratio (%d failed of %d attempted)" % (
        result["failed"] / result["attempted"] if result["attempted"] else 0.0,
        result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0 if result["attempted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
