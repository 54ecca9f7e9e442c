#!/usr/bin/env bash
# Smoke-runs every experiment binary at tiny scale so experiment-layer
# regressions (crashes, thrown CicErrors, malformed sweeps) surface in CI
# without paying full-sweep cost. Usage: scripts/smoke_bench.sh [build-dir]
set -euo pipefail

build_dir=${1:-build}
if [[ ! -d ${build_dir} ]]; then
  echo "smoke_bench: build directory '${build_dir}' not found" >&2
  exit 1
fi

# Preflight: the unified CLI is the backbone of every gate below, and the
# script leans on a handful of POSIX tools. A missing piece must fail the
# run loudly up front — a silent skip would let CI report green without
# having tested anything.
if [[ ! -x ${build_dir}/cicmon ]]; then
  echo "smoke_bench: required binary '${build_dir}/cicmon' is missing or not executable" >&2
  echo "smoke_bench: build it first: cmake --build ${build_dir} -j --target cicmon_cli" >&2
  exit 1
fi
for tool in diff cmp grep mktemp date; do
  if ! command -v "${tool}" > /dev/null 2>&1; then
    echo "smoke_bench: required tool '${tool}' not found on PATH" >&2
    exit 1
  fi
done

scale=0.05
failures=0

run() {
  local name=$1
  shift
  if [[ ! -x ${build_dir}/${name} ]]; then
    echo "--- ${name}: SKIPPED (not built)"
    return
  fi
  echo "--- ${name} $*"
  if ! "${build_dir}/${name}" "$@" > /dev/null; then
    echo "--- ${name}: FAILED" >&2
    failures=$((failures + 1))
  fi
}

# The unified CLI, one subcommand each (campaign sized to stay cheap).
for sweep in table1 fig6 blocks faults ablation-hash ablation-os-cost ablation-replacement; do
  run cicmon "${sweep}" --scale "${scale}"
done
run cicmon campaign --workload bitcount --scale 0.02 --trials 50
run cicmon table2
run cicmon workloads

# Engine A/B at smoke scale: the threaded engine (fused handlers behind the
# tamper-safe translation cache) must reproduce the switch interpreter's
# stdout byte for byte. test_golden diffs every paper artifact and per-site
# campaign on both engines; this catches a broken engine flag or an
# obviously diverging handler in every smoke pass.
echo "--- cicmon engine A/B (switch vs threaded)"
engine_dir=$(mktemp -d)
for sub in "table1 --scale ${scale}" \
           "campaign --workload bitcount --scale 0.02 --trials 50"; do
  if ! ${build_dir}/cicmon ${sub} --engine switch 2> /dev/null \
         > "${engine_dir}/switch.txt" ||
     ! ${build_dir}/cicmon ${sub} --engine threaded 2> /dev/null \
         > "${engine_dir}/threaded.txt" ||
     ! diff "${engine_dir}/switch.txt" "${engine_dir}/threaded.txt"; then
    echo "--- cicmon ${sub%% *}: engines diverge or failed" >&2
    failures=$((failures + 1))
  fi
done
rm -rf "${engine_dir}"

# Checkpoint A/B: restoring golden-run snapshots must reproduce the full
# re-execution campaign summary byte for byte. The full site x engine grid
# runs in the campaign-checkpoints CI job; this catches a broken restore path
# in every smoke pass.
if [[ -x ${build_dir}/cicmon ]]; then
  echo "--- cicmon campaign checkpoints A/B (on vs off)"
  ckpt_dir=$(mktemp -d)
  base="campaign --workload bitcount --scale 0.02 --trials 50"
  if ! ${build_dir}/cicmon ${base} --checkpoints on 2> /dev/null \
         > "${ckpt_dir}/on.txt" ||
     ! ${build_dir}/cicmon ${base} --checkpoints off 2> /dev/null \
         > "${ckpt_dir}/off.txt" ||
     ! diff "${ckpt_dir}/on.txt" "${ckpt_dir}/off.txt"; then
    echo "--- cicmon campaign checkpoints: summaries diverge or failed" >&2
    failures=$((failures + 1))
  fi
  rm -rf "${ckpt_dir}"
fi

# Sharded runs + merge must reproduce the unsharded stdout byte for byte,
# and resuming a completed shard must reuse its artifact untouched.
if [[ -x ${build_dir}/cicmon ]]; then
  echo "--- cicmon shard/merge/resume"
  shard_dir=$(mktemp -d)
  if "${build_dir}/cicmon" table1 --scale "${scale}" > "${shard_dir}/direct.txt" &&
     "${build_dir}/cicmon" table1 --scale "${scale}" --shard 1/2 \
       --out "${shard_dir}/t1.json" 2> /dev/null &&
     "${build_dir}/cicmon" table1 --scale "${scale}" --shard 2/2 --jobs 2 \
       --out "${shard_dir}/t2.json" 2> /dev/null &&
     grep -q '"schema": "cicmon-shard-v2"' "${shard_dir}/t1.json" &&
     "${build_dir}/cicmon" merge "${shard_dir}/t1.json" "${shard_dir}/t2.json" \
       > "${shard_dir}/merged.txt" &&
     diff "${shard_dir}/direct.txt" "${shard_dir}/merged.txt"; then
    cp "${shard_dir}/t1.json" "${shard_dir}/t1.orig.json"
    if ! "${build_dir}/cicmon" table1 --scale "${scale}" --shard 1/2 \
           --out "${shard_dir}/t1.json" 2> /dev/null ||
       ! cmp -s "${shard_dir}/t1.json" "${shard_dir}/t1.orig.json"; then
      echo "--- cicmon shard resume: artifact was not reused" >&2
      failures=$((failures + 1))
    fi
  else
    echo "--- cicmon shard/merge: FAILED" >&2
    failures=$((failures + 1))
  fi
  rm -rf "${shard_dir}"
fi

# Telemetry A/B: collection is compiled in and always on, so the gate here
# is the *emission* path — a run with --trace + --metrics must render the
# same stdout bytes and stay within noise of the plain run. The wall-clock
# bound is deliberately generous (2x + 250 ms) because smoke-scale runs are
# milliseconds and scheduler jitter dominates; BENCH_PR9.json carries the
# honest full-scale overhead numbers.
if [[ -x ${build_dir}/cicmon ]]; then
  echo "--- cicmon telemetry A/B (trace off vs on)"
  telem_dir=$(mktemp -d)
  base="campaign --workload bitcount --scale 0.02 --trials 200"
  t0=$(date +%s%3N)
  ${build_dir}/cicmon ${base} 2> /dev/null > "${telem_dir}/off.txt"
  t1=$(date +%s%3N)
  ${build_dir}/cicmon ${base} --trace "${telem_dir}/trace.jsonl" --metrics json \
    2> /dev/null > "${telem_dir}/on.txt"
  t2=$(date +%s%3N)
  telemetry_off_ms=$((t1 - t0))
  telemetry_on_ms=$((t2 - t1))
  if ! diff "${telem_dir}/off.txt" "${telem_dir}/on.txt"; then
    echo "--- cicmon telemetry: --trace/--metrics moved stdout" >&2
    failures=$((failures + 1))
  elif [[ ! -s ${telem_dir}/trace.jsonl ]] ||
     ! grep -q '"schema":"cicmon-trace-v1"' "${telem_dir}/trace.jsonl"; then
    echo "--- cicmon telemetry: trace file missing or malformed" >&2
    failures=$((failures + 1))
  elif command -v python3 > /dev/null 2>&1 &&
     ! python3 "$(dirname "$0")/check_trace.py" "${telem_dir}/trace.jsonl" > /dev/null; then
    echo "--- cicmon telemetry: check_trace.py rejected the trace" >&2
    failures=$((failures + 1))
  elif [[ ${telemetry_on_ms} -gt $((telemetry_off_ms * 2 + 250)) ]]; then
    echo "--- cicmon telemetry: traced run took ${telemetry_on_ms} ms vs ${telemetry_off_ms} ms plain" >&2
    failures=$((failures + 1))
  else
    echo "    plain ${telemetry_off_ms} ms, traced ${telemetry_on_ms} ms"
  fi
  rm -rf "${telem_dir}"
fi

# Dispatch must reproduce the direct run byte for byte with golden-state
# shipping, and merge must accept the artifact directory. The wall-clock
# overhead vs the direct run is printed; perfbench's dist.tax_cpu_frac
# measures the dispatch tax.
if [[ -x ${build_dir}/cicmon ]]; then
  echo "--- cicmon dispatch"
  dispatch_dir=$(mktemp -d)
  t0=$(date +%s%3N)
  "${build_dir}/cicmon" campaign --workload bitcount --scale 0.02 --trials 200 \
    2> /dev/null > "${dispatch_dir}/direct.txt"
  t1=$(date +%s%3N)
  "${build_dir}/cicmon" dispatch campaign --workload bitcount --scale 0.02 --trials 200 \
    --workers 3 --shards 7 --dir "${dispatch_dir}/shards" --quiet \
    2> "${dispatch_dir}/sessions.err" > "${dispatch_dir}/sessions.txt"
  t2=$(date +%s%3N)
  direct_ms=$((t1 - t0))
  session_ms=$((t2 - t1))
  if ! diff "${dispatch_dir}/direct.txt" "${dispatch_dir}/sessions.txt" ||
     ! "${build_dir}/cicmon" merge "${dispatch_dir}/shards" > "${dispatch_dir}/merged.txt" ||
     ! diff "${dispatch_dir}/direct.txt" "${dispatch_dir}/merged.txt"; then
    echo "--- cicmon dispatch: output differs from the direct run" >&2
    failures=$((failures + 1))
  elif ! grep -q "shipped" "${dispatch_dir}/sessions.err"; then
    echo "--- cicmon dispatch: no worker took the golden shipment" >&2
    cat "${dispatch_dir}/sessions.err" >&2
    failures=$((failures + 1))
  else
    echo "    direct ${direct_ms} ms, sessions ${session_ms} ms (3 workers, 7 shards)"
  fi
  # The --dry-run plan must print the session launch line without creating
  # anything.
  if ! "${build_dir}/cicmon" dispatch campaign --workload bitcount --scale 0.02 --trials 200 \
         --workers 3 --shards 7 --dir "${dispatch_dir}/never-created" --dry-run \
         | grep -q "session launch (x3): .*cicmon worker campaign --scale 0.02 " ||
     [[ -e ${dispatch_dir}/never-created ]]; then
    echo "--- cicmon dispatch --dry-run: launched or printed the wrong plan" >&2
    failures=$((failures + 1))
  fi
  rm -rf "${dispatch_dir}"
fi

# Examples double as API smoke tests.
run quickstart
run tamper_detection
run fault_campaign bitcount 40
run asip_design_flow
run custom_hash_asip

if [[ ${failures} -gt 0 ]]; then
  echo "smoke_bench: ${failures} binary(ies) failed" >&2
  exit 1
fi
echo "smoke_bench: all experiment binaries healthy at scale ${scale}"
