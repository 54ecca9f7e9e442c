// Unified experiment driver.
//
// One entry point for CI and users over the sweep engine (exp/sweep.h):
//
//   cicmon table1    [--scale S] [--jobs N]
//   cicmon fig6      [--scale S] [--jobs N] [--entries 1,8,16,32]
//   cicmon blocks    [--scale S] [--jobs N] [--capacities 1,8,16,32]
//   cicmon faults | ablation-hash | ablation-os-cost | ablation-replacement
//                    [--scale S] [--jobs N]
//   cicmon campaign  [--workload W] [--site NAME] [--bits B] [--trials N]
//                    [--seed X] [--scale S] [--jobs N] [--monitor on|off]
//   cicmon dispatch  <sweep> [sweep options]
//                    [--workers K] [--shards N] [--transport TMPL]
//                    [--retries R] [--timeout SEC] [--dir DIR] [--dry-run]
//   cicmon worker    <sweep> [sweep options]
//   cicmon merge     SHARD.json|DIR [SHARD.json|DIR ...]
//   cicmon table2 | workloads
//
// Every sweep subcommand also takes `--shard I/N [--out PATH] [--force]`,
// which runs only the cells owned by shard I of N and persists them as a
// `cicmon-shard-v2` partial artifact (packed result columns plus a digest)
// instead of printing the table; `cicmon merge` aggregates the partials
// and renders output byte-identical to the unsharded run. A sharded
// invocation whose artifact already exists and matches is skipped (resume);
// corrupt or mismatched artifacts are re-run. Determinism contract:
// everything a sweep subcommand prints to stdout is identical at any --jobs
// value, shard count, engine, and process placement — host wall-clock
// measurements go to stderr, and host speed is measured by perfbench/, not
// by the CLI. CICMON_JOBS is the environment fallback; 0/unset resolves to
// hardware concurrency, 1 is the serial path.
//
// `cicmon dispatch <sweep> ...` is the scale-out driver: it over-decomposes
// the sweep into shard work items and schedules them through src/dist/ onto
// persistent worker sessions (`cicmon worker <sweep> ...` processes serving
// many shards over a framed pipe protocol, locally or through a
// stdio-forwarding --transport template like ssh), streams the merge
// incrementally as artifacts land, then renders — stdout is byte-identical
// to the direct invocation. For campaigns the orchestrator ships its own
// derived golden state down each session's pipe (fault/golden_ser.h), so
// workers skip their golden runs entirely.
// `cicmon worker` is the session server side and is not meant to be invoked
// by hand (its stdout speaks the wire protocol).
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "area/area_model.h"
#include "cpu/cpu.h"
#include "dist/orchestrator.h"
#include "dist/session.h"
#include "dist/transport.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/subprocess.h"
#include "support/table.h"
#include "workloads/workloads.h"

namespace {

using namespace cicmon;
using support::Table;

// Telemetry destinations, set at parse time: every subcommand takes
// --trace/--metrics/--metrics-out, and main() emits the summary after the
// command returns. Telemetry never writes to stdout —
// the determinism contract covers it.
std::string g_command;       // argv[1], recorded in trace/metrics headers
std::string g_metrics_mode;  // "" (off), "json", or "table"
std::string g_metrics_out;   // metrics sidecar path; "" = stderr

struct Options {
  double scale = 1.0;
  unsigned jobs = 0;  // 0 = resolve CICMON_JOBS / hardware concurrency
  std::string workload = "dijkstra";
  std::string site = "fetch-bus";
  unsigned bits = 1;
  unsigned trials = 1000;
  std::uint64_t seed = 2026;
  bool monitor = true;
  std::vector<unsigned> entries{1, 8, 16, 32};
  std::vector<unsigned> capacities{1, 8, 16, 32};
  std::string shard_text;  // "--shard I/N"; empty = run every cell + render
  std::string out_path;    // shard artifact path; defaulted when empty
  bool force = false;      // rerun a shard even when its artifact matches
  std::vector<std::string> inputs;  // positional arguments (merge artifacts)
  // dispatch-only knobs (see dist::DispatchConfig for the semantics).
  unsigned workers = 0;        // concurrent worker processes; 0 = nproc
  unsigned dispatch_shards = 0;  // work items; 0 = auto (4x workers)
  unsigned retries = 2;        // extra worker spawns per shard after a failure
  double timeout = 300.0;      // per-shard wall-clock limit in seconds; 0 = none
  std::string transport;       // {cmd} template; empty = local pipes
  std::string dir;             // shard artifact directory; defaulted when empty
  bool quiet = false;          // suppress dispatch progress/ETA on stderr
  bool dry_run = false;        // print the dispatch plan, launch nothing
  // Execution engine for every machine the command builds: an execution
  // strategy (byte-identical results either way), so it is passed to the
  // sweep builders like the scale but never becomes a sweep parameter.
  cpu::Engine engine = cpu::Engine::kThreaded;
  // Campaign checkpointing (fault::CheckpointConfig, automatic stride): a
  // pure execution strategy like the engine choice — byte-identical results
  // on or off — so it is forwarded to dispatch workers but never becomes a
  // sweep parameter.
  bool checkpoints = true;
};

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: cicmon <command> [options]\n"
      "\n"
      "commands:\n"
      "  table1      Table 1: cycle-count overhead (baseline vs CIC8/CIC16)\n"
      "  fig6        Figure 6: IHT miss rate vs table size\n"
      "  blocks      Section 6.1: executed-block counts and LRU locality\n"
      "  table2      Table 2: cycle time and cell area of the monitored variants\n"
      "  faults      Section 6.3: fault outcomes by site, detection by hash\n"
      "  ablation-hash         HASHFU cost vs detection strength\n"
      "  ablation-os-cost      Table 1 vs the OS exception-handling cost\n"
      "  ablation-replacement  IHT victim policy x OS refill mode\n"
      "  campaign    random fault-injection campaign\n"
      "  dispatch    scale a sweep out over worker processes or hosts\n"
      "  worker      persistent dispatch worker (serves shards over stdin/stdout;\n"
      "              spawned by dispatch, not meant for interactive use)\n"
      "  merge       aggregate cicmon-shard-v2 artifacts into the full output\n"
      "  report      render a cicmon-trace-v1 event log (--trace output) as\n"
      "              per-phase/per-worker breakdown tables\n"
      "  workloads   list the benchmark kernels\n"
      "\n"
      "telemetry (every command; see docs/telemetry.md):\n"
      "  --trace FILE     append cicmon-trace-v1 JSONL events (spans, instants,\n"
      "                   final counter snapshot) to FILE; never touches stdout\n"
      "  --metrics json|table\n"
      "                   after the command, emit a cicmon-metrics-v1 summary of\n"
      "                   every counter/timer to stderr\n"
      "  --metrics-out PATH\n"
      "                   write the --metrics summary to PATH instead of stderr\n"
      "\n"
      "options:\n"
      "  --scale S        workload scale factor (default 1.0)\n"
      "  --jobs N         worker threads; 0 = CICMON_JOBS env or hardware\n"
      "                   concurrency, 1 = serial (default 0)\n"
      "  --entries A,B,.. IHT sizes for fig6 (default 1,8,16,32)\n"
      "  --capacities A,B,.. LRU table sizes for blocks (default 1,8,16,32)\n"
      "  --workload W     campaign workload (default dijkstra)\n"
      "  --site NAME      fault site: memory-text, fetch-bus, fetch-bus-paired,\n"
      "                   icache-line, post-id-latch (default fetch-bus)\n"
      "  --bits B         flipped bits per fault (default 1)\n"
      "  --trials N       campaign trials (default 1000)\n"
      "  --seed X         campaign seed (default 2026)\n"
      "  --monitor on|off campaign machine has the CIC (default on)\n"
      "  --checkpoints on|off\n"
      "                   campaign: run trials in fork-point order and fork each\n"
      "                   one from a golden cursor walked forward to its trigger\n"
      "                   (memory-text: to the flipped word's first read)\n"
      "                   instead of re-simulating the clean prefix, end I-cache\n"
      "                   flips the golden run never fetches again as benign,\n"
      "                   and reuse trial machines with their translated\n"
      "                   blocks; never changes a trial outcome (default on;\n"
      "                   off is the full re-execution reference)\n"
      "  --engine E       execution engine: 'threaded' (fused superinstruction\n"
      "                   handlers behind a tamper-safe translation cache) or\n"
      "                   'switch' (the per-uop predecode interpreter); both\n"
      "                   produce byte-identical results (default threaded)\n"
      "\n"
      "sharding (every sweep: table1 fig6 blocks faults ablation-hash\n"
      "ablation-os-cost ablation-replacement campaign):\n"
      "  --shard I/N      run only the cells owned by shard I of N and write\n"
      "                   a cicmon-shard-v2 partial artifact, not the table\n"
      "  --out PATH       artifact path (default cicmon-<sweep>-shard-IofN.json);\n"
      "                   a matching existing artifact is reused (resume)\n"
      "  --force          rerun the shard even when its artifact matches\n"
      "\n"
      "`cicmon merge s1.json s2.json ...` needs every shard of one run and\n"
      "prints output byte-identical to the unsharded invocation. A directory\n"
      "argument is scanned for *.shard.json artifacts.\n"
      "\n"
      "dispatch (cicmon dispatch <sweep> ...):\n"
      "  --workers K      concurrent worker processes (default: hardware\n"
      "                   concurrency)\n"
      "  --shards N       work items; over-decomposed for load balancing\n"
      "                   (default 4x workers; capped at the cell count)\n"
      "  --transport T    launch workers through a shell template whose {cmd}\n"
      "                   is the worker command, e.g.\n"
      "                   'ssh build-02 cd /repo && {cmd}' (default: local\n"
      "                   pipes); the wrapper must forward stdio (without\n"
      "                   it, run --shard I/N --out per shard + cicmon merge)\n"
      "  --retries R      extra attempts per shard after a failure (default 2)\n"
      "  --timeout SEC    per-shard wall-clock limit; 0 = none (default 300)\n"
      "  --dir DIR        shard artifact directory (default cicmon-dispatch);\n"
      "                   valid artifacts already there are reused (resume)\n"
      "  --quiet          suppress the live progress/ETA lines on stderr\n"
      "  --dry-run        print the planned shard grid and the command each\n"
      "                   worker slot launches, then exit without launching\n"
      "  --jobs under dispatch sets each worker's thread count\n"
      "                   (default: hardware concurrency / workers)\n"
      "\n"
      "dispatch stdout is byte-identical to the direct invocation of the\n"
      "same sweep, at any worker/shard count, and across worker kills and\n"
      "retries. Incremental merge progress streams to stderr as shards land.\n",
      code == 0 ? stdout : stderr);
  std::exit(code);
}

// Comma-separated list of positive integers, parsed strictly (no trailing
// garbage). `what` names the source in the CicError: a CLI flag here, an
// artifact parameter on the merge path — where malformed input means a
// corrupt or hand-edited artifact and must never surface as the usage
// screen.
std::vector<unsigned> parse_unsigned_list(std::string_view text, const char* what) {
  std::vector<unsigned> values;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    std::uint64_t value = 0;
    support::check(support::parse_u64(text.substr(begin, comma - begin), &value) &&
                       value > 0 && value <= 0xFFFF'FFFFULL,
                   std::string(what) + " is malformed: '" + std::string(text) + "'");
    values.push_back(static_cast<unsigned>(value));
    begin = comma + 1;
  }
  return values;
}

// CLI-flag wrapper: malformed input is a usage error, not a CicError.
std::vector<unsigned> parse_entry_list(const std::string& list) {
  try {
    return parse_unsigned_list(list, "option value");
  } catch (const support::CicError&) {
    usage(2);
  }
}

unsigned parse_count(const char* text, unsigned lo, unsigned hi) {
  std::uint64_t value = 0;
  if (!support::parse_u64(text, &value) || value < lo || value > hi) usage(2);
  return static_cast<unsigned>(value);
}

// Strict decimal number, finite only: converting an inf/nan duration to the
// clock's integer representation is UB, and no workload has a nan scale.
// from_chars takes no leading whitespace or '+', so the whole value must be
// the number, as parse_u64 demands of the integer flags.
double parse_finite(const char* text) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) usage(2);
  return value;
}

// "; did you mean 'X'?" when `given` is plausibly a typo of a candidate —
// the same one-edit-per-three-characters budget workloads::closest_workload
// uses — otherwise an empty string. Shared by the unknown-subcommand and
// unknown-flag paths.
std::string did_you_mean(std::string_view given, std::span<const std::string_view> candidates) {
  const std::string lowered = support::to_lower(given);
  std::string_view best;
  std::size_t best_distance = std::string::npos;
  for (const std::string_view candidate : candidates) {
    const std::size_t distance = support::edit_distance(lowered, candidate);
    if (distance < best_distance) {
      best = candidate;
      best_distance = distance;
    }
  }
  const std::size_t budget = std::max<std::size_t>(2, lowered.size() / 3);
  if (best_distance > budget) return "";
  return "; did you mean '" + std::string(best) + "'?";
}

// Every command; the first eight are the sweep subcommands, which run,
// shard, merge and dispatch through the sweep engine.
constexpr std::array<std::string_view, 15> kCommands = {
    "table1", "fig6", "blocks", "faults", "ablation-hash", "ablation-os-cost",
    "ablation-replacement", "campaign", "table2", "worker", "dispatch", "merge",
    "report", "workloads", "help"};
constexpr std::span<const std::string_view> kSweeps(kCommands.data(), 8);
constexpr std::array<std::string_view, 27> kFlags = {
    "--scale", "--jobs",    "--entries", "--capacities", "--workload", "--site",
    "--bits",  "--trials",  "--seed",    "--monitor",    "--shard",
    "--out",   "--force",   "--workers", "--shards",     "--transport", "--retries",
    "--timeout", "--dir",   "--quiet",   "--dry-run",    "--help",
    "--engine", "--checkpoints", "--trace", "--metrics", "--metrics-out"};

// `first` is the index of the first flag: 2 for `cicmon <cmd> ...`, 3 for
// `cicmon dispatch <cmd> ...`.
Options parse_options(int argc, char** argv, bool allow_positional, int first = 2) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (flag == "--scale") {
      options.scale = parse_finite(value());
      if (options.scale <= 0.0) usage(2);
    } else if (flag == "--jobs") {
      // 0 is valid (resolve CICMON_JOBS / hardware); the engine caps the
      // rest at support::kMaxJobs.
      std::uint64_t jobs = 0;
      if (!support::parse_u64(value(), &jobs)) usage(2);
      options.jobs = static_cast<unsigned>(std::min<std::uint64_t>(jobs, support::kMaxJobs));
    } else if (flag == "--entries") {
      options.entries = parse_entry_list(value());
    } else if (flag == "--capacities") {
      options.capacities = parse_entry_list(value());
    } else if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--site") {
      options.site = value();
    } else if (flag == "--bits") {
      options.bits = parse_count(value(), 1, 32);
    } else if (flag == "--trials") {
      options.trials = parse_count(value(), 1, 100'000'000);
    } else if (flag == "--seed") {
      if (!support::parse_u64(value(), &options.seed)) usage(2);
    } else if (flag == "--monitor") {
      const std::string_view v = value();
      if (v != "on" && v != "off") usage(2);
      options.monitor = v == "on";
    } else if (flag == "--shard") {
      options.shard_text = value();
      exp::parse_shard(options.shard_text);  // reject malformed I/N up front
    } else if (flag == "--out") {
      options.out_path = value();
      if (options.out_path.empty()) usage(2);
    } else if (flag == "--force") {
      options.force = true;
    } else if (flag == "--workers") {
      options.workers = parse_count(value(), 1, 100'000);
    } else if (flag == "--shards") {
      options.dispatch_shards = parse_count(value(), 1, 10'000'000);
    } else if (flag == "--retries") {
      options.retries = parse_count(value(), 0, 1000);
    } else if (flag == "--timeout") {
      // 'No timeout' is spelled 0, not inf.
      options.timeout = parse_finite(value());
      if (options.timeout < 0) usage(2);
    } else if (flag == "--transport") {
      options.transport = value();
      if (options.transport.empty()) usage(2);
    } else if (flag == "--dir") {
      options.dir = value();
      if (options.dir.empty()) usage(2);
    } else if (flag == "--quiet") {
      options.quiet = true;
    } else if (flag == "--dry-run") {
      options.dry_run = true;
    } else if (flag == "--engine") {
      const std::string_view v = value();
      if (v == "switch") {
        options.engine = cpu::Engine::kSwitch;
      } else if (v == "threaded") {
        options.engine = cpu::Engine::kThreaded;
      } else {
        usage(2);
      }
    } else if (flag == "--checkpoints") {
      const std::string_view v = value();
      if (v != "on" && v != "off") usage(2);
      options.checkpoints = v == "on";
    } else if (flag == "--trace") {
      const char* path = value();
      if (path[0] == '\0') usage(2);
      // Opened at parse time: the header event lands before any span the
      // command emits.
      if (!obs::open_trace(path, g_command)) {
        std::fprintf(stderr, "cicmon: cannot open trace file '%s'\n", path);
        std::exit(1);
      }
    } else if (flag == "--metrics") {
      const std::string_view v = value();
      if (v != "json" && v != "table") usage(2);
      g_metrics_mode = v;
    } else if (flag == "--metrics-out") {
      g_metrics_out = value();
      if (g_metrics_out.empty()) usage(2);
    } else if (flag == "--help" || flag == "-h") {
      usage(0);
    } else if (allow_positional && (flag.empty() || flag.front() != '-')) {
      options.inputs.emplace_back(flag);  // merge artifact paths
    } else {
      const bool is_option = !flag.empty() && flag.front() == '-';
      std::fprintf(stderr, "cicmon: unknown %s '%s'%s\n", is_option ? "option" : "argument",
                   argv[i], is_option ? did_you_mean(flag, kFlags).c_str() : "");
      usage(2);
    }
  }
  return options;
}

fault::FaultSite parse_site(const std::string& name) {
  for (const fault::FaultSite site :
       {fault::FaultSite::kMemoryText, fault::FaultSite::kFetchBus,
        fault::FaultSite::kFetchBusPaired, fault::FaultSite::kICacheLine,
        fault::FaultSite::kPostIdLatch}) {
    if (fault_site_name(site) == name) return site;
  }
  std::fprintf(stderr, "cicmon: unknown fault site '%s'\n", name.c_str());
  usage(2);
}

// --- Rendering: cells -> stdout -----------------------------------------
//
// Both the direct path (run all cells, render) and `cicmon merge` (load
// partial artifacts, merge, render) funnel through these functions, and the
// rendering depends only on (params, cells) — that shared funnel is what
// makes the merged output byte-identical to the unsharded run.

using exp::Cells;

// Averages sum the workloads' overheads in all_workloads() order, then
// divide; the ablations below repeat that arithmetic exactly.
void render_table1(const exp::SweepParams&, const Cells& cells) {
  const auto rows = sim::table1_rows(cells);
  Table table({"benchmark", "cycles (no CIC)", "CIC8", "CIC16", "ovh CIC8", "ovh CIC16"});
  double sum8 = 0, sum16 = 0;
  for (const sim::VariantRow& row : rows) {
    table.add_row({row.workload, Table::fmt_u64(row.cycles[0]), Table::fmt_u64(row.cycles[1]),
                   Table::fmt_u64(row.cycles[2]), Table::fmt_pct(row.overhead(1)),
                   Table::fmt_pct(row.overhead(2))});
    sum8 += row.overhead(1);
    sum16 += row.overhead(2);
  }
  const double n = static_cast<double>(rows.size());
  table.add_row(
      {"average", "-", "-", "-", Table::fmt_pct(sum8 / n), Table::fmt_pct(sum16 / n)});
  std::fputs(table.render().c_str(), stdout);
}

void render_fig6(const exp::SweepParams& params, const Cells& cells) {
  const std::vector<unsigned> entries =
      parse_unsigned_list(exp::param(params, "entries"), "artifact parameter 'entries'");
  const auto rows = sim::fig6_rows(cells, entries);
  std::vector<std::string> headers{"benchmark"};
  for (const unsigned entry : entries) headers.push_back(std::to_string(entry));
  Table table(headers);
  for (const sim::Fig6Row& row : rows) {
    std::vector<std::string> line{row.workload};
    for (const cic::IhtStats& iht : row.iht) line.push_back(Table::fmt_pct(iht.miss_rate()));
    table.add_row(line);
  }
  std::fputs(table.render().c_str(), stdout);
}

void render_blocks(const exp::SweepParams& params, const Cells& cells) {
  const std::vector<unsigned> capacities =
      parse_unsigned_list(exp::param(params, "capacities"), "artifact parameter 'capacities'");
  const auto rows = sim::blocks_rows(cells, capacities);
  std::vector<std::string> headers{"benchmark", "static regions", "executed keys",
                                   "lookups", "instr/block"};
  for (const unsigned capacity : capacities) {
    headers.push_back("LRU hit@" + std::to_string(capacity));
  }
  Table table(headers);
  for (const sim::BlockStats& stats : rows) {
    std::vector<std::string> line{stats.workload, Table::fmt_u64(stats.static_regions),
                                  Table::fmt_u64(stats.dynamic_keys),
                                  Table::fmt_u64(stats.lookups),
                                  Table::fmt(stats.mean_block_instructions, 1)};
    for (const double rate : stats.lru_hit_rate) line.push_back(Table::fmt_pct(rate));
    table.add_row(line);
  }
  std::fputs(table.render().c_str(), stdout);
}

void render_campaign(const exp::SweepParams& params, const Cells& cells) {
  const fault::CampaignSummary summary = fault::CampaignRunner::summary_from_cells(cells);
  const std::string_view golden_text = exp::param(params, "golden_instructions");
  std::uint64_t golden = 0;
  support::check(support::parse_u64(golden_text, &golden),
                 "artifact parameter 'golden_instructions' is malformed: '" +
                     std::string(golden_text) + "'");
  std::printf("workload %s (scale %.2f): %llu golden instructions\n",
              std::string(exp::param(params, "workload")).c_str(),
              exp::parse_f64(exp::param(params, "scale")),
              static_cast<unsigned long long>(golden));
  std::printf("site %s, %s-bit faults, %s trials, seed %s, monitor %s\n\n",
              std::string(exp::param(params, "site")).c_str(),
              std::string(exp::param(params, "bits")).c_str(),
              std::string(exp::param(params, "trials")).c_str(),
              std::string(exp::param(params, "seed")).c_str(),
              std::string(exp::param(params, "monitor")).c_str());

  Table table({"outcome", "count"});
  table.add_row({"detected-mismatch", Table::fmt_u64(summary.detected_mismatch)});
  table.add_row({"detected-miss", Table::fmt_u64(summary.detected_miss)});
  table.add_row({"detected-baseline", Table::fmt_u64(summary.detected_baseline)});
  table.add_row({"wrong-output", Table::fmt_u64(summary.wrong_output)});
  table.add_row({"benign", Table::fmt_u64(summary.benign)});
  table.add_row({"hang", Table::fmt_u64(summary.hang)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ndetection: %s effective, %s of all trials\n",
              Table::fmt_pct(summary.detection_rate_effective()).c_str(),
              Table::fmt_pct(summary.detection_rate_total()).c_str());
}

// The paper tables below print a banner, their tables and a closing note.
void print_banner(const char* title, const char* reproduces) {
  std::printf("=== %s ===\nreproduces: %s\n\n", title, reproduces);
}

void render_faults(const exp::SweepParams&, const Cells& cells) {
  const auto rows = sim::campaign_rows(
      cells, 2 * std::size(sim::kFaultSites) +
                 std::size(sim::kFaultHashes) * std::size(sim::kStrengthColumns));
  auto next = rows.begin();  // cells come in the sweep builder's loop order
  print_banner("Fault-injection outcomes by site and hash strength",
               "Section 6.3 (error model and detection analysis)");
  Table sites({"site", "monitor", "mismatch", "miss", "baseline", "wrong-out", "benign",
               "hang", "detect(effective)"});
  for (const fault::FaultSite site : sim::kFaultSites) {
    for (const char* monitor : {"on", "off"}) {
      const fault::CampaignSummary& s = *next++;
      std::vector<std::string> line{std::string(fault::fault_site_name(site)), monitor};
      for (const std::uint64_t count : {s.detected_mismatch, s.detected_miss, s.detected_baseline,
                                        s.wrong_output, s.benign, s.hang}) {
        line.push_back(Table::fmt_u64(count));
      }
      line.push_back(Table::fmt_pct(s.detection_rate_effective()));
      sites.add_row(line);
    }
  }
  std::fputs(sites.render().c_str(), stdout);
  std::fputs("\npaper claims: flips before the check point (memory/bus/icache) are\n"
             "caught by the monitor; post-ID flips escape it (only baseline traps).\n\n",
             stdout);
  Table hashes({"hash", "1-word 1b", "1-word 4b", "paired 1b", "paired 2b", "paired 4b"});
  for (const hash::HashKind kind : sim::kFaultHashes) {
    std::vector<std::string> line{std::string(hash::hash_kind_name(kind))};
    for (std::size_t c = 0; c < std::size(sim::kStrengthColumns); ++c) {
      line.push_back(Table::fmt_pct((next++)->detection_rate_effective()));
    }
    hashes.add_row(line);
  }
  std::fputs(hashes.render().c_str(), stdout);
  std::fputs("\npaper claims: XOR always detects odd-weight errors; even-weight errors\n"
             "can alias (same-lane pairs), which the rotate/keyed variants close.\n",
             stdout);
}

// The area and timing columns follow from the hash kind alone.
void render_hash_ablation(const exp::SweepParams&, const Cells& cells) {
  const auto kinds = hash::all_hash_kinds();
  const auto rows = sim::campaign_rows(cells, kinds.size() * std::size(sim::kAblationBits));
  print_banner("HASHFU ablation: cost vs strength",
               "Sections 3.4, 6.3 and 7 (hash algorithm trade-off)");
  const area::TechLibrary tech = area::TechLibrary::tsmc180();
  Table table({"hash", "step GE", "depth (gates)", "1-cycle?", "IF slack ok?",
               "area ovh (16-entry)", "2-bit detect", "4-bit detect"});
  auto next = rows.begin();
  for (const hash::HashKind kind : kinds) {
    const hash::HashHwProfile profile = hash::make_hash_unit(kind)->hw_profile();
    const area::TimingPaths paths = area::stage_paths(true, 16, profile);
    const area::DesignReport cic16 = area::table2_rows(tech, {16}, kind)[1];
    std::vector<std::string> line{std::string(hash::hash_kind_name(kind)),
                                  Table::fmt(profile.gate_equivalents, 0),
                                  Table::fmt(profile.depth_gate_delays, 1),
                                  profile.single_cycle_feasible ? "yes" : "no",
                                  paths.if_path < paths.ex_path ? "yes" : "no",
                                  Table::fmt_pct(cic16.area_overhead_vs_baseline)};
    for (std::size_t b = 0; b < std::size(sim::kAblationBits); ++b) {
      line.push_back(Table::fmt_pct((next++)->detection_rate_effective()));
    }
    table.add_row(line);
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nfinding: the rotate-XOR (optionally keyed, the paper's §6.3 suggestion)\n"
             "closes XOR's even-weight blind spot at XOR-class cost; the multiplier\n"
             "mixer is the only option that cannot hide in the fetch stage.\n",
             stdout);
}

void render_os_cost(const exp::SweepParams&, const Cells& cells) {
  const auto rows = sim::os_cost_rows(cells);
  print_banner("OS exception-cost sensitivity (8- and 16-entry IHT)",
               "Section 6.1 assumption: 100 cycles per OS exception");
  Table table({"exception cycles", "avg ovh CIC8", "avg ovh CIC16"});
  const double n = static_cast<double>(rows.size());
  for (std::size_t c = 0; c < std::size(sim::kOsCosts); ++c) {
    double sum8 = 0, sum16 = 0;
    for (const sim::VariantRow& row : rows) {
      sum8 += row.overhead(1 + 2 * c);
      sum16 += row.overhead(2 + 2 * c);
    }
    table.add_row({Table::fmt_u64(sim::kOsCosts[c]), Table::fmt_pct(sum8 / n),
                   Table::fmt_pct(sum16 / n)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nfinding: overhead is linear in the handler cost (misses are fixed by\n"
             "the locality of the block stream), so Table 1 rescales proportionally.\n",
             stdout);
}

void render_replacement(const exp::SweepParams&, const Cells& cells) {
  const auto rows = sim::replacement_rows(cells);
  print_banner("Replacement-policy ablation (8-entry IHT)",
               "Section 7 future work: refining the entry replacement policy");
  Table table({"policy", "avg miss rate", "avg overhead", "worst overhead"});
  const double n = static_cast<double>(rows.size());
  for (std::size_t p = 0; p < std::size(sim::kReplacementPolicies); ++p) {
    double miss = 0, overhead = 0, worst = 0;
    for (const sim::VariantRow& row : rows) {
      miss += row.miss_rates[1 + p];
      overhead += row.overhead(1 + p);
      worst = std::max(worst, row.overhead(1 + p));
    }
    table.add_row({sim::kReplacementPolicies[p].name, Table::fmt_pct(miss / n),
                   Table::fmt_pct(overhead / n), Table::fmt_pct(worst)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nfinding: demand fill beats bulk replace-half in this substrate —\n"
             "wholesale eviction destroys the LRU set small IHTs depend on (the\n"
             "refinement direction the paper's future work anticipates).\n",
             stdout);
}

int render_cells(const std::string& sweep, const exp::SweepParams& params,
                 const Cells& cells) {
  using Renderer = void (*)(const exp::SweepParams&, const Cells&);
  static const std::map<std::string_view, Renderer> kRenderers = {
      {"table1", render_table1},          {"fig6", render_fig6},
      {"blocks", render_blocks},          {"campaign", render_campaign},
      {"faults", render_faults},          {"ablation-hash", render_hash_ablation},
      {"ablation-os-cost", render_os_cost}, {"ablation-replacement", render_replacement}};
  const auto it = kRenderers.find(sweep);
  if (it == kRenderers.end()) {
    std::fprintf(stderr, "cicmon: cannot render sweep '%s'\n", sweep.c_str());
    return 1;
  }
  it->second(params, cells);
  return 0;
}

// --- Sweep subcommand driver --------------------------------------------

bool sharded_mode(const Options& options) {
  return !options.shard_text.empty() || !options.out_path.empty();
}

// Runs a sweep subcommand: sharded mode persists a partial artifact (reusing
// a matching one — resume), the direct path runs every cell and renders.
int run_sweep_command(const exp::SweepSpec& spec, const Options& options) {
  if (sharded_mode(options)) {
    const exp::Shard shard = options.shard_text.empty()
                                 ? exp::Shard{1, 1}
                                 : exp::parse_shard(options.shard_text);
    const std::string path =
        options.out_path.empty()
            ? "cicmon-" + spec.sweep + "-shard-" + std::to_string(shard.index) + "of" +
                  std::to_string(shard.count) + ".json"
            : options.out_path;
    bool reused = false;
    exp::run_or_load_shard(spec, shard, options.jobs, path, options.force, &reused);
    std::fprintf(stderr, "cicmon: %s shard %u/%u %s '%s'\n", spec.sweep.c_str(), shard.index,
                 shard.count, reused ? "is already complete at" : "written to", path.c_str());
    return 0;
  }
  const std::uint64_t run_t_us = obs::trace_now_us();
  const Cells cells = exp::run_all(spec, options.jobs);
  if (obs::trace_enabled()) {
    obs::TraceArgs args;
    args.add("sweep", spec.sweep);
    args.add("cells", static_cast<std::uint64_t>(spec.cells));
    args.add("jobs", static_cast<std::uint64_t>(support::resolve_jobs(options.jobs)));
    obs::trace_span("sweep.run", run_t_us, args);
  }
  obs::Span render_span("sweep.render");
  return render_cells(spec.sweep, spec.params, cells);
}

// A sweep spec plus whatever live state its run_cell borrows — the campaign
// spec captures its CampaignRunner by reference, so the two travel together.
// For campaigns, golden_key/golden_source record the canonical identity of
// the golden state and where this process got it (derived, or a blob
// shipped over the session wire).
struct SweepBundle {
  exp::SweepSpec spec;
  std::unique_ptr<fault::CampaignRunner> keepalive;
  std::string golden_key;     // campaign only; "" otherwise
  std::string golden_source;  // "shipped" / "derived"; "" otherwise
};

// The canonical golden-state identity: every parameter the derived golden
// state depends on, and nothing else. Execution strategies (engine, jobs)
// are deliberately excluded — they never change the golden state, so a
// shipment produced under one strategy serves every other.
std::string campaign_golden_key(const Options& options) {
  return fault::golden_key({
      {"workload", options.workload},
      {"scale", exp::fmt_f64(options.scale)},
      {"site", options.site},
      {"bits", std::to_string(options.bits)},
      {"trials", std::to_string(options.trials)},
      {"seed", std::to_string(options.seed)},
      {"monitor", options.monitor ? "on" : "off"},
      {"checkpoints", options.checkpoints ? "on" : "off"},
  });
}

// Builds the campaign runner the cheapest honest way available: import a
// blob `shipped` over the session wire, else derive it (golden run). A
// rejected blob is a downgrade, not an error — the artifact checks protect
// the results, so a corrupt shipment just costs the derivation it was meant
// to save.
SweepBundle make_campaign_sweep(const Options& options, const std::string* shipped) {
  // Validate the site and workload before paying for the golden run.
  const fault::FaultSite site = parse_site(options.site);
  try {
    workloads::find_workload(options.workload);
  } catch (const support::CicError& error) {
    std::fprintf(stderr, "cicmon: %s\n", error.what());
    std::fprintf(stderr, "cicmon: run 'cicmon workloads' to see them described\n");
    std::exit(2);
  }
  const casm_::Image image =
      workloads::build_workload(options.workload, {options.scale, 42});
  cpu::CpuConfig config;
  config.engine = options.engine;
  config.monitoring = options.monitor;
  config.cic.iht_entries = 16;
  const fault::CheckpointConfig checkpoints{options.checkpoints};
  const std::string key = campaign_golden_key(options);

  // Covers the whole golden acquisition: wire import or the golden run
  // itself; the args say which way it went.
  obs::Span golden_span("campaign.golden");
  std::unique_ptr<fault::CampaignRunner> runner;
  std::string source;
  if (shipped != nullptr) {
    try {
      const fault::GoldenState state = fault::decode_golden(*shipped, key);
      runner = std::make_unique<fault::CampaignRunner>(image, config, checkpoints, state);
      source = "shipped";
    } catch (const support::CicError& error) {
      std::fprintf(stderr, "cicmon: shipped golden state rejected (%s); deriving locally\n",
                   error.what());
      runner.reset();
    }
  }
  if (runner == nullptr) {
    runner = std::make_unique<fault::CampaignRunner>(image, config, checkpoints);
    source = "derived";
  }

  golden_span.args().add("source", source);
  golden_span.close();

  exp::SweepSpec spec = runner->sweep(site, options.bits, options.trials, options.seed);
  // Parameters the runner cannot know but rendering and artifact matching
  // need: how the machine and image were set up, and the golden-run fact the
  // header reports (deterministic, so merge can reprint it without a run).
  spec.params.emplace_back("workload", options.workload);
  spec.params.emplace_back("scale", exp::fmt_f64(options.scale));
  spec.params.emplace_back("monitor", options.monitor ? "on" : "off");
  spec.params.emplace_back("golden_instructions",
                           std::to_string(runner->golden_instructions()));
  return {std::move(spec), std::move(runner), key, std::move(source)};
}

// Every sweep but the campaign: a fixed grid shaped by --scale (plus fig6's
// --entries and blocks' --capacities).
exp::SweepSpec grid_sweep(std::string_view command, const Options& o) {
  if (command == "table1") return sim::table1_sweep(o.scale, o.engine);
  if (command == "fig6") return sim::fig6_sweep(o.entries, o.scale, o.engine);
  if (command == "blocks") return sim::blocks_sweep(o.capacities, o.scale, o.engine);
  if (command == "faults") return sim::faults_sweep(o.scale, o.engine);
  if (command == "ablation-hash") return sim::hash_ablation_sweep(o.scale, o.engine);
  if (command == "ablation-os-cost") return sim::os_cost_sweep(o.scale, o.engine);
  support::check(command == "ablation-replacement", "no sweep named " + std::string(command));
  return sim::replacement_sweep(o.scale, o.engine);
}

// The dispatchable sweeps, by subcommand name. For "campaign" this pays
// for the golden derivation up front (wire blob or golden run)
// — dispatch needs the exact params workers will record to validate their
// artifacts against, and the derived golden state is what it ships.
SweepBundle make_sweep(std::string_view command, const Options& options,
                       const std::string* shipped = nullptr) {
  if (command == "campaign") return make_campaign_sweep(options, shipped);
  return {grid_sweep(command, options), nullptr, "", ""};
}

int cmd_campaign(const Options& options) {
  const SweepBundle bundle = make_campaign_sweep(options, nullptr);
  const fault::CampaignRunner& runner = *bundle.keepalive;
  const auto start = std::chrono::steady_clock::now();
  const int code = run_sweep_command(bundle.spec, options);
  // The acceleration report: how much clean-prefix simulation the restores
  // skipped (trial forks and cursor repositionings), what the golden cursors
  // and the text-access walk executed, how many trial machines the trials
  // shared, how many I-cache flips were inert, and how much golden suffix the
  // re-converged trials did not execute, in this process (a sharded
  // invocation reports its own shard's share).
  if (runner.checkpoints_enabled()) {
    std::fprintf(stderr,
                 "campaign: checkpoints on, stride %llu, %zu snapshot(s); "
                 "%llu restore(s) skipped %llu instructions; "
                 "%llu fork(s), cursors walked %llu instructions; "
                 "%llu trial machine(s); "
                 "text walk %llu instructions, %llu inert flip(s); "
                 "%llu trial(s) re-converged, skipping %llu instructions\n",
                 static_cast<unsigned long long>(runner.checkpoint_stride()),
                 runner.snapshot_count(),
                 static_cast<unsigned long long>(runner.restores()),
                 static_cast<unsigned long long>(runner.skipped_instructions()),
                 static_cast<unsigned long long>(runner.forks()),
                 static_cast<unsigned long long>(runner.cursor_instructions()),
                 static_cast<unsigned long long>(runner.trial_machines()),
                 static_cast<unsigned long long>(runner.text_walk_instructions()),
                 static_cast<unsigned long long>(runner.inert_flips()),
                 static_cast<unsigned long long>(runner.converged()),
                 static_cast<unsigned long long>(runner.converged_skipped_instructions()));
  } else {
    std::fprintf(stderr, "campaign: checkpoints off (full re-execution per trial)\n");
  }
  if (!sharded_mode(options)) {
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    const double trials_per_sec = static_cast<double>(options.trials) / (ms / 1000.0);
    static const obs::TimerId k_trials_per_sec = obs::timer("campaign.trials_per_sec");
    obs::record(k_trials_per_sec, trials_per_sec);
    std::fprintf(stderr, "campaign: %u jobs, %.0f ms wall (%.1f trials/s)\n",
                 support::resolve_jobs(options.jobs), ms, trials_per_sec);
  }
  return code;
}

// `cicmon report <trace.jsonl>`: renders a --trace event log as per-phase /
// per-worker breakdown tables (obs/report.h).
int cmd_report(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr, "cicmon: report needs exactly one cicmon-trace-v1 file\n");
    usage(2);
  }
  const std::string& path = options.inputs.front();
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cicmon: cannot read trace file '%s'\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[65536];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, in)) > 0) text.append(buffer, got);
  std::fclose(in);
  std::fputs(obs::render_report(text).c_str(), stdout);
  return 0;
}

// True for names dispatch and the sharded subcommands produce by default:
// "<sweep>-IofN.shard.json" and "cicmon-<sweep>-shard-IofN.json". The merge
// validation rejects anything that slips through a looser match anyway; this
// filter just keeps unrelated JSON (metrics sidecars, configs) out of the scan.
bool looks_like_shard_artifact(const std::string& name) {
  return name.ends_with(".shard.json") ||
         (name.starts_with("cicmon-") && name.find("-shard-") != std::string::npos &&
          name.ends_with(".json"));
}

// Merge inputs may be artifact files or directories; a directory contributes
// every shard artifact inside it, in sorted order so the command line stays
// deterministic. A directory with no artifacts is an error — silently merging
// nothing would mask a mistyped path.
std::vector<std::string> expand_merge_inputs(const std::vector<std::string>& inputs) {
  std::vector<std::string> paths;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (!std::filesystem::is_directory(input, ec)) {
      paths.push_back(input);
      continue;
    }
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(input, ec)) {
      if (entry.is_regular_file() && looks_like_shard_artifact(entry.path().filename().string())) {
        found.push_back(entry.path().string());
      }
    }
    support::check(!ec, "cannot scan directory '" + input + "'");
    support::check(!found.empty(),
                   "no shard artifacts (*.shard.json) found in directory '" + input + "'");
    std::sort(found.begin(), found.end());
    paths.insert(paths.end(), found.begin(), found.end());
  }
  return paths;
}

int cmd_merge(const Options& options) {
  if (options.inputs.empty()) {
    std::fprintf(stderr, "cicmon: merge needs at least one shard artifact path or directory\n");
    usage(2);
  }
  const std::vector<std::string> inputs = expand_merge_inputs(options.inputs);
  std::vector<exp::ShardArtifact> artifacts;
  artifacts.reserve(inputs.size());
  for (const std::string& path : inputs) {
    artifacts.push_back(exp::load_shard_artifact(path));
  }
  const std::string sweep = artifacts.front().sweep;
  const exp::SweepParams params = artifacts.front().params;
  const Cells cells = exp::merge_artifacts(std::move(artifacts));
  return render_cells(sweep, params, cells);
}

// Serializes the sweep-defining options back into worker argv form. The
// workers re-derive the SweepSpec from these flags, and the orchestrator
// validates their artifacts against the parent's spec — so every value must
// survive the round trip exactly (fmt_f64 emits the shortest form that
// parses back to the same double).
std::vector<std::string> worker_sweep_flags(std::string_view command, const Options& options) {
  auto join = [](const std::vector<unsigned>& values) {
    std::string joined;
    for (const unsigned value : values) {
      if (!joined.empty()) joined += ',';
      joined += std::to_string(value);
    }
    return joined;
  };
  std::vector<std::string> flags{"--scale", exp::fmt_f64(options.scale)};
  // Engine selection does not shape the sweep (results are byte-identical
  // either way), but it should reach the workers so the whole dispatch runs
  // the engine the user asked for. Workers default to threaded, so only the
  // other choice needs spelling out.
  if (options.engine == cpu::Engine::kSwitch) {
    flags.insert(flags.end(), {"--engine", std::string(cpu::engine_name(options.engine))});
  }
  if (command == "fig6") flags.insert(flags.end(), {"--entries", join(options.entries)});
  if (command == "blocks") flags.insert(flags.end(), {"--capacities", join(options.capacities)});
  if (command == "campaign") {
    flags.insert(flags.end(),
                 {"--workload", options.workload, "--site", options.site, "--bits",
                  std::to_string(options.bits), "--trials", std::to_string(options.trials),
                  "--seed", std::to_string(options.seed), "--monitor",
                  options.monitor ? "on" : "off",
                  // Like --engine: an execution strategy, not a sweep
                  // parameter — forwarded so the workers accelerate (or A/B)
                  // the same way the user asked the orchestrator to.
                  "--checkpoints", options.checkpoints ? "on" : "off"});
  }
  return flags;
}

// Validates argv[2] as a dispatchable sweep for `cicmon <what> <sweep> ...`
// (shared by dispatch and worker, which parse their sweep flags at argv[3]).
std::string_view parse_sweep_subcommand(int argc, char** argv, const char* what) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "cicmon: %s needs a sweep subcommand (table1|fig6|blocks|faults|"
                 "ablation-hash|ablation-os-cost|ablation-replacement|campaign)\n", what);
    usage(2);
  }
  const std::string_view sub = argv[2];
  if (std::find(kSweeps.begin(), kSweeps.end(), sub) == kSweeps.end()) {
    std::fprintf(stderr, "cicmon: cannot %s '%s'%s\n", what, argv[2],
                 did_you_mean(sub, kSweeps).c_str());
    usage(2);
  }
  return sub;
}

// `cicmon worker <sweep> ...`: the persistent-session server. Sends a light
// hello (sweep name + golden key), then derives the sweep once — from a
// golden blob the orchestrator ships, or the hard way — and serves shard
// assignments over stdin/stdout until the orchestrator shuts it down. stdout
// belongs to the wire protocol, so this subcommand never renders anything.
int cmd_worker(int argc, char** argv) {
  const std::string_view sub = parse_sweep_subcommand(argc, argv, "serve");
  const Options options = parse_options(argc, argv, /*allow_positional=*/false, /*first=*/3);
  if (sharded_mode(options)) {
    std::fprintf(stderr,
                 "cicmon: worker serves shards over its stdin — --shard/--out do not apply "
                 "(use the plain sweep subcommand for a one-shot shard)\n");
    return 2;
  }
  SweepBundle bundle;  // outlives serve_worker: the campaign spec borrows it
  dist::WorkerSweepSource source;
  source.sweep = std::string(sub);
  if (sub == "campaign") source.golden_key = campaign_golden_key(options);
  source.derive = [&bundle, &options, sub](const std::string* shipped,
                                           std::string* golden_source) {
    bundle = make_sweep(sub, options, shipped);
    if (golden_source != nullptr) *golden_source = bundle.golden_source;
    return bundle.spec;
  };
  return dist::serve_worker(source, options.jobs);
}

// Says that an explicit --shards above the cell count was capped to it.
std::string shard_cap_note(const exp::SweepSpec& spec, const dist::DispatchPlan& plan) {
  return "--shards " + std::to_string(plan.shards_requested) + " capped at the " +
         std::to_string(spec.cells) + " cells of " + spec.sweep;
}

// Prints what `cicmon dispatch` *would* launch — the resolved shard grid and
// the exact command each worker slot starts, after --transport expansion —
// without spawning anything. The debugging aid for ssh/cluster templates.
int print_dispatch_plan(const exp::SweepSpec& spec, const std::vector<std::string>& worker_argv,
                        const dist::Transport& transport, const dist::DispatchConfig& config) {
  const dist::DispatchPlan plan = dist::plan_dispatch(spec, config);
  std::printf("dispatch plan: %s (%zu cells) over %u shards, %u workers, %u jobs/worker\n",
              spec.sweep.c_str(), spec.cells, plan.shards, plan.workers, plan.jobs);
  if (plan.shards_requested != 0) std::printf("%s\n", shard_cap_note(spec, plan).c_str());
  if (config.golden != nullptr && !config.golden->empty()) {
    std::printf("golden state shipped (%llu bytes, %zu chunk(s))\n",
                static_cast<unsigned long long>(config.golden->bytes),
                config.golden->frames.size());
  }
  std::printf("artifact dir: %s\n", config.artifact_dir.c_str());
  std::printf("retries: %u, timeout: %gs, shutdown grace: %gs\n", config.retries,
              config.timeout_seconds, config.shutdown_grace);
  std::printf("session launch (x%u): %s\n", plan.workers,
              support::shell_join(
                  transport.launch_argv(dist::session_worker_argv(worker_argv, plan.jobs)))
                  .c_str());
  for (unsigned i = 1; i <= plan.shards; ++i) {
    const exp::Shard shard{i, plan.shards};
    std::printf("shard %u/%u -> %s\n", i, plan.shards,
                dist::shard_artifact_path(config.artifact_dir, spec.sweep, shard).c_str());
  }
  return 0;
}

// `cicmon dispatch <sweep> ...`: scale the sweep out over worker processes
// via src/dist/, then merge and render through the same funnel as the direct
// and `merge` paths — stdout is byte-identical to the direct invocation.
int cmd_dispatch(int argc, char** argv) {
  const std::string_view sub = parse_sweep_subcommand(argc, argv, "dispatch");
  const Options options = parse_options(argc, argv, /*allow_positional=*/false, /*first=*/3);
  if (sharded_mode(options)) {
    std::fprintf(stderr,
                 "cicmon: --shard/--out cannot be combined with dispatch — the orchestrator "
                 "shards for you (use --shards N and --dir DIR)\n");
    return 2;
  }

  // Validated before make_sweep: a bad template fails before a campaign
  // pays for its golden run.
  const dist::Transport transport(options.transport);
  const SweepBundle bundle = make_sweep(sub, options);

  std::vector<std::string> worker_argv{support::current_executable(argv[0]), "worker",
                                       std::string(sub)};
  const std::vector<std::string> flags = worker_sweep_flags(sub, options);
  worker_argv.insert(worker_argv.end(), flags.begin(), flags.end());

  dist::DispatchConfig config;
  config.workers = options.workers;
  config.shards = options.dispatch_shards;
  config.retries = options.retries;
  config.jobs_per_worker = options.jobs;
  config.timeout_seconds = options.timeout;
  config.artifact_dir = options.dir.empty() ? "cicmon-dispatch" : options.dir;
  config.force = options.force;
  config.progress = !options.quiet;
  if (bundle.keepalive != nullptr && !bundle.golden_key.empty()) {
    obs::Span encode_span("dispatch.golden_encode");
    config.golden = std::make_shared<dist::GoldenShipment>(dist::make_golden_shipment(
        bundle.golden_key,
        fault::encode_golden(bundle.keepalive->export_golden(), bundle.golden_key)));
    encode_span.args().add("bytes", config.golden->bytes);
  }

  if (options.dry_run) return print_dispatch_plan(bundle.spec, worker_argv, transport, config);
  if (const dist::DispatchPlan plan = dist::plan_dispatch(bundle.spec, config);
      plan.shards_requested != 0) {
    std::fprintf(stderr, "dispatch: %s\n", shard_cap_note(bundle.spec, plan).c_str());
  }

  const std::uint64_t run_t_us = obs::trace_now_us();
  const dist::DispatchResult result =
      dist::dispatch_sweep(bundle.spec, worker_argv, transport, config);
  if (obs::trace_enabled()) {
    obs::TraceArgs args;
    args.add("sweep", bundle.spec.sweep);
    args.add("shards", static_cast<std::uint64_t>(result.shard_count));
    args.add("workers", static_cast<std::uint64_t>(result.workers_planned));
    obs::trace_span("dispatch.run", run_t_us, args);
  }
  if (!result.ok) {
    std::fprintf(stderr,
                 "cicmon: dispatch failed: %zu shard(s) exhausted their attempt budget (%u) "
                 "via persistent sessions (%s transport); completed shards keep their "
                 "artifacts in '%s' for resume\n",
                 result.failures.size(), options.retries + 1, transport.describe().c_str(),
                 config.artifact_dir.c_str());
    for (const dist::WorkFailure& failure : result.failures) {
      std::fprintf(stderr, "cicmon:   shard %u/%u: %s\n", failure.item.shard.index,
                   failure.item.shard.count, failure.reason.c_str());
    }
    return 1;
  }
  std::string golden_note;
  if (result.golden_shipped + result.golden_derived > 0) {
    golden_note = ", golden " + std::to_string(result.golden_shipped) + " shipped/" +
                  std::to_string(result.golden_derived) + " derived";
  }
  std::fprintf(stderr,
               "dispatch: %s over %u shards via persistent sessions (%s transport): %zu reused, "
               "%zu launched, %zu retried%s\n",
               bundle.spec.sweep.c_str(), result.shard_count, transport.describe().c_str(),
               result.reused, result.launched, result.retried, golden_note.c_str());
  if (result.elapsed_ms > 0 && result.workers_planned > 0 && result.busy_ms > 0) {
    // Worker utilization: summed assignment run wall over the fleet's total
    // slot time; plus how each shard's life split between waiting in the
    // queue and running on a worker.
    const double slot_ms =
        static_cast<double>(result.elapsed_ms) * static_cast<double>(result.workers_planned);
    std::fprintf(stderr,
                 "dispatch: workers %s utilized (%llu ms run vs %llu ms queue-wait across "
                 "%u slots, %llu ms elapsed)\n",
                 Table::fmt_pct(static_cast<double>(result.busy_ms) / slot_ms).c_str(),
                 static_cast<unsigned long long>(result.busy_ms),
                 static_cast<unsigned long long>(result.queue_wait_ms),
                 result.workers_planned,
                 static_cast<unsigned long long>(result.elapsed_ms));
  }
  return render_cells(bundle.spec.sweep, bundle.spec.params, result.cells);
}

// Table 2 is the analytical area/timing model: nothing to simulate, so it is
// a plain command, not a sweep.
int cmd_table2() {
  print_banner("Cycle time and area of monitored processor variants",
               "Table 2 (min period, cell area, overheads)");
  const area::TechLibrary tech = area::TechLibrary::tsmc180();
  Table table({"design", "min period (ns)", "period ovh", "cell area", "area ovh"});
  for (const area::DesignReport& row :
       area::table2_rows(tech, {1, 8, 16, 32}, hash::HashKind::kXor)) {
    table.add_row({row.name, Table::fmt(row.min_period_ns, 2),
                   Table::fmt_pct(row.period_overhead_vs_baseline),
                   Table::fmt_u64(static_cast<unsigned long long>(row.cell_area_um2)),
                   Table::fmt_pct(row.area_overhead_vs_baseline)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nCIC component inventory (8-entry, XOR HASHFU):\n", stdout);
  const auto profile = hash::make_hash_unit(hash::HashKind::kXor)->hw_profile();
  Table inventory({"component", "gate equivalents"});
  for (const area::Component& c : area::cic_inventory(8, profile).components) {
    inventory.add_row({c.name, Table::fmt(c.gate_equivalents, 0)});
  }
  std::fputs(inventory.render().c_str(), stdout);
  std::fputs(
      "\npaper shape: area overhead linear in entries (2.7% / 16.5% / 28.8% for\n"
      "1/8/16 at 0.18u); cycle time flat because the EX stage stays critical.\n",
      stdout);
  return 0;
}

int cmd_workloads() {
  Table table({"workload", "description"});
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    table.add_row({std::string(info.name), std::string(info.description)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int run_command(int argc, char** argv, std::string_view command) {
  // dispatch/worker re-parse with their sweep subcommand at argv[2].
  if (command == "dispatch") return cmd_dispatch(argc, argv);
  if (command == "worker") return cmd_worker(argc, argv);
  const Options options = parse_options(
      argc, argv, /*allow_positional=*/command == "merge" || command == "report");
  if (command == "campaign") return cmd_campaign(options);
  if (std::find(kSweeps.begin(), kSweeps.end(), command) != kSweeps.end()) {
    return run_sweep_command(make_sweep(command, options).spec, options);
  }
  if (command == "merge") return cmd_merge(options);
  if (command == "report") return cmd_report(options);
  if (command == "table2") return cmd_table2();
  if (command == "workloads") return cmd_workloads();
  if (command == "help" || command == "--help" || command == "-h") usage(0);
  std::fprintf(stderr, "cicmon: unknown command '%s'%s\n", argv[1],
               did_you_mean(command, kCommands).c_str());
  usage(2);
}

// The --metrics summary, emitted after the command returns (every parallel
// region has joined by then, so the snapshot is complete). Destination is
// stderr or the --metrics-out sidecar — never stdout.
int emit_metrics_summary() {
  if (g_metrics_mode.empty()) return 0;
  const obs::MetricsSnapshot snap = obs::snapshot();
  const std::string text = g_metrics_mode == "json"
                               ? obs::render_metrics_json(snap, g_command)
                               : obs::render_metrics_table(snap);
  if (g_metrics_out.empty()) {
    std::fputs(text.c_str(), stderr);
    return 0;
  }
  std::FILE* out = std::fopen(g_metrics_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cicmon: cannot write metrics to '%s'\n", g_metrics_out.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string_view command = argv[1];
  g_command = command;
  int code = 0;
  try {
    code = run_command(argc, argv, command);
  } catch (const cicmon::support::CicError& error) {
    std::fprintf(stderr, "cicmon: %s\n", error.what());
    code = 1;
  }
  // Telemetry epilogue: the metrics summary and the trace footer still land
  // (and report what happened) when the command failed.
  const int telemetry_code = emit_metrics_summary();
  obs::close_trace();
  if (code == 0 && telemetry_code != 0) code = telemetry_code;
  return code;
}
