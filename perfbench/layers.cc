// Per-layer driver of the cicmon benchmark.
//
// Links the cicmon library and times calls into each module's public
// functions with the thread CPU clock. It never changes the library: every
// span and timer lives here, around the calls. Four modes, all printing one
// JSON object on stdout:
//
//   perfbench_layers setup --kernels SCALE
//   perfbench_layers setup --campaign KERNEL:SITE [--campaign ...] [--encode]
//       CPU seconds of the work done before the first simulated instruction
//       or trial (workload build, image preload, golden recording, golden
//       encoding): the fastest of several repetitions.
//
//   perfbench_layers executed --seed N --campaign KERNEL:SITE:TRIALS ...
//       Exact simulated instructions of each campaign as `cicmon campaign`
//       runs it: the golden run plus the trials' executed suffixes.
//
//   perfbench_layers instructions --scale S
//       Exact retired instructions of one run of each kernel, checking that
//       the baseline and the cic16 machine retire the same count.
//
//   perfbench_layers trace --workload NAME --seed N --kernel-scale S
//                          --trials T --spans PATH
//       The per-layer suite. Spans (name, start, end, parent, one run id) are
//       kept in memory and written to PATH as JSONL at exit, followed by one
//       self-time line per span name.
//
// run.py builds and drives this binary; see perfbench/METRICS.md for what
// every metric means.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "casm/image.h"
#include "cic/checker.h"
#include "cic/iht.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "fault/fault.h"
#include "fault/golden.h"
#include "fault/golden_ser.h"
#include "mem/fetch_path.h"
#include "mem/memory.h"
#include "obs/metrics.h"
#include "support/wire.h"
#include "uop/threaded.h"
#include "uop/translate_cache.h"
#include "workloads/workloads.h"

namespace {

using namespace cicmon;

// --- Clocks ------------------------------------------------------------------

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// Keeps a computed value alive so the optimizer cannot drop the timed loop.
volatile std::uint64_t g_sink = 0;

// --- Spans -------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
};

class Tracer {
 public:
  bool enabled = true;

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.enabled) return;
      record_.id = ++tracer_.next_id_;
      record_.parent = tracer_.stack_.empty() ? 0 : tracer_.stack_.back();
      record_.name = std::move(name);
      tracer_.stack_.push_back(record_.id);
      record_.start_ns = steady_ns();
      cpu_start_ = thread_cpu_ns();
    }
    ~Scope() {
      if (record_.id == 0) return;
      record_.cpu_ns = thread_cpu_ns() - cpu_start_;
      record_.end_ns = steady_ns();
      tracer_.stack_.pop_back();
      tracer_.spans_.push_back(std::move(record_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    SpanRecord record_;
    std::int64_t cpu_start_ = 0;
  };

  // Writes every span, then one line per span name with its total and self
  // CPU time (self = own time minus the time its direct children cover).
  bool write(const std::string& path, const std::string& run_id) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::map<std::uint64_t, std::int64_t> child_cpu;
    for (const SpanRecord& span : spans_) child_cpu[span.parent] += span.cpu_ns;
    struct Totals {
      std::uint64_t count = 0;
      std::int64_t cpu_ns = 0;
      std::int64_t self_ns = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const SpanRecord& span : spans_) {
      std::fprintf(out,
                   "{\"type\":\"span\",\"run\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld}\n",
                   run_id.c_str(), static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.name.c_str(),
                   static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.cpu_ns));
      Totals& totals = by_name[span.name];
      ++totals.count;
      totals.cpu_ns += span.cpu_ns;
      const auto children = child_cpu.find(span.id);
      totals.self_ns += span.cpu_ns - (children == child_cpu.end() ? 0 : children->second);
    }
    for (const auto& [name, totals] : by_name) {
      std::fprintf(out,
                   "{\"type\":\"self\",\"run\":\"%s\",\"name\":\"%s\",\"count\":%llu,"
                   "\"cpu_ns\":%lld,\"self_ns\":%lld}\n",
                   run_id.c_str(), name.c_str(), static_cast<unsigned long long>(totals.count),
                   static_cast<long long>(totals.cpu_ns), static_cast<long long>(totals.self_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> stack_;
  std::uint64_t next_id_ = 0;
};

// --- Results -----------------------------------------------------------------

struct Results {
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> absent;  // name -> reason
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    if (std::isfinite(value)) {
      metrics[name] = {value, unit};
    } else {
      absent[name] = "not finite (zero base)";
    }
  }
  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failed_checks;
      failures.push_back(what);
    }
  }

  void print() const {
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(failed_checks));
    const char* sep = "";
    for (const auto& [name, metric] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), metric.value,
                  metric.unit.c_str());
      sep = ", ";
    }
    std::printf("}, \"absent\": {");
    sep = "";
    for (const auto& [name, reason] : absent) {
      std::printf("%s\"%s\": \"%s\"", sep, name.c_str(), reason.c_str());
      sep = ", ";
    }
    std::printf("}, \"failures\": [");
    sep = "";
    for (const std::string& failure : failures) {
      std::printf("%s\"%s\"", sep, failure.c_str());
      sep = ", ";
    }
    std::printf("]}\n");
  }
};

// Counters by name from the obs registry. A name the build never registered
// (renamed or split by a later change) reads as nullopt, and the metric that
// needs it is reported absent instead of crashing the run.
class Counters {
 public:
  void capture() { before_ = obs::counter_values(); }

  // Increment of `name` since capture(); nullopt when the build does not
  // have the counter at all.
  std::optional<std::uint64_t> delta(const std::string& name) const {
    bool registered = false;
    for (const auto& [known, value] : obs::snapshot().counters) {
      if (known == name) registered = true;
    }
    for (const auto& [known, value] : obs::counter_delta(before_)) {
      if (known == name) return value;
    }
    if (registered) return 0;
    return std::nullopt;
  }

 private:
  std::vector<std::uint64_t> before_;
};

// --- Machines and kernels --------------------------------------------------------

cpu::CpuConfig machine(bool monitored, unsigned iht_entries = 16) {
  cpu::CpuConfig config;
  config.monitoring = monitored;
  if (monitored) config.cic.iht_entries = iht_entries;
  return config;
}

casm_::Image build(std::string_view kernel, double scale) {
  return workloads::build_workload(kernel, {scale, 42});
}

fault::FaultSite parse_site(std::string_view name) {
  for (fault::FaultSite site :
       {fault::FaultSite::kMemoryText, fault::FaultSite::kFetchBus,
        fault::FaultSite::kFetchBusPaired, fault::FaultSite::kICacheLine,
        fault::FaultSite::kPostIdLatch}) {
    if (fault::fault_site_name(site) == name) return site;
  }
  std::fprintf(stderr, "perfbench_layers: unknown fault site '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::exit(2);
}

// The campaign machine of `cicmon campaign` (monitor on, 16-entry IHT).
std::unique_ptr<fault::CampaignRunner> make_runner(const casm_::Image& image) {
  return std::make_unique<fault::CampaignRunner>(image, machine(true));
}

std::string campaign_key(const std::string& kernel, const std::string& site) {
  return fault::golden_key({{"workload", kernel}, {"site", site}, {"bench", "perfbench"}});
}

// --- setup mode ----------------------------------------------------------------------

struct CampaignArg {
  std::string kernel;
  std::string site;
  unsigned trials = 0;  // executed mode only
};

// One repetition of a workload's set-up, in thread CPU seconds.
double setup_once(double kernel_scale, const std::vector<CampaignArg>& campaigns, bool encode) {
  const std::int64_t start = thread_cpu_ns();
  if (kernel_scale > 0) {
    for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
      const casm_::Image image = build(info.name, kernel_scale);
      const cpu::LoadedImage baseline = cpu::preload_image(machine(false), image);
      const cpu::LoadedImage monitored = cpu::preload_image(machine(true), image);
      g_sink = g_sink + baseline.entry + monitored.fht.size();
    }
  }
  for (const CampaignArg& campaign : campaigns) {
    const casm_::Image image = build(campaign.kernel, 1.0);
    const auto runner = make_runner(image);
    if (encode) {
      const std::string blob = fault::encode_golden(runner->export_golden(),
                                                    campaign_key(campaign.kernel, campaign.site));
      g_sink = g_sink + blob.size();
    }
    g_sink = g_sink + runner->golden_instructions();
  }
  return static_cast<double>(thread_cpu_ns() - start) / 1e9;
}

int run_setup(double kernel_scale, const std::vector<CampaignArg>& campaigns, bool encode) {
  // The fastest of at least 5 repetitions and 0.2 CPU-seconds (the first
  // repetition warms the allocator and page cache and is dropped). run.py
  // starts one such measurement per timed pass and reports the fastest.
  setup_once(kernel_scale, campaigns, encode);
  double best = 0.0;
  double total = 0.0;
  std::size_t reps = 0;
  while ((reps < 5 || total < 0.2) && reps < 200) {
    const double seconds = setup_once(kernel_scale, campaigns, encode);
    best = reps == 0 ? seconds : std::min(best, seconds);
    total += seconds;
    ++reps;
  }
  std::printf("{\"setup_s\": %.9g, \"reps\": %zu}\n", best, reps);
  return 0;
}

// --- executed mode ------------------------------------------------------------------

// Simulated instructions of one `cicmon campaign` run: the golden run once,
// plus what the trials execute after their snapshot restore.
// engine.instructions also counts each trial's restored prefix, so the
// runner's skipped count is subtracted; a build that splits the counter
// into .executed is read directly. nullopt when the build has neither.
std::optional<std::uint64_t> executed_instructions(const CampaignArg& campaign,
                                                   std::uint64_t seed) {
  const casm_::Image image = build(campaign.kernel, 1.0);
  const auto runner = make_runner(image);
  const exp::SweepSpec spec = runner->sweep(parse_site(campaign.site), 1, campaign.trials, seed);
  Counters counters;
  counters.capture();
  for (std::size_t cell = 0; cell < spec.cells; ++cell) spec.run_cell(cell);
  std::uint64_t trials_executed = 0;
  if (const auto executed = counters.delta("engine.instructions.executed")) {
    trials_executed = *executed;
  } else if (const auto retired = counters.delta("engine.instructions")) {
    trials_executed = *retired - runner->skipped_instructions();
  } else {
    return std::nullopt;
  }
  return runner->golden_instructions() + trials_executed;
}

int run_executed(const std::vector<CampaignArg>& campaigns, std::uint64_t seed) {
  std::vector<std::uint64_t> counts;
  for (const CampaignArg& campaign : campaigns) {
    const auto executed = executed_instructions(campaign, seed);
    if (!executed) {
      std::fputs(
          "perfbench_layers: this build registers neither engine.instructions nor "
          "engine.instructions.executed\n",
          stderr);
      return 1;
    }
    counts.push_back(*executed);
  }
  std::printf("{\"executed_instructions\": [");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(counts[i]));
  }
  std::printf("]}\n");
  return 0;
}

// --- instructions mode --------------------------------------------------------------

int run_instructions(double scale) {
  std::uint64_t total = 0;
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    const casm_::Image image = build(info.name, scale);
    cpu::Cpu baseline(machine(false), image);
    cpu::Cpu monitored(machine(true), image);
    const cpu::RunResult a = baseline.run();
    const cpu::RunResult b = monitored.run();
    if (a.reason != cpu::ExitReason::kExit || a.instructions != b.instructions) {
      std::fprintf(stderr, "perfbench_layers: %.*s retires differently per machine\n",
                   static_cast<int>(info.name.size()), info.name.data());
      return 1;
    }
    total += a.instructions;
  }
  std::printf("{\"instructions_per_kernel_pass\": %llu}\n", static_cast<unsigned long long>(total));
  return 0;
}

// --- trace mode ----------------------------------------------------------------------

struct TraceArgs {
  std::string workload;
  std::uint64_t seed = 2026;
  double kernel_scale = 1.0;
  unsigned trials = 1000;
  std::string spans_path;
};

// cpu.*, cic.monitor_ns_per_instr, uop.chain_follow_frac: Cpu::run() on
// prebuilt images of every kernel, both machines, median of 3 runs.
void layer_cpu_run(const TraceArgs& args, Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "cpu.run_kernels");
  Counters counters;
  counters.capture();
  double total_ns[2] = {0, 0};
  double total_instr[2] = {0, 0};
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    const casm_::Image image = build(info.name, args.kernel_scale);
    for (int monitored = 0; monitored < 2; ++monitored) {
      const std::string row = std::string(info.name) + (monitored ? ".cic16" : ".baseline");
      const cpu::CpuConfig config = machine(monitored == 1);
      const cpu::LoadedImage loaded = cpu::preload_image(config, image);
      std::vector<double> ns;
      std::optional<cpu::RunResult> first;
      for (int rep = 0; rep < 3; ++rep) {
        cpu::Cpu cpu(config, image, &loaded);
        cpu::RunResult result;
        {
          Tracer::Scope span(tracer, "cpu.run");
          const std::int64_t start = thread_cpu_ns();
          result = cpu.run();
          ns.push_back(static_cast<double>(thread_cpu_ns() - start));
        }
        cpu.publish_metrics();
        if (!first) first = result;
        out.check(result.reason == cpu::ExitReason::kExit && result == *first,
                  "cpu.run " + row + " exits cleanly and repeats exactly");
      }
      const double instr = static_cast<double>(first->instructions);
      out.set("cpu.ns_per_instr." + row, median(ns) / instr, "ns/instr");
      total_ns[monitored] += median(ns);
      total_instr[monitored] += instr;
    }
  }
  const double baseline = total_ns[0] / total_instr[0];
  const double cic16 = total_ns[1] / total_instr[1];
  out.set("cpu.ns_per_instr.all.baseline", baseline, "ns/instr");
  out.set("cpu.ns_per_instr.all.cic16", cic16, "ns/instr");
  out.set("cic.monitor_ns_per_instr", cic16 - baseline, "ns/instr");

  const auto follows = counters.delta("engine.chain.follows");
  const auto hits = counters.delta("engine.tcache.hits");
  const auto translations = counters.delta("engine.tcache.translations");
  if (follows && hits && translations) {
    // Base: every block entry (chained follow, cache hit, or translation).
    const double entries = static_cast<double>(*follows + *hits + *translations);
    out.set("uop.chain_follow_frac", entries > 0 ? static_cast<double>(*follows) / entries : 0.0,
            "ratio");
  } else {
    out.absent["uop.chain_follow_frac"] =
        "engine.chain.follows / engine.tcache.{hits,translations} not registered by this build";
  }
}

// cpu.step_ns_per_instr, cpu.construct_us.
void layer_cpu_step(Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "cpu.step_and_construct");
  const casm_::Image image = build("dijkstra", 1.0);
  const cpu::CpuConfig config = machine(true);
  const cpu::LoadedImage loaded = cpu::preload_image(config, image);
  cpu::RunResult reference;
  {
    cpu::Cpu cpu(config, image, &loaded);
    reference = cpu.run();
  }
  std::vector<double> ns_per_instr;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "cpu.step_loop");
    cpu::Cpu cpu(config, image, &loaded);
    std::optional<cpu::RunResult> result;
    const std::int64_t start = thread_cpu_ns();
    while (!result) result = cpu.step();
    ns_per_instr.push_back(static_cast<double>(thread_cpu_ns() - start) /
                           static_cast<double>(result->instructions));
    out.check(*result == reference, "Cpu::step() loop matches Cpu::run()");
  }
  out.set("cpu.step_ns_per_instr", median(ns_per_instr), "ns/instr");

  std::vector<double> construct_us;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "cpu.construct_batch");
    constexpr int kBatch = 200;
    std::int64_t spent = 0;
    for (int i = 0; i < kBatch; ++i) {
      const std::int64_t start = thread_cpu_ns();
      auto cpu = std::make_unique<cpu::Cpu>(config, image, &loaded);
      spent += thread_cpu_ns() - start;
      g_sink = g_sink + cpu->instructions_retired();
    }
    construct_us.push_back(static_cast<double>(spent) / kBatch / 1e3);
  }
  out.set("cpu.construct_us", median(construct_us), "us");
}

// cic.iht_lookup_ns.{8,16,32}, hash.step_ns.xor.
void layer_cic(Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "cic.microbench");
  constexpr std::size_t kKeys = 4096;
  constexpr int kRounds = 256;
  for (unsigned entries : {8U, 16U, 32U}) {
    Tracer::Scope span(tracer, "cic.iht_lookup");
    cic::Iht iht(entries, cic::ReplacePolicy::kLru);
    for (unsigned e = 0; e < entries; ++e) iht.fill(0x1000 + 64 * e, 0x1000 + 64 * e + 60, e * 7919);
    // A fixed pseudo-random stream of resident keys (every lookup hits).
    std::vector<unsigned> order(kKeys);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (unsigned& k : order) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<unsigned>(x % entries);
    }
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint64_t found = 0;
      const std::int64_t start = thread_cpu_ns();
      for (int round = 0; round < kRounds; ++round) {
        for (unsigned k : order) {
          const uop::IhtLookupResult r = iht.lookup(0x1000 + 64 * k, 0x1000 + 64 * k + 60, k * 7919);
          found += r.found && r.match;
        }
      }
      ns.push_back(static_cast<double>(thread_cpu_ns() - start) / (kKeys * kRounds));
      out.check(found == kKeys * kRounds, "IHT lookups of resident keys all hit");
    }
    out.set("cic.iht_lookup_ns." + std::to_string(entries), median(ns), "ns");
  }

  Tracer::Scope span(tracer, "hash.step");
  const cic::CodeIntegrityChecker checker(cic::CicConfig{});
  const casm_::Image image = build("dijkstra", 1.0);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint32_t hash = checker.rhash_init();
    const std::int64_t start = thread_cpu_ns();
    for (int round = 0; round < 2048; ++round) {
      for (std::uint32_t word : image.text) hash = checker.hash_step(hash, word);
    }
    ns.push_back(static_cast<double>(thread_cpu_ns() - start) /
                 (2048.0 * static_cast<double>(image.text.size())));
    g_sink = g_sink + hash;
  }
  out.set("hash.step_ns.xor", median(ns), "ns");
}

// os.exceptions_per_minstr.{iht1,iht16}, os.ns_per_exception and its rows.
void layer_os(const TraceArgs& args, Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "os.iht_sizes");
  std::map<unsigned, double> run_ns;
  std::map<unsigned, double> exceptions;
  double instructions = 0;
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    const casm_::Image image = build(info.name, args.kernel_scale);
    for (unsigned entries : {1U, 16U, 32U}) {
      const cpu::CpuConfig config = machine(true, entries);
      const cpu::LoadedImage loaded = cpu::preload_image(config, image);
      std::vector<double> ns;
      cpu::RunResult result;
      for (int rep = 0; rep < 3; ++rep) {
        Tracer::Scope span(tracer, "cpu.run");
        cpu::Cpu cpu(config, image, &loaded);
        const std::int64_t start = thread_cpu_ns();
        result = cpu.run();
        ns.push_back(static_cast<double>(thread_cpu_ns() - start));
      }
      out.check(result.reason == cpu::ExitReason::kExit, "IHT-size run exits cleanly");
      run_ns[entries] += median(ns);
      exceptions[entries] +=
          static_cast<double>(result.os.miss_exceptions + result.os.mismatch_exceptions);
      if (entries == 1) instructions += static_cast<double>(result.instructions);
    }
  }
  out.set("os.exceptions_per_minstr.iht1", exceptions[1] / instructions * 1e6, "exc/Minstr");
  out.set("os.exceptions_per_minstr.iht16", exceptions[16] / instructions * 1e6, "exc/Minstr");
  out.set("os.run_ms.iht1", run_ns[1] / 1e6, "ms");
  out.set("os.run_ms.iht32", run_ns[32] / 1e6, "ms");
  out.set("os.exceptions.iht1_minus_iht32", exceptions[1] - exceptions[32], "count");
  out.set("os.ns_per_exception", (run_ns[1] - run_ns[32]) / (exceptions[1] - exceptions[32]), "ns");
}

// mem.fetch_ns, mem.icache_fetch_ns, snapshot.preload_ms,
// uop.translate_us_per_block.
void layer_mem_uop(Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "mem_uop.microbench");
  const casm_::Image image = build("dijkstra", 1.0);
  const cpu::CpuConfig config = machine(true);

  std::vector<double> preload_ms;
  for (int rep = 0; rep < 7; ++rep) {
    Tracer::Scope span(tracer, "snapshot.preload");
    const std::int64_t start = thread_cpu_ns();
    const cpu::LoadedImage loaded = cpu::preload_image(config, image);
    preload_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
    g_sink = g_sink + loaded.entry;
  }
  out.set("snapshot.preload_ms", median(preload_ms), "ms");

  const cpu::LoadedImage loaded = cpu::preload_image(config, image);
  mem::Memory memory;
  memory.set_base(loaded.pages);
  for (bool icache : {false, true}) {
    Tracer::Scope span(tracer, icache ? "mem.icache_fetch" : "mem.fetch");
    mem::ICacheConfig icache_config;
    icache_config.enabled = icache;
    mem::FetchPath fetch(&memory, icache_config);
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint32_t sum = 0;
      const std::int64_t start = thread_cpu_ns();
      for (int round = 0; round < 512; ++round) {
        for (std::uint32_t a = image.text_base; a < image.text_end(); a += 4) sum += fetch.fetch(a);
      }
      ns.push_back(static_cast<double>(thread_cpu_ns() - start) /
                   (512.0 * static_cast<double>(image.text.size())));
      std::uint32_t expect = 0;
      for (std::uint32_t word : image.text) expect += word;
      out.check(sum == expect * 512U, "fetch path returns the text words");
    }
    out.set(icache ? "mem.icache_fetch_ns" : "mem.fetch_ns", median(ns), "ns");
  }

  // Translation with a side-effect-free peek, starting a block at every text
  // word (each start runs to its terminator, as a real block would).
  Tracer::Scope span(tracer, "uop.translate");
  const uop::FusedTable fused = uop::build_fused_table(*loaded.spec);
  auto peek = [&memory](std::uint32_t a) { return memory.read32(a); };
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    uop::TranslationCache cache(image.text_base, image.text_end(), true);
    const std::int64_t start = thread_cpu_ns();
    for (std::uint32_t a = image.text_base; a < image.text_end(); a += 4) {
      g_sink = g_sink + cache.translate(a, *loaded.spec, fused, peek)->entries.size();
    }
    us.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e3 /
                 static_cast<double>(image.text.size()));
    out.check(cache.stats().translations == image.text.size(), "one translation per block start");
  }
  out.set("uop.translate_us_per_block", median(us), "us");
}

// snapshot.save_us / restore_us / delta_kb, fault.golden_record_ms,
// fault.snapshots.
void layer_snapshot(Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "snapshot.save_restore");
  const casm_::Image image = build("dijkstra", 1.0);
  const cpu::CpuConfig config = machine(true);
  const cpu::LoadedImage loaded = cpu::preload_image(config, image);

  std::vector<double> record_ms;
  std::size_t snapshots = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope span(tracer, "fault.golden_record");
    const std::int64_t start = thread_cpu_ns();
    const fault::CheckpointedGolden golden(config, image, loaded, 0);
    record_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
    snapshots = golden.snapshot_count();
  }
  out.set("fault.golden_record_ms", median(record_ms), "ms");
  out.set("fault.snapshots", static_cast<double>(snapshots), "count");

  cpu::Cpu reference_cpu(config, image, &loaded);
  const cpu::RunResult reference = reference_cpu.run();
  cpu::Cpu cpu(config, image, &loaded);
  for (std::uint64_t i = 0; i < reference.instructions / 2; ++i) cpu.step();
  cpu::Snapshot snapshot;
  constexpr int kBatch = 100;
  std::vector<double> save_us;
  std::vector<double> restore_us;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "snapshot.save");
    const std::int64_t start = thread_cpu_ns();
    for (int i = 0; i < kBatch; ++i) cpu.save_snapshot(&snapshot);
    save_us.push_back(static_cast<double>(thread_cpu_ns() - start) / kBatch / 1e3);
  }
  cpu::Cpu target(config, image, &loaded);
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "snapshot.restore");
    const std::int64_t start = thread_cpu_ns();
    for (int i = 0; i < kBatch; ++i) target.restore_snapshot(snapshot);
    restore_us.push_back(static_cast<double>(thread_cpu_ns() - start) / kBatch / 1e3);
  }
  out.check(target.run() == reference, "restored mid-run snapshot finishes like the golden run");
  out.set("snapshot.save_us", median(save_us), "us");
  out.set("snapshot.restore_us", median(restore_us), "us");
  out.set("snapshot.delta_kb",
          static_cast<double>(snapshot.memory_delta.size() * mem::Memory::kPageSize) / 1024.0,
          "KiB");
}

// fault.*, mem.cow_pages_per_trial, uop.translations_per_trial,
// uop.tcache_hit_frac, obs.bench_trace_overhead_frac.
void layer_fault(const TraceArgs& args, Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "fault.campaigns");
  struct SiteRun {
    const char* kernel;
    const char* site;
  };
  // One campaign per fault site, on the kernel its benchmark workload uses.
  const SiteRun sites[] = {{"dijkstra", "post-id-latch"},
                           {"patricia", "fetch-bus-paired"},
                           {"dijkstra", "fetch-bus"},
                           {"dijkstra", "memory-text"},
                           {"dijkstra", "icache-line"}};
  constexpr int kOutcomes = 6;
  double outcome_ns[kOutcomes] = {};
  std::uint64_t outcome_count[kOutcomes] = {};
  double all_ns = 0;
  std::uint64_t restore_trials = 0;
  std::uint64_t restore_cow_pages = 0;
  bool cow_known = true;

  for (const SiteRun& run : sites) {
    Tracer::Scope campaign(tracer, std::string("fault.campaign.") + run.site);
    const casm_::Image image = build(run.kernel, 1.0);
    const auto runner = make_runner(image);
    const exp::SweepSpec spec = runner->sweep(parse_site(run.site), 1, args.trials, args.seed);
    Counters counters;
    counters.capture();
    std::vector<double> trial_us;
    for (std::size_t trial = 0; trial < spec.cells; ++trial) {
      Tracer::Scope span(tracer, "fault.trial");
      const std::int64_t start = thread_cpu_ns();
      const exp::CellResult cell = spec.run_cell(trial);
      const double ns = static_cast<double>(thread_cpu_ns() - start);
      trial_us.push_back(ns / 1e3);
      const std::uint64_t outcome = cell.u64.at(0);
      out.check(outcome < kOutcomes, "trial outcome code in range");
      if (outcome < kOutcomes) {
        outcome_ns[outcome] += ns;
        ++outcome_count[outcome];
      }
      all_ns += ns;
    }
    const std::string site = run.site;
    out.set("fault.trial_us.p50." + site, percentile(trial_us, 0.50), "us");
    out.set("fault.trial_us.p99." + site, percentile(trial_us, 0.99), "us");
    out.set("fault.trials." + site, static_cast<double>(trial_us.size()), "count");

    const double trials = static_cast<double>(spec.cells);
    const auto executed = counters.delta("engine.instructions");
    const auto restored = counters.delta("campaign.skipped_instructions");
    if (executed && restored) {
      out.set("fault.suffix_instr_per_trial." + site,
              static_cast<double>(*executed - *restored) / trials, "instr/trial");
    } else {
      out.absent["fault.suffix_instr_per_trial." + site] =
          "engine.instructions / campaign.skipped_instructions not registered by this build";
    }
    if (site == "fetch-bus" || site == "memory-text" || site == "icache-line") {
      const auto cow = counters.delta("campaign.cow_pages_copied");
      if (cow) {
        restore_cow_pages += *cow;
        restore_trials += spec.cells;
      } else {
        cow_known = false;
      }
    }
    if (site == "fetch-bus") {
      const auto translations = counters.delta("engine.tcache.translations");
      const auto hits = counters.delta("engine.tcache.hits");
      if (translations && hits) {
        out.set("uop.translations_per_trial", static_cast<double>(*translations) / trials,
                "transl/trial");
        out.set("uop.tcache_hit_frac",
                static_cast<double>(*hits) / static_cast<double>(*hits + *translations), "ratio");
      } else {
        out.absent["uop.translations_per_trial"] =
            "engine.tcache.translations not registered by this build";
        out.absent["uop.tcache_hit_frac"] = "engine.tcache.{hits,translations} not registered";
      }
    }
  }
  if (cow_known) {
    out.set("mem.cow_pages_per_trial",
            static_cast<double>(restore_cow_pages) / static_cast<double>(restore_trials),
            "pages/trial");
  } else {
    out.absent["mem.cow_pages_per_trial"] = "campaign.cow_pages_copied not registered by this build";
  }
  for (int o = 0; o < kOutcomes; ++o) {
    const std::string name(fault::outcome_name(static_cast<fault::Outcome>(o)));
    out.set("fault.trial_us.mean." + name,
            outcome_count[o] == 0 ? 0.0 : outcome_ns[o] / 1e3 / static_cast<double>(outcome_count[o]),
            "us");
    out.set("fault.cpu_share." + name, all_ns > 0 ? outcome_ns[o] / all_ns : 0.0, "ratio");
    out.set("fault.outcome_trials." + name, static_cast<double>(outcome_count[o]), "count");
  }

  // The benchmark's own tracing cost: the finest-grained traced loop (one
  // span per fetch-bus trial) timed with spans off and on, interleaved.
  const casm_::Image image = build("dijkstra", 1.0);
  const auto runner = make_runner(image);
  const exp::SweepSpec spec = runner->sweep(fault::FaultSite::kFetchBus, 1, 4 * args.trials, args.seed);
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  const bool was_enabled = tracer.enabled;
  for (int rep = 0; rep < 6; ++rep) {
    tracer.enabled = rep % 2 == 1;
    const std::int64_t start = thread_cpu_ns();
    for (std::size_t trial = 0; trial < spec.cells; ++trial) {
      Tracer::Scope span(tracer, "obs.overhead_trial");
      g_sink = g_sink + spec.run_cell(trial).u64.at(0);
    }
    (tracer.enabled ? on_ms : off_ms).push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
  }
  tracer.enabled = was_enabled;
  out.set("obs.untraced_ms", median(off_ms), "ms");
  out.set("obs.traced_ms", median(on_ms), "ms");
  out.set("obs.bench_trace_overhead_frac", median(on_ms) / median(off_ms) - 1.0, "ratio");
}

// workloads.build_ms, golden_ser.*, exp.*, wire.roundtrip_mb_per_s.
void layer_ship(const TraceArgs& args, Tracer& tracer, Results& out) {
  Tracer::Scope layer(tracer, "ship.pipeline");
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope span(tracer, "workloads.build_all");
    const std::int64_t start = thread_cpu_ns();
    for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
      g_sink = g_sink + build(info.name, 1.0).text.size();
    }
    build_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6 /
                       static_cast<double>(workloads::all_workloads().size()));
  }
  out.set("workloads.build_ms", median(build_ms), "ms");

  const casm_::Image image = build("dijkstra", 1.0);
  const auto runner = make_runner(image);
  const std::string key = campaign_key("dijkstra", "fetch-bus");
  const fault::GoldenState state = runner->export_golden();
  std::string blob;
  std::vector<double> encode_ms;
  std::vector<double> decode_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "golden_ser.encode");
    const std::int64_t start = thread_cpu_ns();
    blob = fault::encode_golden(state, key);
    encode_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
  }
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "golden_ser.decode");
    const std::int64_t start = thread_cpu_ns();
    const fault::GoldenState decoded = fault::decode_golden(blob, key);
    decode_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
    if (rep == 0) out.check(fault::encode_golden(decoded, key) == blob, "golden decode->encode is byte-identical");
  }
  out.set("golden_ser.encode_ms", median(encode_ms), "ms");
  out.set("golden_ser.decode_ms", median(decode_ms), "ms");
  out.set("golden_ser.blob_kb", static_cast<double>(blob.size()) / 1024.0, "KiB");

  // Wire: chunk + frame the golden blob, then parse and reassemble it.
  std::vector<double> mb_per_s;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "wire.roundtrip");
    const std::int64_t start = thread_cpu_ns();
    std::string stream;
    for (const std::string& chunk : support::chunk_payloads(blob)) stream += support::wire_frame(chunk);
    support::FrameReader reader;
    reader.feed(stream);
    support::ChunkAssembler assembler;
    std::string payload;
    std::string error;
    support::ChunkAssembler::Status status = support::ChunkAssembler::Status::kChunk;
    while (reader.next(&payload, &error) == support::FrameReader::Status::kFrame) {
      status = assembler.feed(payload, &error);
    }
    const double seconds = static_cast<double>(thread_cpu_ns() - start) / 1e9;
    out.check(status == support::ChunkAssembler::Status::kDone && assembler.blob() == blob,
              "wire round trip reassembles the golden blob");
    mb_per_s.push_back(static_cast<double>(blob.size()) / (1024.0 * 1024.0) / seconds);
  }
  out.set("wire.roundtrip_mb_per_s", median(mb_per_s), "MiB/s");

  // Shard artifacts: encode each shard of a 40-way split, then merge.
  const exp::SweepSpec spec = runner->sweep(fault::FaultSite::kFetchBus, 1, args.trials, args.seed);
  const std::vector<exp::CellResult> cells = exp::run_all(spec, 1);
  constexpr unsigned kShards = 40;
  std::vector<std::string> artifacts;
  std::vector<double> encode_us;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tracer, "exp.artifact_encode");
    artifacts.clear();
    const std::int64_t start = thread_cpu_ns();
    for (unsigned s = 1; s <= kShards; ++s) {
      artifacts.push_back(exp::encode_shard_artifact(spec, {s, kShards}, cells));
    }
    encode_us.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e3 /
                        static_cast<double>(cells.size()));
  }
  out.set("exp.artifact_encode_us_per_cell", median(encode_us), "us");
  std::vector<double> merge_ms;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<exp::ShardArtifact> decoded;
    for (const std::string& text : artifacts) decoded.push_back(exp::decode_shard_artifact(text));
    Tracer::Scope span(tracer, "exp.merge");
    const std::int64_t start = thread_cpu_ns();
    exp::MergeState merge;
    for (exp::ShardArtifact& artifact : decoded) merge.add(std::move(artifact));
    const std::vector<exp::CellResult> merged = std::move(merge).finalize();
    merge_ms.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e6);
    out.check(merged == cells, "merged shard artifacts equal the direct cells");
  }
  out.set("exp.merge_ms", median(merge_ms), "ms");
}

int run_trace(const TraceArgs& args) {
  Tracer tracer;
  Results out;
  const std::string run_id = args.workload + "-seed" + std::to_string(args.seed) + "-pid" +
                             std::to_string(static_cast<long long>(getpid()));
  {
    Tracer::Scope root(tracer, "bench.run");
    layer_cpu_run(args, tracer, out);
    layer_cpu_step(tracer, out);
    layer_cic(tracer, out);
    layer_os(args, tracer, out);
    layer_mem_uop(tracer, out);
    layer_snapshot(tracer, out);
    layer_fault(args, tracer, out);
    layer_ship(args, tracer, out);
  }
  if (!args.spans_path.empty() && !tracer.write(args.spans_path, run_id)) {
    std::fprintf(stderr, "perfbench_layers: cannot write spans to '%s'\n", args.spans_path.c_str());
    return 1;
  }
  out.print();
  return 0;
}

[[noreturn]] void usage() {
  std::fputs(
      "usage: perfbench_layers setup (--kernels SCALE | --campaign KERNEL:SITE ...) [--encode]\n"
      "       perfbench_layers executed --seed N --campaign KERNEL:SITE:TRIALS ...\n"
      "       perfbench_layers instructions --scale S\n"
      "       perfbench_layers trace --workload NAME --seed N --kernel-scale S --trials T\n"
      "                              --spans PATH\n",
      stderr);
  std::exit(2);
}

double parse_number(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0) usage();
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  double kernel_scale = 0;
  std::vector<CampaignArg> campaigns;
  bool encode = false;
  TraceArgs trace;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--encode") {
      encode = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (flag == "--kernels" || flag == "--scale" || flag == "--kernel-scale") {
      kernel_scale = parse_number(value);
      trace.kernel_scale = kernel_scale;
    } else if (flag == "--campaign") {
      const char* colon = std::strchr(value, ':');
      if (colon == nullptr) usage();
      CampaignArg campaign{std::string(value, colon), std::string(colon + 1)};
      const std::size_t trials_at = campaign.site.find(':');
      if (trials_at != std::string::npos) {
        campaign.trials = static_cast<unsigned>(parse_number(campaign.site.c_str() + trials_at + 1));
        campaign.site.resize(trials_at);
      }
      campaigns.push_back(campaign);
    } else if (flag == "--workload") {
      trace.workload = value;
    } else if (flag == "--seed") {
      trace.seed = static_cast<std::uint64_t>(parse_number(value));
    } else if (flag == "--trials") {
      trace.trials = static_cast<unsigned>(parse_number(value));
    } else if (flag == "--spans") {
      trace.spans_path = value;
    } else {
      usage();
    }
  }
  try {
    if (mode == "setup") {
      for (const CampaignArg& campaign : campaigns) parse_site(campaign.site);
      return run_setup(kernel_scale, campaigns, encode);
    }
    if (mode == "executed" && !campaigns.empty()) {
      for (const CampaignArg& campaign : campaigns) {
        parse_site(campaign.site);
        if (campaign.trials == 0) usage();
      }
      return run_executed(campaigns, trace.seed);
    }
    if (mode == "instructions" && kernel_scale > 0) return run_instructions(kernel_scale);
    if (mode == "trace" && !trace.workload.empty() && trace.trials > 0) return run_trace(trace);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_layers: %s\n", error.what());
    return 1;
  }
  usage();
}
