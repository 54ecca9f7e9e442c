#include "sim/experiment.h"

#include <list>
#include <map>
#include <span>
#include <utility>

#include "cfg/fht.h"
#include "support/error.h"

namespace cicmon::sim {
namespace {

// Comma-joined list parameter ("1,8,16,32") for shard artifacts.
std::string join_list(const std::vector<unsigned>& values) {
  std::string out;
  for (const unsigned value : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(value);
  }
  return out;
}

}  // namespace

cpu::RunResult run_workload(std::string_view workload, const cpu::CpuConfig& config,
                            double scale, std::uint64_t seed) {
  workloads::BuildOptions options;
  options.scale = scale;
  options.seed = seed;
  const casm_::Image image = workloads::build_workload(workload, options);
  cpu::Cpu cpu(config, image);
  const cpu::RunResult result = cpu.run();
  cpu.publish_metrics();
  support::check(result.reason == cpu::ExitReason::kExit,
                 std::string(workload) + ": workload did not exit cleanly (" +
                     std::string(cpu::exit_reason_name(result.reason)) + ")");
  return result;
}

// --- Machine-variant grids ----------------------------------------------

namespace {

// One machine of a variant grid: its name and configuration (the builder
// sets the engine).
struct Variant {
  std::string name;
  cpu::CpuConfig config;
};

Variant monitored(unsigned entries) {
  Variant variant{"cic" + std::to_string(entries), {}};
  variant.config.monitoring = true;
  variant.config.cic.iht_entries = entries;
  return variant;
}

exp::SweepSpec variant_sweep(std::string sweep, exp::SweepParams params,
                             std::vector<Variant> variants, double scale, cpu::Engine engine) {
  const auto infos = workloads::all_workloads();
  exp::SweepSpec spec;
  spec.sweep = std::move(sweep);
  spec.params = std::move(params);
  spec.cells = infos.size() * variants.size();
  spec.shape = {1, 1};
  spec.run_cell = [infos, variants, scale, engine](std::size_t cell) {
    cpu::CpuConfig config = variants[cell % variants.size()].config;
    config.engine = engine;
    const cpu::RunResult run = run_workload(infos[cell / variants.size()].name, config, scale);
    exp::CellResult result;
    result.u64 = {run.cycles};
    result.f64 = {run.iht.miss_rate()};
    return result;
  };
  return spec;
}

}  // namespace

std::vector<VariantRow> variant_rows(const exp::Cells& cells, std::size_t variants) {
  const auto infos = workloads::all_workloads();
  support::check(variants > 0 && cells.size() == infos.size() * variants,
                 "variant cells do not match the workload grid");
  support::check(cells.shape() == exp::CellShape{1, 1},
                 "variant cell payload has the wrong shape");
  std::vector<VariantRow> rows;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    if (cell % variants == 0) {
      rows.push_back({std::string(infos[cell / variants].name), {}, {}});
    }
    rows.back().cycles.push_back(cells.u64(cell, 0));
    rows.back().miss_rates.push_back(cells.f64(cell, 0));
  }
  return rows;
}

exp::SweepSpec table1_sweep(double scale, cpu::Engine engine) {
  return variant_sweep("table1", {{"scale", exp::fmt_f64(scale)}},
                       {{"baseline", {}}, monitored(8), monitored(16)}, scale, engine);
}

exp::SweepSpec fig6_sweep(const std::vector<unsigned>& entry_counts, double scale,
                          cpu::Engine engine) {
  std::vector<Variant> variants;
  for (const unsigned entries : entry_counts) variants.push_back(monitored(entries));
  return variant_sweep("fig6",
                       {{"scale", exp::fmt_f64(scale)}, {"entries", join_list(entry_counts)}},
                       std::move(variants), scale, engine);
}

exp::SweepSpec os_cost_sweep(double scale, cpu::Engine engine) {
  std::vector<Variant> variants{{"baseline", {}}};
  for (const std::uint64_t cost : kOsCosts) {
    for (const unsigned entries : {8U, 16U}) {
      variants.push_back(monitored(entries));
      variants.back().name += "/exc" + std::to_string(cost);
      variants.back().config.os.exception_cycles = cost;
    }
  }
  return variant_sweep("ablation-os-cost", {{"scale", exp::fmt_f64(scale)}},
                       std::move(variants), scale, engine);
}

exp::SweepSpec replacement_sweep(double scale, cpu::Engine engine) {
  std::vector<Variant> variants{{"baseline", {}}};
  for (const ReplacementPolicy& policy : kReplacementPolicies) {
    variants.push_back({policy.name, monitored(8).config});
    variants.back().config.cic.replace_policy = policy.victim;
    variants.back().config.os.refill_mode = policy.refill;
  }
  return variant_sweep("ablation-replacement", {{"scale", exp::fmt_f64(scale)}},
                       std::move(variants), scale, engine);
}

// --- Block characterisation ---------------------------------------------

BlockStats characterize_blocks(std::string_view workload,
                               const std::vector<unsigned>& capacities, double scale,
                               cpu::Engine engine) {
  workloads::BuildOptions options;
  options.scale = scale;
  const casm_::Image image = workloads::build_workload(workload, options);

  // A large IHT so capacity effects do not perturb the reference stream.
  cpu::CpuConfig config;
  config.engine = engine;
  config.monitoring = true;
  config.cic.iht_entries = 1024;

  // Exact LRU stack distances via a recency list (streams are short enough
  // that the O(n·k) scan is fine and keeps the computation transparent).
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  std::list<Key> recency;
  std::map<Key, std::list<Key>::iterator> where;
  support::Histogram distances;
  std::uint64_t lookups = 0;

  cpu::Cpu cpu(config, image);
  cpu.set_lookup_observer([&](std::uint32_t start, std::uint32_t end) {
    const Key key{start, end};
    ++lookups;
    auto it = where.find(key);
    if (it == where.end()) {
      distances.add(-1);  // cold reference
    } else {
      std::int64_t depth = 0;
      for (auto pos = recency.begin(); pos != it->second; ++pos) ++depth;
      distances.add(depth);
      recency.erase(it->second);
    }
    recency.push_front(key);
    where[key] = recency.begin();
  });
  const cpu::RunResult result = cpu.run();
  cpu.publish_metrics();
  support::check(result.reason == cpu::ExitReason::kExit,
                 std::string(workload) + ": characterisation run did not exit cleanly");

  BlockStats stats;
  stats.workload = std::string(workload);
  const auto unit = hash::make_hash_unit(hash::HashKind::kXor);
  stats.static_regions = cfg::build_fht(image, *unit).size();
  stats.dynamic_keys = where.size();
  stats.lookups = lookups;
  stats.instructions = result.instructions;
  stats.mean_block_instructions =
      lookups == 0 ? 0.0
                   : static_cast<double>(result.instructions) / static_cast<double>(lookups);
  stats.capacities = capacities;
  // Hit in an LRU table of C entries <=> stack distance in [0, C); the -1
  // bin holds cold references and is excluded.
  const double cold = distances.cdf_at(-1);
  for (unsigned capacity : capacities) {
    stats.lru_hit_rate.push_back(
        distances.cdf_at(static_cast<std::int64_t>(capacity) - 1) - cold);
  }
  return stats;
}

exp::SweepSpec blocks_sweep(std::vector<unsigned> capacities, double scale,
                            cpu::Engine engine) {
  const auto infos = workloads::all_workloads();
  exp::SweepSpec spec;
  spec.sweep = "blocks";
  spec.params = {{"scale", exp::fmt_f64(scale)}, {"capacities", join_list(capacities)}};
  spec.cells = infos.size();
  spec.shape = {4, capacities.size()};
  spec.run_cell = [infos, capacities, scale, engine](std::size_t cell) {
    const BlockStats stats = characterize_blocks(infos[cell].name, capacities, scale, engine);
    exp::CellResult result;
    // The mean is derived in the decoder from the two exact integers.
    result.u64 = {stats.static_regions, stats.dynamic_keys, stats.lookups, stats.instructions};
    result.f64 = stats.lru_hit_rate;
    return result;
  };
  return spec;
}

std::vector<BlockStats> blocks_rows(const exp::Cells& cells,
                                    const std::vector<unsigned>& capacities) {
  const auto infos = workloads::all_workloads();
  support::check(cells.size() == infos.size(), "blocks cells do not match the workload grid");
  support::check(cells.shape() == exp::CellShape{4, capacities.size()},
                 "blocks cell payload has the wrong shape");
  std::vector<BlockStats> rows;
  rows.reserve(cells.size());
  for (std::size_t w = 0; w < cells.size(); ++w) {
    BlockStats stats;
    stats.workload = std::string(infos[w].name);
    stats.static_regions = cells.u64(w, 0);
    stats.dynamic_keys = cells.u64(w, 1);
    stats.lookups = cells.u64(w, 2);
    stats.instructions = cells.u64(w, 3);
    stats.mean_block_instructions =
        stats.lookups == 0 ? 0.0
                           : static_cast<double>(stats.instructions) /
                                 static_cast<double>(stats.lookups);
    const std::span<const double> rates = cells.f64_slots(w);
    stats.lru_hit_rate.assign(rates.begin(), rates.end());
    stats.capacities = capacities;
    rows.push_back(std::move(stats));
  }
  return rows;
}

// --- Campaign grids -----------------------------------------------------

namespace {

// One whole campaign: the machine (the builder sets the engine) and the
// faults it injects.
struct CampaignCell {
  cpu::CpuConfig config;
  fault::FaultSite site;
  unsigned bits;
};

CampaignCell campaign_cell(bool monitoring, hash::HashKind kind, std::uint32_t key,
                           fault::FaultSite site, unsigned bits) {
  CampaignCell cell{{}, site, bits};
  cell.config.monitoring = monitoring;
  cell.config.cic.iht_entries = 16;
  cell.config.cic.hash_kind = kind;
  cell.config.cic.hash_key = key;
  return cell;
}

exp::SweepSpec campaign_grid(std::string sweep, std::vector<CampaignCell> grid,
                             unsigned trials, std::uint64_t seed, double scale,
                             cpu::Engine engine) {
  exp::SweepSpec spec;
  spec.sweep = std::move(sweep);
  spec.params = {{"scale", exp::fmt_f64(scale)}};
  spec.cells = grid.size();
  spec.shape = {6, 0};
  spec.run_cell = [grid, trials, seed, scale, engine](std::size_t cell) {
    cpu::CpuConfig config = grid[cell].config;
    config.engine = engine;
    fault::CampaignRunner runner(workloads::build_workload("sha", {scale, 42}), config);
    const fault::CampaignSummary s =
        runner.run_random(grid[cell].site, grid[cell].bits, trials, seed, /*jobs=*/1);
    exp::CellResult result;
    result.u64 = {s.detected_mismatch, s.detected_miss, s.detected_baseline,
                  s.wrong_output,      s.benign,        s.hang};
    return result;
  };
  return spec;
}

}  // namespace

std::vector<fault::CampaignSummary> campaign_rows(const exp::Cells& cells,
                                                  std::size_t campaigns) {
  support::check(cells.size() == campaigns, "campaign cells do not match the grid");
  support::check(cells.shape() == exp::CellShape{6, 0},
                 "campaign grid cell payload has the wrong shape");
  std::vector<fault::CampaignSummary> rows;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const std::span<const std::uint64_t> n = cells.u64_slots(cell);
    rows.push_back(
        {n[0] + n[1] + n[2] + n[3] + n[4] + n[5], n[0], n[1], n[2], n[3], n[4], n[5]});
  }
  return rows;
}

exp::SweepSpec faults_sweep(double scale, cpu::Engine engine) {
  std::vector<CampaignCell> grid;
  for (const fault::FaultSite site : kFaultSites) {
    for (const bool monitoring : {true, false}) {
      grid.push_back(campaign_cell(monitoring, hash::HashKind::kXor, 0, site, 1));
    }
  }
  for (const hash::HashKind kind : kFaultHashes) {
    for (const auto& [site, bits] : kStrengthColumns) {
      grid.push_back(campaign_cell(true, kind, 0, site, bits));
    }
  }
  return campaign_grid("faults", std::move(grid), 120, 2026, scale, engine);
}

exp::SweepSpec hash_ablation_sweep(double scale, cpu::Engine engine) {
  std::vector<CampaignCell> grid;
  for (const hash::HashKind kind : hash::all_hash_kinds()) {
    for (const unsigned bits : kAblationBits) {
      grid.push_back(
          campaign_cell(true, kind, 0x5EED, fault::FaultSite::kFetchBusPaired, bits));
    }
  }
  return campaign_grid("ablation-hash", std::move(grid), 100, 7, scale, engine);
}

}  // namespace cicmon::sim
