#include "sim/experiment.h"

#include <algorithm>
#include <functional>
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

// The monitored machine at `entries` IHT entries, Table 1's otherwise.
cpu::CpuConfig monitored(unsigned entries) {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = entries;
  return config;
}

// Table 1's and the OS-cost ablation's IHT sizes: CIC8 and CIC16.
constexpr unsigned kCycleEntries[] = {8, 16};

// The profile counts at the head of every profile cell: static regions,
// executed keys, lookups, instructions, app cycles.
constexpr std::size_t kProfileCounts = 5;

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
  if (result.reason != cpu::ExitReason::kExit) {
    throw support::CicError(std::string(workload) + ": workload did not exit cleanly (" +
                            std::string(cpu::exit_reason_name(result.reason)) + ")");
  }
  return result;
}

// --- Reuse profiles -------------------------------------------------------

std::uint64_t ReuseProfile::misses(unsigned entries) const {
  std::uint64_t misses = cold;
  for (std::size_t depth = entries; depth < depths.size(); ++depth) {
    misses += depths[depth];
  }
  return misses;
}

ReuseProfile reuse_profile(std::string_view name, const casm_::Image& image,
                           cpu::Engine engine) {
  // A clean run's reference stream does not depend on the IHT size: a miss
  // exception charges cycles and runs no instructions. A table that holds
  // every key takes only the cold misses.
  cpu::CpuConfig config = monitored(1024);
  config.engine = engine;

  // Keys most recent first, (start << 32) | end: a hit at depth d moves the
  // d keys before it down one slot. Kernels execute tens of keys, so the
  // linear scan is short, and only a cold key grows the arrays.
  ReuseProfile profile;
  std::vector<std::uint64_t> recency;
  cpu::Cpu cpu(config, image);
  cpu.set_lookup_observer([&](std::uint32_t start, std::uint32_t end) {
    const std::uint64_t key = (std::uint64_t{start} << 32) | end;
    ++profile.lookups;
    if (cpu.hilo_pending()) ++profile.hilo_lookups;
    const auto hit = std::find(recency.begin(), recency.end(), key);
    if (hit == recency.end()) {
      ++profile.cold;
      recency.insert(recency.begin(), key);
      profile.depths.push_back(0);
      return;
    }
    ++profile.depths[static_cast<std::size_t>(hit - recency.begin())];
    std::rotate(recency.begin(), hit, hit + 1);
  });
  const cpu::RunResult result = cpu.run();
  cpu.publish_metrics();
  if (result.reason != cpu::ExitReason::kExit) {
    throw support::CicError(std::string(name) +
                            ": reuse-profile run did not exit cleanly");
  }
  const auto unit = hash::make_hash_unit(hash::HashKind::kXor);
  profile.static_regions = cfg::build_fht(image, *unit).size();
  profile.instructions = result.instructions;
  profile.app_cycles = result.app_cycles();
  return profile;
}

ReuseProfile reuse_profile(std::string_view workload, double scale, cpu::Engine engine) {
  workloads::BuildOptions options;
  options.scale = scale;
  return reuse_profile(workload, workloads::build_workload(workload, options), engine);
}

namespace {

// A profile cell: the profile counts, then the misses at each size.
exp::CellResult profile_cell(const ReuseProfile& profile,
                             std::span<const unsigned> sizes) {
  exp::CellResult result;
  result.u64 = {profile.static_regions, profile.cold, profile.lookups,
                profile.instructions, profile.app_cycles};
  for (const unsigned size : sizes) result.u64.push_back(profile.misses(size));
  return result;
}

// One cell per workload: its reuse profile at `scale`, through `cell`.
using ProfileCell = std::function<exp::CellResult(std::string_view, const ReuseProfile&)>;
exp::SweepSpec profile_sweep(std::string sweep, exp::SweepParams params,
                             std::size_t sizes, ProfileCell cell, double scale,
                             cpu::Engine engine) {
  const auto infos = workloads::all_workloads();
  exp::SweepSpec spec;
  spec.sweep = std::move(sweep);
  spec.params = std::move(params);
  spec.cells = infos.size();
  spec.shape = {kProfileCounts + sizes, 0};
  spec.run_cell = [infos, cell = std::move(cell), scale, engine](std::size_t index) {
    const std::string_view name = infos[index].name;
    return cell(name, reuse_profile(name, scale, engine));
  };
  return spec;
}

// A sweep over a list of table sizes, recorded as the `list` parameter.
exp::SweepSpec size_list_sweep(std::string sweep, const char* list,
                               std::vector<unsigned> sizes, double scale,
                               cpu::Engine engine) {
  exp::SweepParams params{{"scale", exp::fmt_f64(scale)}, {list, join_list(sizes)}};
  const std::size_t count = sizes.size();
  return profile_sweep(
      std::move(sweep), std::move(params), count,
      [sizes = std::move(sizes)](std::string_view, const ReuseProfile& profile) {
        return profile_cell(profile, sizes);
      },
      scale, engine);
}

void check_profile_cells(const exp::Cells& cells, std::size_t sizes, const char* sweep) {
  if (cells.size() != workloads::all_workloads().size()) {
    throw support::CicError(std::string(sweep) + " cells do not match the workload grid");
  }
  if (cells.shape() != exp::CellShape{kProfileCounts + sizes, 0}) {
    throw support::CicError(std::string(sweep) + " cell payload has the wrong shape");
  }
}

// The N-entry machine's IHT counts at `misses`: a clean run never
// mismatches, so every lookup hits or misses.
cic::IhtStats iht_stats(std::uint64_t lookups, std::uint64_t misses) {
  return {lookups, lookups - misses, misses, 0};
}

// Decodes Table 1's cells at each OS cost: per workload the baseline (the
// app cycles; the unmonitored machine looks nothing up), then CIC8 and
// CIC16 at each cost.
std::vector<VariantRow> cycle_rows(const exp::Cells& cells, const char* sweep,
                                   std::span<const std::uint64_t> costs) {
  check_profile_cells(cells, std::size(kCycleEntries), sweep);
  const auto infos = workloads::all_workloads();
  std::vector<VariantRow> rows;
  rows.reserve(cells.size());
  for (std::size_t w = 0; w < cells.size(); ++w) {
    const std::uint64_t lookups = cells.u64(w, 2);
    const std::uint64_t baseline = cells.u64(w, 4);
    VariantRow row{std::string(infos[w].name), {baseline}, {0.0}};
    for (const std::uint64_t cost : costs) {
      for (std::size_t e = 0; e < std::size(kCycleEntries); ++e) {
        const std::uint64_t misses = cells.u64(w, kProfileCounts + e);
        row.cycles.push_back(baseline + cost * misses);
        row.miss_rates.push_back(iht_stats(lookups, misses).miss_rate());
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Decodes one profile cell's slots for the blocks table. The hit rate at
// capacity C is cdf_at(C - 1) - cdf_at(-1) of the stack-distance histogram
// (cold references at -1), in that double arithmetic: the share of lookups
// that are cold or at depth < C, less the cold share.
BlockStats block_stats(std::string workload, std::span<const std::uint64_t> slots,
                       const std::vector<unsigned>& capacities) {
  BlockStats stats{std::move(workload), slots[0], slots[1], slots[2], slots[3], 0.0, {},
                   capacities};
  const auto share = [&stats](std::uint64_t count) {
    return stats.lookups == 0
               ? 0.0
               : static_cast<double>(count) / static_cast<double>(stats.lookups);
  };
  stats.mean_block_instructions = share(stats.instructions);
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    stats.lru_hit_rate.push_back(
        share(stats.dynamic_keys + stats.lookups - slots[kProfileCounts + c]) -
        share(stats.dynamic_keys));
  }
  return stats;
}

}  // namespace

exp::CellResult table1_cell(std::string_view workload, const ReuseProfile& profile) {
  // Cycles are read off the profile, which assumes that every miss exception
  // lands outside a mult/div latency window: hilo_ready is absolute, so an
  // exception inside one would shorten the stall of the mfhi/mflo after it.
  if (profile.hilo_lookups != 0) {
    throw support::CicError(std::string(workload) + ": " +
                            std::to_string(profile.hilo_lookups) +
                            " IHT lookup(s) while a mult/div result was outstanding; "
                            "its cycles cannot be read off the reuse profile");
  }
  return profile_cell(profile, kCycleEntries);
}

exp::SweepSpec table1_sweep(double scale, cpu::Engine engine) {
  return profile_sweep("table1", {{"scale", exp::fmt_f64(scale)}},
                       std::size(kCycleEntries), table1_cell, scale, engine);
}

std::vector<VariantRow> table1_rows(const exp::Cells& cells) {
  const std::uint64_t costs[] = {os::OsConfig{}.exception_cycles};
  return cycle_rows(cells, "table1", costs);
}

exp::SweepSpec os_cost_sweep(double scale, cpu::Engine engine) {
  return profile_sweep("ablation-os-cost", {{"scale", exp::fmt_f64(scale)}},
                       std::size(kCycleEntries), table1_cell, scale, engine);
}

std::vector<VariantRow> os_cost_rows(const exp::Cells& cells) {
  return cycle_rows(cells, "ablation-os-cost", kOsCosts);
}

exp::SweepSpec fig6_sweep(const std::vector<unsigned>& entry_counts, double scale,
                          cpu::Engine engine) {
  return size_list_sweep("fig6", "entries", entry_counts, scale, engine);
}

std::vector<Fig6Row> fig6_rows(const exp::Cells& cells,
                               const std::vector<unsigned>& entry_counts) {
  check_profile_cells(cells, entry_counts.size(), "fig6");
  const auto infos = workloads::all_workloads();
  std::vector<Fig6Row> rows;
  rows.reserve(cells.size());
  for (std::size_t w = 0; w < cells.size(); ++w) {
    Fig6Row row{std::string(infos[w].name), {}};
    const std::uint64_t lookups = cells.u64(w, 2);
    for (std::size_t e = 0; e < entry_counts.size(); ++e) {
      row.iht.push_back(iht_stats(lookups, cells.u64(w, kProfileCounts + e)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

BlockStats characterize_blocks(std::string_view workload,
                               const std::vector<unsigned>& capacities, double scale,
                               cpu::Engine engine) {
  const exp::CellResult cell =
      profile_cell(reuse_profile(workload, scale, engine), capacities);
  return block_stats(std::string(workload), cell.u64, capacities);
}

exp::SweepSpec blocks_sweep(std::vector<unsigned> capacities, double scale,
                            cpu::Engine engine) {
  return size_list_sweep("blocks", "capacities", std::move(capacities), scale, engine);
}

std::vector<BlockStats> blocks_rows(const exp::Cells& cells,
                                    const std::vector<unsigned>& capacities) {
  check_profile_cells(cells, capacities.size(), "blocks");
  const auto infos = workloads::all_workloads();
  std::vector<BlockStats> rows;
  rows.reserve(cells.size());
  for (std::size_t w = 0; w < cells.size(); ++w) {
    rows.push_back(block_stats(std::string(infos[w].name), cells.u64_slots(w), capacities));
  }
  return rows;
}

// --- Replacement ablation -------------------------------------------------

exp::SweepSpec replacement_sweep(double scale, cpu::Engine engine) {
  std::vector<cpu::CpuConfig> machines{cpu::CpuConfig{}};
  for (const ReplacementPolicy& policy : kReplacementPolicies) {
    machines.push_back(monitored(8));
    machines.back().cic.replace_policy = policy.victim;
    machines.back().os.refill_mode = policy.refill;
  }
  for (cpu::CpuConfig& machine : machines) machine.engine = engine;
  const auto infos = workloads::all_workloads();
  exp::SweepSpec spec;
  spec.sweep = "ablation-replacement";
  spec.params = {{"scale", exp::fmt_f64(scale)}};
  spec.cells = infos.size() * machines.size();
  spec.shape = {1, 1};
  spec.run_cell = [infos, machines, scale](std::size_t cell) {
    const cpu::RunResult run = run_workload(infos[cell / machines.size()].name,
                                            machines[cell % machines.size()], scale);
    exp::CellResult result;
    result.u64 = {run.cycles};
    result.f64 = {run.iht.miss_rate()};
    return result;
  };
  return spec;
}

std::vector<VariantRow> replacement_rows(const exp::Cells& cells) {
  const std::size_t machines = 1 + std::size(kReplacementPolicies);
  const auto infos = workloads::all_workloads();
  support::check(cells.size() == infos.size() * machines,
                 "ablation-replacement cells do not match the workload grid");
  support::check(cells.shape() == exp::CellShape{1, 1},
                 "ablation-replacement cell payload has the wrong shape");
  std::vector<VariantRow> rows;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    if (cell % machines == 0) {
      rows.push_back({std::string(infos[cell / machines].name), {}, {}});
    }
    rows.back().cycles.push_back(cells.u64(cell, 0));
    rows.back().miss_rates.push_back(cells.f64(cell, 0));
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
