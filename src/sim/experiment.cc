#include "sim/experiment.h"

#include <list>
#include <map>
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

// --- Figure 6 -----------------------------------------------------------

exp::SweepSpec fig6_sweep(std::vector<unsigned> entry_counts, double scale,
                          cpu::Engine engine) {
  const auto infos = workloads::all_workloads();
  const std::size_t per_workload = entry_counts.size();
  exp::SweepSpec spec;
  spec.sweep = "fig6";
  spec.params = {{"scale", exp::fmt_f64(scale)}, {"entries", join_list(entry_counts)}};
  spec.cells = infos.size() * per_workload;
  spec.cell_key = [infos, per_workload, entry_counts](std::size_t cell) {
    return std::string(infos[cell / per_workload].name) + "/entries" +
           std::to_string(entry_counts[cell % per_workload]);
  };
  spec.run_cell = [infos, per_workload, entry_counts, scale, engine](std::size_t cell) {
    cpu::CpuConfig config;
    config.engine = engine;
    config.monitoring = true;
    config.cic.iht_entries = entry_counts[cell % per_workload];
    exp::CellResult result;
    result.f64 = {run_workload(infos[cell / per_workload].name, config, scale).iht.miss_rate()};
    return result;
  };
  return spec;
}

std::vector<Fig6Row> fig6_rows(const std::vector<exp::CellResult>& cells,
                               std::size_t per_workload) {
  const auto infos = workloads::all_workloads();
  support::check(per_workload > 0 && cells.size() == infos.size() * per_workload,
                 "fig6 cell vector does not match the workload grid");
  std::vector<Fig6Row> rows;
  rows.reserve(infos.size());
  for (std::size_t w = 0; w < infos.size(); ++w) {
    Fig6Row row;
    row.workload = std::string(infos[w].name);
    for (std::size_t e = 0; e < per_workload; ++e) {
      const exp::CellResult& cell = cells[w * per_workload + e];
      support::check(cell.f64.size() == 1, "fig6 cell payload has the wrong shape");
      row.miss_rates.push_back(cell.f64[0]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Fig6Row> fig6_miss_rates(const std::vector<unsigned>& entry_counts, double scale,
                                     unsigned jobs) {
  return fig6_rows(exp::run_all(fig6_sweep(entry_counts, scale), jobs), entry_counts.size());
}

// --- Table 1 ------------------------------------------------------------

namespace {
// Three cells per workload: baseline (monitoring off), CIC8, CIC16.
constexpr unsigned kTable1Variants[] = {0U, 8U, 16U};
constexpr std::size_t kTable1PerWorkload = std::size(kTable1Variants);
}  // namespace

exp::SweepSpec table1_sweep(double scale, cpu::Engine engine) {
  const auto infos = workloads::all_workloads();
  exp::SweepSpec spec;
  spec.sweep = "table1";
  spec.params = {{"scale", exp::fmt_f64(scale)}};
  spec.cells = infos.size() * kTable1PerWorkload;
  spec.cell_key = [infos](std::size_t cell) {
    const unsigned entries = kTable1Variants[cell % kTable1PerWorkload];
    return std::string(infos[cell / kTable1PerWorkload].name) + "/" +
           (entries == 0 ? "baseline" : "cic" + std::to_string(entries));
  };
  spec.run_cell = [infos, scale, engine](std::size_t cell) {
    const unsigned entries = kTable1Variants[cell % kTable1PerWorkload];
    cpu::CpuConfig config;
    config.engine = engine;
    if (entries != 0) {
      config.monitoring = true;
      config.cic.iht_entries = entries;
    }
    exp::CellResult result;
    result.u64 = {run_workload(infos[cell / kTable1PerWorkload].name, config, scale).cycles};
    return result;
  };
  return spec;
}

std::vector<Table1Row> table1_rows(const std::vector<exp::CellResult>& cells) {
  const auto infos = workloads::all_workloads();
  support::check(cells.size() == infos.size() * kTable1PerWorkload,
                 "table1 cell vector does not match the workload grid");
  for (const exp::CellResult& cell : cells) {
    support::check(cell.u64.size() == 1, "table1 cell payload has the wrong shape");
  }
  std::vector<Table1Row> rows;
  rows.reserve(infos.size());
  for (std::size_t w = 0; w < infos.size(); ++w) {
    Table1Row row;
    row.workload = std::string(infos[w].name);
    row.cycles_baseline = cells[w * kTable1PerWorkload].u64[0];
    row.cycles_cic8 = cells[w * kTable1PerWorkload + 1].u64[0];
    row.cycles_cic16 = cells[w * kTable1PerWorkload + 2].u64[0];
    const double baseline = static_cast<double>(row.cycles_baseline);
    row.overhead_cic8 = static_cast<double>(row.cycles_cic8) / baseline - 1.0;
    row.overhead_cic16 = static_cast<double>(row.cycles_cic16) / baseline - 1.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Table1Row> table1_overheads(double scale, unsigned jobs) {
  return table1_rows(exp::run_all(table1_sweep(scale), jobs));
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
  spec.cell_key = [infos](std::size_t cell) { return std::string(infos[cell].name); };
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

std::vector<BlockStats> blocks_rows(const std::vector<exp::CellResult>& cells,
                                    const std::vector<unsigned>& capacities) {
  const auto infos = workloads::all_workloads();
  support::check(cells.size() == infos.size(),
                 "blocks cell vector does not match the workload grid");
  std::vector<BlockStats> rows;
  rows.reserve(cells.size());
  for (std::size_t w = 0; w < cells.size(); ++w) {
    support::check(cells[w].u64.size() == 4 && cells[w].f64.size() == capacities.size(),
                   "blocks cell payload has the wrong shape");
    BlockStats stats;
    stats.workload = std::string(infos[w].name);
    stats.static_regions = cells[w].u64[0];
    stats.dynamic_keys = cells[w].u64[1];
    stats.lookups = cells[w].u64[2];
    stats.instructions = cells[w].u64[3];
    stats.mean_block_instructions =
        stats.lookups == 0 ? 0.0
                           : static_cast<double>(stats.instructions) /
                                 static_cast<double>(stats.lookups);
    stats.lru_hit_rate = cells[w].f64;
    stats.capacities = capacities;
    rows.push_back(std::move(stats));
  }
  return rows;
}

std::vector<BlockStats> characterize_all_blocks(const std::vector<unsigned>& capacities,
                                                double scale, unsigned jobs) {
  return blocks_rows(exp::run_all(blocks_sweep(capacities, scale), jobs), capacities);
}

}  // namespace cicmon::sim
