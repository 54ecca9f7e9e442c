// Experiment runners for the paper's evaluation (§6).
//
// Each function reproduces the data behind one table or figure; the `cicmon`
// CLI renders these rows, and the integration tests assert their shapes.
// All runs are deterministic for a given (scale, seed), on either engine.
//
// Every sweep is described as an exp::SweepSpec — a deterministic grid of
// (workload, config) cells — and executed by the unified sweep engine
// (exp/sweep.h), which provides the parallel fan-out, process sharding,
// partial-summary artifacts, resume, and byte-identical merge for all of
// them at once. The `*_sweep` builders expose the grids; the `*_rows`
// decoders rebuild typed rows from a full (possibly merged) cell vector;
// and the legacy entry points below are run-everything wrappers. `jobs`
// follows the engine contract: 0 = CICMON_JOBS / hardware concurrency,
// 1 = the exact legacy serial path. `engine` picks how every cell's machine
// executes; it is an execution strategy, so it never enters the sweep
// parameters and never changes a cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cpu.h"
#include "exp/sweep.h"
#include "support/stats.h"
#include "workloads/workloads.h"

namespace cicmon::sim {

// Canonical workload execution: builds the image at `scale` and runs it on
// the configured machine. Throws if the workload terminates abnormally
// (self-check failure, watchdog) — experiment data from a wrong simulation
// would be meaningless.
cpu::RunResult run_workload(std::string_view workload, const cpu::CpuConfig& config,
                            double scale = 1.0, std::uint64_t seed = 42);

// --- Figure 6: IHT miss rate vs table size -------------------------------
struct Fig6Row {
  std::string workload;
  std::vector<double> miss_rates;  // one per entry count, same order as input
};
// Grid: one cell per (workload, entry count), f64 = {miss_rate}.
exp::SweepSpec fig6_sweep(std::vector<unsigned> entry_counts, double scale = 1.0,
                          cpu::Engine engine = cpu::Engine::kThreaded);
std::vector<Fig6Row> fig6_rows(const std::vector<exp::CellResult>& cells,
                               std::size_t per_workload);
std::vector<Fig6Row> fig6_miss_rates(const std::vector<unsigned>& entry_counts,
                                     double scale = 1.0, unsigned jobs = 0);

// --- Table 1: cycle-count overhead ---------------------------------------
struct Table1Row {
  std::string workload;
  std::uint64_t cycles_baseline = 0;  // monitoring off
  std::uint64_t cycles_cic8 = 0;
  std::uint64_t cycles_cic16 = 0;
  double overhead_cic8 = 0.0;   // fraction
  double overhead_cic16 = 0.0;
};
// Grid: three cells per workload (baseline, CIC8, CIC16), u64 = {cycles};
// the overheads are derived in the decoder once a workload's baseline and
// monitored cells are both in.
exp::SweepSpec table1_sweep(double scale = 1.0, cpu::Engine engine = cpu::Engine::kThreaded);
std::vector<Table1Row> table1_rows(const std::vector<exp::CellResult>& cells);
std::vector<Table1Row> table1_overheads(double scale = 1.0, unsigned jobs = 0);

// --- Workload characterisation (§6.1 block counts / locality) ------------
struct BlockStats {
  std::string workload;
  std::uint64_t static_regions = 0;    // FHT records
  std::uint64_t dynamic_keys = 0;      // distinct (start, end) keys executed
  std::uint64_t lookups = 0;
  std::uint64_t instructions = 0;      // dynamic instruction count of the run
  double mean_block_instructions = 0.0;
  // LRU stack-distance profile of the block reference stream: the fraction
  // of lookups whose reuse distance is < the given capacities (i.e. the hit
  // rate of an ideal LRU table of that size).
  std::vector<double> lru_hit_rate;    // one per capacity in `capacities`
  std::vector<unsigned> capacities;
};
BlockStats characterize_blocks(std::string_view workload,
                               const std::vector<unsigned>& capacities, double scale = 1.0,
                               cpu::Engine engine = cpu::Engine::kThreaded);

// Grid: one cell per workload (each workload's reference stream is
// inherently serial; the fan-out is across workloads). u64 =
// {static_regions, dynamic_keys, lookups, instructions}, f64 = one LRU hit
// rate per capacity.
exp::SweepSpec blocks_sweep(std::vector<unsigned> capacities, double scale = 1.0,
                            cpu::Engine engine = cpu::Engine::kThreaded);
std::vector<BlockStats> blocks_rows(const std::vector<exp::CellResult>& cells,
                                    const std::vector<unsigned>& capacities);
std::vector<BlockStats> characterize_all_blocks(const std::vector<unsigned>& capacities,
                                                double scale = 1.0, unsigned jobs = 0);

}  // namespace cicmon::sim
