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
// them at once. The `*_sweep` builders expose the grids, and the `*_rows`
// decoders rebuild typed rows from a full (possibly merged) grid of cells.
// `engine` picks how every cell's machine executes; it is an execution
// strategy, so it never enters the sweep parameters and never changes a
// cell.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "casm/image.h"
#include "cic/iht.h"
#include "cpu/cpu.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "workloads/workloads.h"

namespace cicmon::sim {

// Canonical workload execution: builds the image at `scale` and runs it on
// the configured machine. Throws if the workload terminates abnormally
// (self-check failure, watchdog) — experiment data from a wrong simulation
// would be meaningless.
cpu::RunResult run_workload(std::string_view workload, const cpu::CpuConfig& config,
                            double scale = 1.0, std::uint64_t seed = 42);

// --- Reuse profiles (Table 1, Figure 6, §6.1 blocks, §6.1 OS cost) --------

// LRU stack-distance profile of one program's IHT reference stream: the
// (start, end) key of every lookup, from one monitored run. A clean run's
// stream does not depend on the IHT size (a miss exception charges cycles
// and runs no instructions), and an LRU table with demand fill holds the N
// most recently used keys (inclusion), so one profile gives the exact miss
// count of every table size.
struct ReuseProfile {
  std::uint64_t static_regions = 0;  // FHT records
  std::uint64_t lookups = 0;
  std::uint64_t instructions = 0;    // dynamic instruction count of the run
  std::uint64_t app_cycles = 0;      // the run's cycles less its miss exceptions'
  // Lookups made while a mult/div result was still outstanding
  // (Cpu::hilo_pending): a miss exception there can shorten a later HI/LO
  // stall, so a machine's cycles need not be app_cycles plus a fixed cost
  // per miss.
  std::uint64_t hilo_lookups = 0;
  std::uint64_t cold = 0;            // first references: the executed keys
  // depths[d]: lookups whose key was the (d+1)-th most recently used one
  // (depth 0: the previous lookup's key).
  std::vector<std::uint64_t> depths;

  // Misses of an `entries`-entry LRU table with demand fill: the cold
  // references plus every lookup at depth >= entries.
  std::uint64_t misses(unsigned entries) const;
};
// Profiles `image` on the monitored machine; `name` labels errors.
ReuseProfile reuse_profile(std::string_view name, const casm_::Image& image,
                           cpu::Engine engine = cpu::Engine::kThreaded);
// Profiles a workload built at `scale` (image seed 42).
ReuseProfile reuse_profile(std::string_view workload, double scale = 1.0,
                           cpu::Engine engine = cpu::Engine::kThreaded);

// Table 1, the OS-cost ablation, Figure 6 and the blocks table are one cell
// per workload (each reference stream is inherently serial; the fan-out is
// across workloads), shape (5 + sizes) + 0: u64 = {static_regions, executed
// keys, lookups, instructions, app cycles}, then the misses of an LRU table
// of each size.

// One workload's cycles and IHT miss rates, per machine: the unmonitored
// baseline first, then the monitored machines in the sweep's order.
struct VariantRow {
  std::string workload;
  std::vector<std::uint64_t> cycles;
  std::vector<double> miss_rates;
  // Cycle overhead of machine `v` over machine 0, the baseline (fraction).
  double overhead(std::size_t v) const {
    return static_cast<double>(cycles[v]) / static_cast<double>(cycles[0]) - 1.0;
  }
};

// Table 1 cycle overheads (`cicmon table1`): the baseline, CIC8 and CIC16,
// read off each profile at 8 and 16 entries. An N-entry machine that charges
// E cycles per OS exception runs app cycles + E x misses(N) cycles (the
// baseline is the app cycles), and its miss rate is misses(N) / lookups.
// That is exact when every miss costs the same E (I-cache off, no FHT probe
// cost) and no miss exception can shorten a HI/LO stall; the cell of a
// profile with hilo_lookups refuses to run instead.
exp::SweepSpec table1_sweep(double scale = 1.0, cpu::Engine engine = cpu::Engine::kThreaded);
// One workload's Table 1 (and OS-cost) cell. Throws CicError naming
// `workload` when the profile has hilo_lookups.
exp::CellResult table1_cell(std::string_view workload, const ReuseProfile& profile);
// Rows: baseline, CIC8, CIC16 at Table 1's 100 cycles per OS exception.
std::vector<VariantRow> table1_rows(const exp::Cells& cells);

// §6.1 ablation, Table 1 against the OS exception-handling cost: Table 1's
// cells, read at each cost (100 is the paper's, and Table 1's).
inline constexpr std::uint64_t kOsCosts[] = {20, 50, 100, 200, 400};
exp::SweepSpec os_cost_sweep(double scale = 1.0, cpu::Engine engine = cpu::Engine::kThreaded);
// Rows: baseline, then CIC8 and CIC16 at each cost.
std::vector<VariantRow> os_cost_rows(const exp::Cells& cells);

// Figure 6 IHT miss rates, one per entry count, of the paper's LRU +
// demand-fill machine (`cicmon fig6`).
exp::SweepSpec fig6_sweep(const std::vector<unsigned>& entry_counts, double scale = 1.0,
                          cpu::Engine engine = cpu::Engine::kThreaded);
struct Fig6Row {
  std::string workload;
  std::vector<cic::IhtStats> iht;  // the N-entry machine's, per entry count
};
std::vector<Fig6Row> fig6_rows(const exp::Cells& cells,
                               const std::vector<unsigned>& entry_counts);

// §6.1 block counts and locality (`cicmon blocks`).
struct BlockStats {
  std::string workload;
  std::uint64_t static_regions = 0;    // FHT records
  std::uint64_t dynamic_keys = 0;      // distinct (start, end) keys executed
  std::uint64_t lookups = 0;
  std::uint64_t instructions = 0;      // dynamic instruction count of the run
  double mean_block_instructions = 0.0;
  // The fraction of lookups whose reuse distance is < the given capacity,
  // cold references excluded (the hit rate of an LRU table of that size).
  std::vector<double> lru_hit_rate;    // one per capacity in `capacities`
  std::vector<unsigned> capacities;
};
BlockStats characterize_blocks(std::string_view workload,
                               const std::vector<unsigned>& capacities, double scale = 1.0,
                               cpu::Engine engine = cpu::Engine::kThreaded);
exp::SweepSpec blocks_sweep(std::vector<unsigned> capacities, double scale = 1.0,
                            cpu::Engine engine = cpu::Engine::kThreaded);
std::vector<BlockStats> blocks_rows(const exp::Cells& cells,
                                    const std::vector<unsigned>& capacities);

// --- §7 replacement ablation: a grid of full machines ----------------------
//
// IHT victim policy x OS refill mode at 8 entries. FIFO, random and
// replace-half refill are not stack algorithms, so no profile gives their
// misses: one cell per (workload, machine), shape 1 + 1: u64 = {cycles},
// f64 = {IHT miss rate}. Machines: the baseline, then one per policy; the
// first is Table 1's CIC8 machine.
struct ReplacementPolicy {
  const char* name;
  cic::ReplacePolicy victim;
  os::RefillMode refill;
};
inline constexpr ReplacementPolicy kReplacementPolicies[] = {
    {"lru + demand fill", cic::ReplacePolicy::kLru, os::RefillMode::kSingleEntry},
    {"fifo + demand fill", cic::ReplacePolicy::kFifo, os::RefillMode::kSingleEntry},
    {"random + demand fill", cic::ReplacePolicy::kRandom, os::RefillMode::kSingleEntry},
    {"lru + replace-half (paper)", cic::ReplacePolicy::kLru,
     os::RefillMode::kReplaceHalfPrefetch},
    {"lru + replace-half backward", cic::ReplacePolicy::kLru,
     os::RefillMode::kReplaceHalfPrefetchBackward}};
exp::SweepSpec replacement_sweep(double scale = 1.0,
                                 cpu::Engine engine = cpu::Engine::kThreaded);
std::vector<VariantRow> replacement_rows(const exp::Cells& cells);

// --- §6.3 fault tables and the hash ablation: grids of whole campaigns ----
//
// One cell runs one campaign on sha (image seed 42) against a 16-entry IHT,
// shape 6 + 0: u64 = its six outcome counts in fault::Outcome order.

// Decodes a campaign grid of `campaigns` cells, one summary per cell.
std::vector<fault::CampaignSummary> campaign_rows(const exp::Cells& cells,
                                                  std::size_t campaigns);

// §6.3 fault tables, 120 trials at seed 2026 per campaign: single-bit faults
// at every site, monitor on then off (XOR HASHFU); then, per hash unit,
// single-word and paired fetch-bus faults. Single-word faults (any mask)
// always change a XOR fold, so every unit detects them; the discriminating
// pattern is the paired same-lane corruption of two words in one block,
// which aliases under plain XOR.
inline constexpr fault::FaultSite kFaultSites[] = {
    fault::FaultSite::kMemoryText, fault::FaultSite::kFetchBus,
    fault::FaultSite::kFetchBusPaired, fault::FaultSite::kICacheLine,
    fault::FaultSite::kPostIdLatch};
inline constexpr hash::HashKind kFaultHashes[] = {
    hash::HashKind::kXor,         hash::HashKind::kAdd,        hash::HashKind::kRotXor,
    hash::HashKind::kRotXorKeyed, hash::HashKind::kFletcher32, hash::HashKind::kCrc32};
inline constexpr std::pair<fault::FaultSite, unsigned> kStrengthColumns[] = {
    {fault::FaultSite::kFetchBus, 1},       {fault::FaultSite::kFetchBus, 4},
    {fault::FaultSite::kFetchBusPaired, 1}, {fault::FaultSite::kFetchBusPaired, 2},
    {fault::FaultSite::kFetchBusPaired, 4}};
exp::SweepSpec faults_sweep(double scale = 1.0, cpu::Engine engine = cpu::Engine::kThreaded);

// Hash ablation: every hash unit (key 0x5EED) against paired fetch-bus
// faults of each width, 100 trials at seed 7 (single-word faults change
// every unit's hash); the CLI adds the area and timing columns.
inline constexpr unsigned kAblationBits[] = {2, 4};
exp::SweepSpec hash_ablation_sweep(double scale = 1.0,
                                   cpu::Engine engine = cpu::Engine::kThreaded);

}  // namespace cicmon::sim
