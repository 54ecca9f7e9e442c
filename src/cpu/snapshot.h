// Golden-run snapshots and the shared post-loader image.
//
// Fault campaigns run one clean (golden) execution and thousands of faulty
// re-executions of the same binary. Two artifacts make the re-executions
// cheap:
//
//  * LoadedImage — everything loading produces, computed once and shared
//    read-only by every trial Cpu: the post-loader memory frozen into an
//    immutable copy-on-write page base, the (monitoring-embedded) uop spec,
//    and the recovered FHT. A trial Cpu built from it skips the loader and
//    the loader's whole-text hash computation.
//
//  * Snapshot — the complete determinism surface of a running Cpu at an
//    instruction boundary: architectural registers and special latches, the
//    accumulated RunResult (console, instruction/cycle/stall counters),
//    pipeline hazard state, monitor state (IHT entries + stats + clocks +
//    replacement RNG, latched lookup key, OS stats), I-cache lines, the
//    fetch-bus transfer count, and memory as a page delta against the
//    LoadedImage base. Restoring one and resuming is bit-identical to having
//    executed from instruction 0.
//
// Deliberately NOT in a snapshot: the predecode cache and the block
// translation cache. Both are tamper-safe (every entry is tagged by the raw
// fetched word, so any divergence misses and re-decodes), which makes a cold
// cache semantically identical to a warm one — the existing engine A/B tests
// enforce exactly that property. Each Cpu owns both; a pooled campaign trial
// machine keeps them warm from one restored trial to the next.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "casm/image.h"
#include "cfg/fht.h"
#include "cpu/cpu.h"
#include "mem/fetch_path.h"
#include "mem/memory.h"
#include "uop/uop.h"

namespace cicmon::cpu {

struct LoadedImage {
  std::shared_ptr<const mem::Memory::PageMap> pages;  // frozen post-loader memory
  std::shared_ptr<const uop::IsaUopSpec> spec;        // monitoring-embedded when configured
  cfg::FullHashTable fht;                             // empty when monitoring is off
  bool fht_was_attached = false;
  std::uint32_t entry = 0;
  // Optional, attached by a campaign: build_fused_table(*spec), shared by
  // every trial's Cpu instead of rebuilt per Cpu.
  std::shared_ptr<const uop::FusedTable> fused;
};

// Runs the loader once for `config`/`image`: builds the uop spec (embedding
// the §5 monitoring pass when config.monitoring), loads text + data, recovers
// or computes the FHT, and freezes the memory into a shared page base.
LoadedImage preload_image(const CpuConfig& config, const casm_::Image& image);

struct Snapshot {
  std::uint64_t instructions = 0;   // == result.instructions, hoisted for search
  std::uint64_t bus_transfers = 0;  // words fetched over the bus so far

  std::array<std::uint32_t, isa::kNumGpr> gpr{};
  std::array<std::uint32_t, 7> special{};  // CPC/PPC/IREG/STA/RHASH/HI/LO
  RunResult result;                        // includes console-so-far

  // Inter-instruction pipeline/hazard state.
  bool pc_redirected = false;
  std::optional<std::uint8_t> pending_exc;
  std::uint64_t hilo_ready_cycle = 0;
  unsigned prev_load_dst = 0;

  // Monitor state (engaged iff the Cpu is monitored).
  std::optional<cic::CheckerState> checker;
  std::optional<os::OsMonitorStats> os_stats;

  // Fetch-path state (icache engaged iff configured).
  std::optional<mem::ICache::State> icache;
  std::uint64_t pending_stall_cycles = 0;

  // Pages touched since the LoadedImage base (copy-on-write overlay).
  mem::Memory::PageMap memory_delta;
};

}  // namespace cicmon::cpu
