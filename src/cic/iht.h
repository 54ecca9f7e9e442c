// Internal Hash Table (IHTbb) — the on-chip CAM of expected-hash tuples.
//
// Each entry is the paper's (Addst, Addend, Hash) tuple. A lookup presents
// (start, end, hash): the CAM matches on the address pair and compares the
// hash, producing the two wires of Figure 4 — `found` (an entry with this
// address range exists) and `match` (its hash equals the dynamic hash).
//
// The table also carries the bookkeeping the OS refill handler needs:
// per-entry last-use stamps (for LRU-family victim selection) and fill
// order (for FIFO). Victim *selection* lives here because the hardware
// implements it (§3.3: "specific hardwares are designed to implement the
// replacement policy"); the *refill decision* — which FHT records to load —
// is OS policy and lives in src/os.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "support/rng.h"
#include "uop/interp.h"

namespace cicmon::cic {

// Victim-selection policy for refills when the table is full.
enum class ReplacePolicy : std::uint8_t {
  kLru,     // evict least-recently matched entries
  kFifo,    // evict oldest-filled entries
  kRandom,  // evict uniformly random valid entries
};

std::string_view replace_policy_name(ReplacePolicy policy);

struct IhtEntry {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  std::uint32_t hash = 0;
  bool valid = false;
  std::uint64_t last_use = 0;   // lookup stamp of the last address match
  std::uint64_t fill_order = 0; // monotone fill counter

  bool operator==(const IhtEntry&) const = default;
};

struct IhtStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        // found && match
  std::uint64_t misses = 0;      // !found
  std::uint64_t mismatches = 0;  // found && !match

  double miss_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(lookups);
  }

  bool operator==(const IhtStats&) const = default;
};

// Complete mutable IHT state, for simulator snapshots: entries, statistics,
// the LRU/FIFO clocks, and the random-replacement RNG mid-stream. Capacity
// and policy are configuration, assumed identical on both sides.
struct IhtState {
  std::vector<IhtEntry> entries;
  IhtStats stats;
  std::uint64_t use_clock = 0;
  std::uint64_t fill_clock = 0;
  support::Rng::State rng;

  bool operator==(const IhtState&) const = default;
};

class Iht {
 public:
  // `num_entries` >= 1 (the paper evaluates 1/8/16/32).
  Iht(unsigned num_entries, ReplacePolicy policy, std::uint64_t rng_seed = 1);

  // The hardware lookup of Figure 4. Updates statistics and, on an address
  // match, the entry's LRU stamp. Inline: the monitored pipeline probes the
  // CAM once per executed basic block.
  uop::IhtLookupResult lookup(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
    ++stats_.lookups;
    ++use_clock_;
    for (IhtEntry& entry : entries_) {
      if (!entry.valid || entry.start != start || entry.end != end) continue;
      entry.last_use = use_clock_;
      if (entry.hash == hash) {
        ++stats_.hits;
        return {true, true};
      }
      ++stats_.mismatches;
      return {true, false};
    }
    ++stats_.misses;
    return {false, false};
  }

  // Fills an entry with an expected-hash record. If a (start, end) entry
  // already exists it is overwritten in place; otherwise an invalid slot is
  // used, or a victim chosen by the replacement policy.
  void fill(std::uint32_t start, std::uint32_t end, std::uint32_t hash);

  // Invalidates the `count` best victims under the policy (the OS "replace
  // half of the entries" step). Returns the number actually invalidated.
  unsigned invalidate_victims(unsigned count);

  unsigned num_entries() const { return static_cast<unsigned>(entries_.size()); }
  unsigned valid_entries() const;
  const std::vector<IhtEntry>& entries() const { return entries_; }
  const IhtStats& stats() const { return stats_; }

  IhtState save_state() const { return {entries_, stats_, use_clock_, fill_clock_, rng_.state()}; }
  void restore_state(const IhtState& s);
  // save_state() == s without copying the entries (scalars compared first).
  bool matches_state(const IhtState& s) const {
    return use_clock_ == s.use_clock && fill_clock_ == s.fill_clock && stats_ == s.stats &&
           rng_.state() == s.rng && entries_ == s.entries;
  }

 private:
  std::size_t victim_index();

  std::vector<IhtEntry> entries_;
  ReplacePolicy policy_;
  support::Rng rng_;
  IhtStats stats_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t fill_clock_ = 0;
};

}  // namespace cicmon::cic
