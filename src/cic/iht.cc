#include "cic/iht.h"

#include <algorithm>
#include <limits>

#include "support/error.h"

namespace cicmon::cic {

std::string_view replace_policy_name(ReplacePolicy policy) {
  switch (policy) {
    case ReplacePolicy::kLru: return "lru";
    case ReplacePolicy::kFifo: return "fifo";
    case ReplacePolicy::kRandom: return "random";
  }
  return "?";
}

Iht::Iht(unsigned num_entries, ReplacePolicy policy, std::uint64_t rng_seed)
    : entries_(num_entries), policy_(policy), rng_(rng_seed) {
  support::check(num_entries >= 1, "IHT must have at least one entry");
}

void Iht::fill(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
  ++fill_clock_;
  // Overwrite an existing record for the same range, if any.
  for (IhtEntry& entry : entries_) {
    if (entry.valid && entry.start == start && entry.end == end) {
      entry.hash = hash;
      entry.fill_order = fill_clock_;
      return;
    }
  }
  const std::size_t slot = victim_index();
  entries_[slot] =
      IhtEntry{start, end, hash, true, /*last_use=*/use_clock_, /*fill_order=*/fill_clock_};
}

std::size_t Iht::victim_index() {
  // Prefer an invalid slot.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) return i;
  }
  switch (policy_) {
    case ReplacePolicy::kLru: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_use < entries_[best].last_use) best = i;
      }
      return best;
    }
    case ReplacePolicy::kFifo: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].fill_order < entries_[best].fill_order) best = i;
      }
      return best;
    }
    case ReplacePolicy::kRandom:
      return static_cast<std::size_t>(rng_.below(entries_.size()));
  }
  return 0;
}

unsigned Iht::invalidate_victims(unsigned count) {
  unsigned invalidated = 0;
  for (; invalidated < count && valid_entries() > 0; ++invalidated) {
    // victim_index() never returns an invalid slot here because at least one
    // valid entry remains only if all slots are valid — otherwise we stop
    // invalidating early below.
    std::size_t victim = entries_.size();
    switch (policy_) {
      case ReplacePolicy::kLru: {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].valid && entries_[i].last_use < best) {
            best = entries_[i].last_use;
            victim = i;
          }
        }
        break;
      }
      case ReplacePolicy::kFifo: {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].valid && entries_[i].fill_order < best) {
            best = entries_[i].fill_order;
            victim = i;
          }
        }
        break;
      }
      case ReplacePolicy::kRandom: {
        // Uniform among valid entries.
        const unsigned valid = valid_entries();
        std::uint64_t pick = rng_.below(valid);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (!entries_[i].valid) continue;
          if (pick == 0) {
            victim = i;
            break;
          }
          --pick;
        }
        break;
      }
    }
    if (victim == entries_.size()) break;
    entries_[victim].valid = false;
  }
  return invalidated;
}

void Iht::restore_state(const IhtState& s) {
  support::check(s.entries.size() == entries_.size(),
                 "Iht::restore_state: capacity mismatch");
  entries_ = s.entries;
  stats_ = s.stats;
  use_clock_ = s.use_clock;
  fill_clock_ = s.fill_clock;
  rng_.set_state(s.rng);
}

unsigned Iht::valid_entries() const {
  unsigned count = 0;
  for (const IhtEntry& entry : entries_) count += entry.valid ? 1U : 0U;
  return count;
}

}  // namespace cicmon::cic
