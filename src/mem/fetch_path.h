// Instruction fetch path: memory -> bus -> (optional) I-cache -> pipeline.
//
// The paper's location argument (§3.2) is that checking must happen as late
// as possible — after the bus and the I-cache — so alterations anywhere on
// this path are caught. The fetch path is therefore modeled explicitly, with
// a tamper hook on the bus transfer and bit-flip access into cache-resident
// lines, so the fault campaigns can attack each location separately.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mem/memory.h"
#include "support/rng.h"

namespace cicmon::mem {

// Corruption hook applied to every word crossing the memory->processor bus.
class BusTamper {
 public:
  virtual ~BusTamper() = default;
  virtual std::uint32_t on_transfer(std::uint32_t address, std::uint32_t word) = 0;
};

struct ICacheConfig {
  bool enabled = false;
  unsigned num_lines = 64;        // direct-mapped
  unsigned words_per_line = 4;    // 16-byte lines
  unsigned miss_penalty = 4;      // cycles charged per refill
};

// Direct-mapped instruction cache. Kept deliberately simple: the paper's
// evaluation does not model cache timing, but the *existence* of a cached
// copy matters for the fault-location study.
class ICache {
 public:
  explicit ICache(const ICacheConfig& config);

  struct Access {
    std::uint32_t word = 0;
    bool hit = false;
  };

  // Where a word sits in a direct-mapped cache: the index of its line, the
  // tag that line holds while it caches the word, and the word of the line.
  struct Slot {
    std::uint32_t line = 0;
    std::uint32_t tag = 0;
    std::uint32_t word = 0;
  };
  // The slot of the word at `address` in a cache of `config`'s geometry.
  static Slot locate(const ICacheConfig& config, std::uint32_t address) {
    const std::uint32_t memory_line = address / (config.words_per_line * 4);
    return {memory_line % config.num_lines, memory_line / config.num_lines,
            address / 4 % config.words_per_line};
  }
  // The inverse: the address of the word at `slot`.
  static std::uint32_t word_address(const ICacheConfig& config, const Slot& slot) {
    return ((slot.tag * config.num_lines + slot.line) * config.words_per_line + slot.word) * 4;
  }

  // Returns the cached word; on miss, refills through `refill` (one call per
  // word in the line, in address order).
  template <typename RefillFn>
  Access access(std::uint32_t address, RefillFn&& refill) {
    const Slot slot = locate(config_, address);
    Line& line = lines_[slot.line];
    std::uint32_t* words = line_words(slot.line);
    Access out;
    if (!line.valid || line.tag != slot.tag) {
      const std::uint32_t base = address & ~(line_bytes_ - 1);
      for (unsigned w = 0; w < config_.words_per_line; ++w) {
        words[w] = refill(base + w * 4);
      }
      line.valid = true;
      line.tag = slot.tag;
      ++misses_;
    } else {
      out.hit = true;
      ++hits_;
    }
    out.word = words[slot.word];
    return out;
  }

  // One cache-resident bit flip: a line index, a word of that line and a
  // bit of that word.
  struct Flip {
    std::uint32_t line = 0;
    std::uint32_t word = 0;
    unsigned bit = 0;
    bool operator==(const Flip&) const = default;
  };

  // Draws a random bit of a random valid line: the line from `valid_lines`
  // (valid line indices, ascending), then the word and the bit. Pure: the
  // caller says which lines are valid, so the same draw can be planned
  // without a cache. Nullopt, drawing nothing, when no line is valid.
  static std::optional<Flip> choose_flip(std::span<const std::uint32_t> valid_lines,
                                         unsigned words_per_line, support::Rng& rng);
  // The valid line indices, ascending.
  std::vector<std::uint32_t> valid_lines() const;
  // XORs `flip` into its (valid) line and returns the address of the word
  // it flipped.
  std::uint32_t apply_flip(const Flip& flip);
  // choose_flip over valid_lines(), then apply_flip: a cache-resident fault.
  // Nullopt, flipping nothing, if no line is valid yet.
  std::optional<std::uint32_t> flip_random_resident_bit(support::Rng& rng);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  struct Line {
    bool valid = false;
    std::uint32_t tag = 0;
    bool operator==(const Line&) const = default;
  };
  const Line& line(std::uint32_t index) const { return lines_[index]; }

  // Complete mutable cache state, for simulator snapshots. Geometry is
  // configuration, not state: save/restore assume an identically configured
  // cache on both sides.
  struct State {
    std::vector<Line> lines;
    std::vector<std::uint32_t> words;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    bool operator==(const State&) const = default;
  };
  State save_state() const { return {lines_, words_, hits_, misses_}; }
  void restore_state(const State& s);
  // save_state() == s without copying the line storage.
  bool matches_state(const State& s) const {
    return hits_ == s.hits && misses_ == s.misses && lines_ == s.lines && words_ == s.words;
  }

 private:

  // Line payloads live in one contiguous buffer (words_per_line words per
  // line) so a fetch hit costs no per-line heap indirection.
  std::uint32_t* line_words(std::uint32_t line_index) {
    return words_.data() + static_cast<std::size_t>(line_index) * config_.words_per_line;
  }

  ICacheConfig config_;
  std::uint32_t line_bytes_;
  std::vector<Line> lines_;
  std::vector<std::uint32_t> words_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// The complete fetch path the pipeline's IMAU reads through.
class FetchPath {
 public:
  FetchPath(Memory* memory, const ICacheConfig& icache_config = {});

  // Fetches an instruction word, applying bus tamper and cache effects.
  // Inline: this runs once per dynamic instruction, and on the common path
  // (no I-cache, no tamper hook) it folds into a bare Memory::read32.
  std::uint32_t fetch(std::uint32_t address) {
    if (!icache_enabled_) return bus_read(address);
    const ICache::Access access =
        icache_.access(address, [this](std::uint32_t a) { return bus_read(a); });
    if (!access.hit) pending_stall_cycles_ += miss_penalty_;
    return access.word;
  }

  void set_bus_tamper(BusTamper* tamper) { tamper_ = tamper; }
  ICache* icache() { return icache_enabled_ ? &icache_ : nullptr; }
  const ICache* icache() const { return icache_enabled_ ? &icache_ : nullptr; }

  // Extra cycles accrued by cache misses since the last call.
  std::uint64_t take_stall_cycles() {
    const std::uint64_t cycles = pending_stall_cycles_;
    pending_stall_cycles_ = 0;
    return cycles;
  }

  // Words that have crossed the memory->processor bus so far. Snapshots
  // record this so a restored trial can re-arm a transfer-counting bus
  // tamper relative to where the golden run already was.
  std::uint64_t bus_transfers() const { return bus_transfers_; }
  void set_bus_transfers(std::uint64_t n) { bus_transfers_ = n; }

  std::uint64_t pending_stall_cycles() const { return pending_stall_cycles_; }
  void set_pending_stall_cycles(std::uint64_t cycles) { pending_stall_cycles_ = cycles; }

 private:
  std::uint32_t bus_read(std::uint32_t address) {
    ++bus_transfers_;
    std::uint32_t word = memory_->fetch32(address);
    if (tamper_ != nullptr) word = tamper_->on_transfer(address, word);
    return word;
  }

  Memory* memory_;
  BusTamper* tamper_ = nullptr;
  bool icache_enabled_;
  ICache icache_;
  unsigned miss_penalty_;
  std::uint64_t pending_stall_cycles_ = 0;
  std::uint64_t bus_transfers_ = 0;
};

}  // namespace cicmon::mem
