// Block-level translation cache for the threaded execution engine.
//
// A translated block is a straight-line run of fused entries starting at a
// text address and ending at the first block terminator (flow control,
// syscall, illegal/unmatched program) or at the text end / length cap. Each
// entry is tagged with the word it was translated from — the same tamper-safe
// keying as the per-word predecode cache. Translation peeks words straight
// from memory (no bus, no I-cache, no hash: translation must be free of
// architectural side effects); at execution time every dynamic instruction
// still goes through the real fetch path, and the engine compares the fetched
// (and possibly tampered) word against the entry tag. Any divergence — bus
// tamper, cache-resident flip, memory rewrite, post-ID latch fault — misses
// the tag and executes that one instruction through the interpreter on the
// word the pipeline actually carries. A rewritten text word (memory no longer
// equals the tag) also drops the whole cache at once. Each Cpu owns its
// cache; a pooled campaign trial machine keeps it warm across its trials.
//
// Superblock chaining: a block whose terminator has statically known
// successors (direct branches: taken target and fall-through; jumps: target;
// generic straight-line tails: fall-through) records those edge addresses at
// translation time. Once both blocks exist in the cache, the engine links
// them (`chain`) and later executions flow straight from the terminator into
// the successor without a dispatch-loop round trip or a cache lookup. The
// invariant: a link joins two live blocks of one cache, the target at the
// verified edge address, and blocks only ever die all together — so no link
// outlives its target. Indirect edges (jump-register, syscall, illegal)
// always return to the dispatch loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.h"
#include "support/error.h"
#include "uop/threaded.h"
#include "uop/uop.h"

namespace cicmon::uop {

// Translated blocks never exceed this many entries; a longer straight-line
// run is split (the forced last entry executes through the interpreter and
// the next block picks up at the following word).
inline constexpr std::size_t kMaxBlockEntries = 64;

// One translated instruction: the fused shape with operands resolved against
// the decoded word and immediates/targets precomputed against the address.
struct TransEntry {
  std::uint32_t addr = 0;
  std::uint32_t word = 0;  // tag: the word this entry was translated from
  FusedKind kind = FusedKind::kGeneric;
  AluOp alu = AluOp::kAdd;
  MulDivOp muldiv = MulDivOp::kMult;
  MemWidth width = MemWidth::kWord;
  bool sign_extend = false;
  bool link = false;
  std::uint8_t a = 0;     // resolved GPR indices
  std::uint8_t b = 0;
  std::uint8_t dst = 0;
  std::uint8_t hilo = 0;  // SpecialReg index for kHiLoRead / kHiLoWrite
  std::uint32_t imm = 0;  // immediate / branch target / jump target / lui value
  // Hazard metadata, precomputed so the retire path never re-inspects the
  // decoded instruction (mirrors Cpu::account_hazards bit for bit):
  std::uint8_t early_a = 0;     // GPRs consumed in ID/EX (0 = none) — the
  std::uint8_t early_b = 0;     //   load-use comparison targets
  std::uint8_t load_dst = 0;    // rt when this is a load, else 0
  std::uint8_t muldiv_lat = 0;  // 0 = not muldiv, 1 = mult latency, 2 = div latency
  bool is_mfhilo = false;       // mfhi/mflo: stalls until HI/LO is ready
  isa::Instruction instr;            // for the interpreter fallback
  const InstrUops* program = nullptr;  // interpreter program (kGeneric, tamper)
};

struct TranslatedBlock {
  std::uint32_t start = 0;
  std::vector<TransEntry> entries;
  // Entries before the terminator (= entries.size() - 1): the straight-line
  // run whose per-instruction retire/cycle contribution is statically known,
  // the basis of the engine's per-block batched accounting.
  std::uint32_t straight_len = 0;
  // Statically resolved successor edges of the terminator. `has_*` marks an
  // edge whose target is a valid text address; `*_target` is that address.
  // `taken`/`fall` are the chain links — null until `chain` verifies and
  // installs them; they live and die with the cache that owns both blocks.
  bool has_taken = false;
  bool has_fall = false;
  std::uint32_t taken_target = 0;
  std::uint32_t fall_target = 0;
  const TranslatedBlock* taken = nullptr;
  const TranslatedBlock* fall = nullptr;
};

// Translates one word at `addr`: decode, fused-table lookup, operand
// resolution, immediate precomputation.
TransEntry make_entry(std::uint32_t addr, std::uint32_t word, const IsaUopSpec& spec,
                      const FusedTable& fused);

class TranslationCache {
 public:
  struct Stats {
    std::uint64_t translations = 0;  // blocks translated
  };

  // The cache always caches; `cache` must be true. The parameter stays
  // because perfbench/layers.cc constructs TranslationCache(base, end, true).
  TranslationCache(std::uint32_t text_base, std::uint32_t text_end, bool cache)
      : text_base_(text_base), text_end_(text_end), slots_((text_end - text_base) / 4) {
    support::check(cache, "TranslationCache has no uncached mode");
  }

  // Returns the cached block starting at `addr`, or nullptr.
  const TranslatedBlock* lookup(std::uint32_t addr) const { return slots_[index(addr)].get(); }

  // Translates the block starting at `addr`, reading text words through
  // `peek` (which must be free of architectural side effects), caches it and
  // returns it. `addr` must be a valid text address with no cached block.
  template <typename PeekFn>
  const TranslatedBlock* translate(std::uint32_t addr, const IsaUopSpec& spec,
                                   const FusedTable& fused, PeekFn&& peek) {
    auto& slot = slots_[index(addr)];
    support::check(slot == nullptr, "TranslationCache: block start already translated");
    TranslatedBlock block;
    block.start = addr;
    for (std::uint32_t a = addr;; a += 4) {
      block.entries.push_back(make_entry(a, peek(a), spec, fused));
      if (is_block_terminator(block.entries.back().kind)) break;
      if (a + 4 >= text_end_ || block.entries.size() >= kMaxBlockEntries) {
        // Force-terminate: the final entry runs through the interpreter,
        // which retires it and hands control back to the block loop.
        block.entries.back().kind = FusedKind::kGeneric;
        break;
      }
    }
    block.straight_len = static_cast<std::uint32_t>(block.entries.size() - 1);
    ++stats_.translations;
    resolve_edges(&block);
    slot = std::make_unique<TranslatedBlock>(std::move(block));
    return slot.get();
  }

  // Links `from`'s taken or fall-through edge to `to` when both are live
  // blocks of this cache (of the same text range) and the edge exists, is
  // unlinked and targets `to`'s start; anything else gets no link.
  void chain(const TranslatedBlock* from, bool taken_edge, const TranslatedBlock* to);

  void clear() {  // drops every block at once
    for (auto& slot : slots_) slot.reset();
  }

  const Stats& stats() const { return stats_; }

 private:
  std::size_t index(std::uint32_t addr) const { return (addr - text_base_) / 4; }

  // Computes the terminator's static successor edges (translate-time).
  void resolve_edges(TranslatedBlock* block) const;

  std::uint32_t text_base_;
  std::uint32_t text_end_;
  std::vector<std::unique_ptr<TranslatedBlock>> slots_;
  Stats stats_;
};

}  // namespace cicmon::uop
