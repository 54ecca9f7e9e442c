// Memory-subsystem tests: sparse memory, the I-cache, and the fetch path
// with its tamper hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "casm/builder.h"
#include "mem/fetch_path.h"
#include "mem/memory.h"

namespace cicmon::mem {
namespace {

TEST(Memory, ReadsOfUnbackedPagesAreZero) {
  Memory m;
  EXPECT_EQ(m.read32(0xDEAD0000), 0U);
  EXPECT_EQ(m.read8(0x12345678), 0U);
  EXPECT_EQ(m.pages_allocated(), 0U);
}

TEST(Memory, WidthRoundTrips) {
  Memory m;
  m.write32(0x1000, 0xA1B2C3D4);
  EXPECT_EQ(m.read32(0x1000), 0xA1B2C3D4U);
  EXPECT_EQ(m.read16(0x1000), 0xC3D4U);  // little-endian
  EXPECT_EQ(m.read16(0x1002), 0xA1B2U);
  EXPECT_EQ(m.read8(0x1003), 0xA1U);
  m.write8(0x1001, 0xFF);
  EXPECT_EQ(m.read32(0x1000), 0xA1B2FFD4U);
  m.write16(0x1002, 0x1122);
  EXPECT_EQ(m.read32(0x1000), 0x1122FFD4U);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  m.write32(0x0FFE, 0x11223344);  // straddles a 4 KiB page boundary
  EXPECT_EQ(m.read32(0x0FFE), 0x11223344U);
  EXPECT_EQ(m.pages_allocated(), 2U);
}

TEST(Memory, FlipBit) {
  Memory m;
  m.write32(0x2000, 0);
  m.flip_bit(0x2000, 5);
  EXPECT_EQ(m.read8(0x2000), 1U << 5);
  m.flip_bit(0x2000, 5);
  EXPECT_EQ(m.read8(0x2000), 0U);
}

TEST(Memory, LoadImagePlacesSections) {
  casm_::Asm a;
  a.data_symbol("d");
  a.data_word(0xCAFEF00D);
  a.nop();
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  Memory m;
  m.load_image(image);
  EXPECT_EQ(m.read32(image.text_base), image.text[0]);
  EXPECT_EQ(m.read32(image.data_base), 0xCAFEF00DU);
}

TEST(Memory, FreezeSharesImmutableBaseAcrossInstances) {
  Memory source;
  source.write32(0x1000, 0xA1B2C3D4);
  source.write32(0x5000, 0x11223344);
  const auto base = source.freeze();
  EXPECT_EQ(source.pages_allocated(), 0U);        // overlay empty after freeze
  EXPECT_EQ(source.read32(0x1000), 0xA1B2C3D4U);  // reads fall through to base

  Memory a;
  Memory b;
  a.set_base(base);
  b.set_base(base);
  EXPECT_EQ(a.read32(0x1000), 0xA1B2C3D4U);
  EXPECT_EQ(b.read32(0x5000), 0x11223344U);
  a.write32(0x1000, 0xDEADBEEF);  // copy-on-write into a's private overlay
  EXPECT_EQ(a.read32(0x1000), 0xDEADBEEFU);
  EXPECT_EQ(a.pages_allocated(), 1U);
  EXPECT_EQ(b.read32(0x1000), 0xA1B2C3D4U);  // b and the base are untouched
  EXPECT_EQ(b.pages_allocated(), 0U);
}

TEST(Memory, CowCopyRetargetsMruSlots) {
  // Regression: a read caches the *base* page in an MRU slot; the first
  // write to that page must retarget the slot along with the copy-on-write,
  // or the next access through it would read the stale immutable page.
  Memory source;
  source.write32(0x2000, 7);
  const auto base = source.freeze();
  Memory m;
  m.set_base(base);
  EXPECT_EQ(m.read32(0x2000), 7U);   // data MRU now points into the base
  EXPECT_EQ(m.fetch32(0x2000), 7U);  // fetch MRU too
  m.write32(0x2000, 9);
  EXPECT_EQ(m.read32(0x2000), 9U);
  EXPECT_EQ(m.fetch32(0x2000), 9U);
}

TEST(Memory, DeltaRoundTripRestoresCowState) {
  Memory source;
  source.write32(0x3000, 1);
  const auto base = source.freeze();
  Memory m;
  m.set_base(base);
  m.write32(0x3000, 2);
  m.write32(0x8000, 3);
  const Memory::PageMap delta = m.delta_pages();
  EXPECT_EQ(delta.size(), 2U);
  m.write32(0x3000, 100);  // diverge past the capture point
  m.write32(0xC000, 200);
  m.restore_pages(delta);
  EXPECT_EQ(m.read32(0x3000), 2U);
  EXPECT_EQ(m.read32(0x8000), 3U);
  EXPECT_EQ(m.read32(0xC000), 0U);  // the diverged page is gone
  EXPECT_EQ(m.pages_allocated(), 2U);
}

TEST(ICache, HitsAfterRefill) {
  ICacheConfig config;
  config.enabled = true;
  config.num_lines = 4;
  config.words_per_line = 4;
  ICache cache(config);
  auto refill = [](std::uint32_t address) { return address * 3; };

  const auto first = cache.access(0x100, refill);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.word, 0x100U * 3);
  const auto second = cache.access(0x104, refill);  // same line
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.word, 0x104U * 3);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
}

TEST(ICache, ConflictEviction) {
  ICacheConfig config;
  config.enabled = true;
  config.num_lines = 2;
  config.words_per_line = 4;
  ICache cache(config);
  auto refill = [](std::uint32_t address) { return address; };
  cache.access(0x000, refill);
  cache.access(0x040, refill);  // maps to the same line (2 lines x 16B)
  const auto again = cache.access(0x000, refill);
  EXPECT_FALSE(again.hit);
}

TEST(ICache, FlipResidentBitNeedsValidLine) {
  ICacheConfig config;
  config.enabled = true;
  ICache cache(config);
  support::Rng rng(3);
  EXPECT_FALSE(cache.flip_random_resident_bit(rng).has_value());  // nothing resident yet
  cache.access(0x80, [](std::uint32_t a) { return a + 1; });
  const std::optional<std::uint32_t> flipped = cache.flip_random_resident_bit(rng);
  ASSERT_TRUE(flipped.has_value());
  // The only resident line holds 0x80..0x8f; the flip reports one of its words.
  EXPECT_GE(*flipped, 0x80U);
  EXPECT_LT(*flipped, 0x90U);
  EXPECT_EQ(*flipped % 4, 0U);
}

TEST(ICache, LocateNamesTheSlotAnAccessFills) {
  // Fault campaigns date line fills from a fetch trace, without a cache,
  // through ICache::locate; word_address is its inverse.
  ICacheConfig config;
  config.enabled = true;
  config.num_lines = 8;
  for (const std::uint32_t address : {0x0U, 0x8U, 0x8CU, 0x1234U, 0x40000FFCU}) {
    ICache cache(config);
    cache.access(address, [](std::uint32_t a) { return a; });
    const ICache::Slot slot = ICache::locate(config, address);
    EXPECT_EQ(cache.valid_lines(), std::vector<std::uint32_t>{slot.line}) << address;
    EXPECT_EQ(cache.line(slot.line).tag, slot.tag) << address;
    EXPECT_EQ(cache.save_state().words[slot.line * config.words_per_line + slot.word], address)
        << address;
    EXPECT_EQ(ICache::word_address(config, slot), address) << address;
  }
}

TEST(ICache, ChooserDrawsWhatTheFlipFlips) {
  // Fault campaigns plan I-cache flips from the lines they know are valid,
  // without a cache. The pure chooser must draw exactly the line, word and
  // bit flip_random_resident_bit flips for the same seed, consuming the same
  // draws, whatever is resident: nothing, one line, or several (a line
  // refilled by a conflicting address keeps its index and takes the new tag).
  ICacheConfig config;
  config.enabled = true;
  config.num_lines = 8;
  const std::vector<std::vector<std::uint32_t>> residencies = {
      {}, {0x80}, {0x80, 0x400, 0x1230}, {0x0, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70},
      {0x20, 0xA0}};
  for (const std::vector<std::uint32_t>& addresses : residencies) {
    ICache cache(config);
    for (const std::uint32_t address : addresses) {
      cache.access(address, [](std::uint32_t a) { return a * 7; });
    }
    const std::vector<std::uint32_t> valid = cache.valid_lines();
    EXPECT_TRUE(std::is_sorted(valid.begin(), valid.end()));
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const std::string where = std::to_string(addresses.size()) + " filled, seed " +
                                std::to_string(seed);
      support::Rng planned_rng(seed);
      const std::optional<ICache::Flip> planned =
          ICache::choose_flip(valid, config.words_per_line, planned_rng);
      ICache flipped_cache = cache;
      support::Rng flip_rng(seed);
      const std::optional<std::uint32_t> flipped =
          flipped_cache.flip_random_resident_bit(flip_rng);
      EXPECT_EQ(planned_rng.next_u64(), flip_rng.next_u64()) << where;
      ASSERT_EQ(planned.has_value(), !addresses.empty()) << where;
      ASSERT_EQ(flipped.has_value(), planned.has_value()) << where;
      if (!planned.has_value()) continue;
      // The one word that differs, and its one differing bit, are the plan's.
      const ICache::State before = cache.save_state();
      const ICache::State after = flipped_cache.save_state();
      EXPECT_TRUE(before.lines[planned->line].valid) << where;
      const std::size_t word = planned->line * config.words_per_line + planned->word;
      for (std::size_t w = 0; w < before.words.size(); ++w) {
        EXPECT_EQ(before.words[w] ^ after.words[w], w == word ? 1U << planned->bit : 0U)
            << where << ", word " << w;
      }
      const std::uint32_t line =
          before.lines[planned->line].tag * config.num_lines + planned->line;
      EXPECT_EQ(*flipped, (line * config.words_per_line + planned->word) * 4) << where;
      // apply_flip is the other half: it flips the same bit on a copy.
      ICache applied = cache;
      EXPECT_EQ(applied.apply_flip(*planned), *flipped) << where;
      EXPECT_TRUE(applied.save_state() == after) << where;
    }
  }
}

class CountingTamper : public BusTamper {
 public:
  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    ++transfers;
    return word ^ mask;
  }
  std::uint32_t mask = 0;
  unsigned transfers = 0;
};

TEST(FetchPath, ReadsThroughMemory) {
  Memory m;
  m.write32(0x00400000, 0x12345678);
  FetchPath path(&m);
  EXPECT_EQ(path.fetch(0x00400000), 0x12345678U);
  EXPECT_EQ(path.take_stall_cycles(), 0U);  // no cache -> no refill stalls
}

TEST(FetchPath, BusTamperAppliesToTransfers) {
  Memory m;
  m.write32(0x00400000, 0xF0F0F0F0);
  FetchPath path(&m);
  CountingTamper tamper;
  tamper.mask = 0x1;
  path.set_bus_tamper(&tamper);
  EXPECT_EQ(path.fetch(0x00400000), 0xF0F0F0F1U);
  EXPECT_EQ(tamper.transfers, 1U);
}

TEST(FetchPath, CachedWordBypassesBusAfterRefill) {
  // The paper's location argument: corruption in a cached copy is invisible
  // to the bus and vice versa, so the fetch path must model residency.
  Memory m;
  m.write32(0x00400000, 0xAAAAAAAA);
  ICacheConfig config;
  config.enabled = true;
  config.words_per_line = 4;
  config.miss_penalty = 4;
  FetchPath path(&m, config);
  CountingTamper tamper;
  path.set_bus_tamper(&tamper);

  EXPECT_EQ(path.fetch(0x00400000), 0xAAAAAAAAU);
  const unsigned transfers_after_miss = tamper.transfers;
  EXPECT_EQ(transfers_after_miss, 4U);  // one per word in the line
  EXPECT_GT(path.take_stall_cycles(), 0U);

  // Hit: no new bus transfer, and memory changes are not observed.
  m.write32(0x00400000, 0xBBBBBBBB);
  EXPECT_EQ(path.fetch(0x00400000), 0xAAAAAAAAU);
  EXPECT_EQ(tamper.transfers, transfers_after_miss);
  EXPECT_EQ(path.take_stall_cycles(), 0U);
}

TEST(FetchPath, ResidentBitFlipObservedOnHit) {
  Memory m;
  ICacheConfig config;
  config.enabled = true;
  FetchPath path(&m, config);
  path.fetch(0x00400000);  // memory is zero: the whole line caches as zeros
  support::Rng rng(1);
  const std::optional<std::uint32_t> flipped = path.icache()->flip_random_resident_bit(rng);
  ASSERT_TRUE(flipped.has_value());
  // The flip landed somewhere in the (only) resident line; scanning its four
  // words must observe exactly one corrupted word, the one it reported.
  unsigned corrupted = 0;
  for (std::uint32_t offset = 0; offset < 16; offset += 4) {
    const bool bad = path.fetch(0x00400000 + offset) != 0;
    corrupted += bad ? 1 : 0;
    EXPECT_EQ(bad, 0x00400000 + offset == *flipped) << offset;
  }
  EXPECT_EQ(corrupted, 1U);
}

}  // namespace
}  // namespace cicmon::mem
