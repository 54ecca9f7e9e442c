// Code Integrity Checker tests: IHT lookup semantics, replacement policies,
// statistics, and the checker device.
#include <gtest/gtest.h>

#include "cic/checker.h"
#include "cic/iht.h"
#include "support/error.h"

namespace cicmon::cic {
namespace {

TEST(Iht, HitMissMismatchTaxonomy) {
  Iht iht(4, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 0xAAAA);

  const auto hit = iht.lookup(0x100, 0x10C, 0xAAAA);
  EXPECT_TRUE(hit.found);
  EXPECT_TRUE(hit.match);

  const auto mismatch = iht.lookup(0x100, 0x10C, 0xBBBB);
  EXPECT_TRUE(mismatch.found);
  EXPECT_FALSE(mismatch.match);

  const auto miss = iht.lookup(0x200, 0x20C, 0xAAAA);
  EXPECT_FALSE(miss.found);
  EXPECT_FALSE(miss.match);

  EXPECT_EQ(iht.stats().lookups, 3U);
  EXPECT_EQ(iht.stats().hits, 1U);
  EXPECT_EQ(iht.stats().mismatches, 1U);
  EXPECT_EQ(iht.stats().misses, 1U);
  EXPECT_DOUBLE_EQ(iht.stats().miss_rate(), 1.0 / 3.0);
}

TEST(Iht, MatchRequiresBothAddresses) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  EXPECT_FALSE(iht.lookup(0x100, 0x110, 1).found);  // same start, other end
  EXPECT_FALSE(iht.lookup(0x104, 0x10C, 1).found);  // other start, same end
}

TEST(Iht, FillOverwritesSameRange) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x100, 0x10C, 2);
  EXPECT_EQ(iht.valid_entries(), 1U);
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 2).match);
}

TEST(Iht, LruVictimIsLeastRecentlyMatched) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x200, 0x20C, 2);
  iht.lookup(0x100, 0x10C, 1);      // touch the first entry
  iht.fill(0x300, 0x30C, 3);        // must evict 0x200
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 1).found);
  EXPECT_FALSE(iht.lookup(0x200, 0x20C, 2).found);
  EXPECT_TRUE(iht.lookup(0x300, 0x30C, 3).found);
}

TEST(Iht, FifoVictimIsOldestFill) {
  Iht iht(2, ReplacePolicy::kFifo);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x200, 0x20C, 2);
  iht.lookup(0x100, 0x10C, 1);  // touching must NOT matter for FIFO
  iht.fill(0x300, 0x30C, 3);    // evicts 0x100 (oldest fill)
  EXPECT_FALSE(iht.lookup(0x100, 0x10C, 1).found);
  EXPECT_TRUE(iht.lookup(0x200, 0x20C, 2).found);
}

TEST(Iht, RandomPolicyIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Iht iht(4, ReplacePolicy::kRandom, seed);
    for (std::uint32_t i = 0; i < 16; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
    std::vector<std::uint32_t> survivors;
    for (const IhtEntry& e : iht.entries()) survivors.push_back(e.start);
    return survivors;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(Iht, InvalidateVictimsRespectsCount) {
  Iht iht(8, ReplacePolicy::kLru);
  for (std::uint32_t i = 0; i < 8; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
  EXPECT_EQ(iht.invalidate_victims(4), 4U);
  EXPECT_EQ(iht.valid_entries(), 4U);
  EXPECT_EQ(iht.invalidate_victims(100), 4U);  // stops at empty
  EXPECT_EQ(iht.valid_entries(), 0U);
}

TEST(Iht, InvalidateVictimsPrefersLru) {
  Iht iht(4, ReplacePolicy::kLru);
  for (std::uint32_t i = 0; i < 4; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
  iht.lookup(0x00, 0x08, 0);  // make entry 0 the most recent
  iht.invalidate_victims(3);
  EXPECT_EQ(iht.valid_entries(), 1U);
  EXPECT_TRUE(iht.lookup(0x00, 0x08, 0).found);
}

TEST(Iht, SingleEntryTableWorks) {
  Iht iht(1, ReplacePolicy::kLru);
  iht.fill(0x100, 0x108, 1);
  EXPECT_TRUE(iht.lookup(0x100, 0x108, 1).match);
  iht.fill(0x200, 0x208, 2);  // replaces the only slot
  EXPECT_FALSE(iht.lookup(0x100, 0x108, 1).found);
}

TEST(Iht, ZeroEntriesRejected) {
  EXPECT_THROW(Iht(0, ReplacePolicy::kLru), support::CicError);
}

TEST(PolicyNames, AllNamed) {
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kLru), "lru");
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kFifo), "fifo");
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kRandom), "random");
}

TEST(Checker, ForwardsToConfiguredHash) {
  CicConfig config;
  config.hash_kind = hash::HashKind::kXor;
  CodeIntegrityChecker cic(config);
  EXPECT_EQ(cic.hash_step(0xF0F0, 0x0F0F), 0xFFFFU);
  EXPECT_EQ(cic.rhash_init(), 0U);
}

TEST(Checker, KeyedHashUsesProcessKey) {
  CicConfig config;
  config.hash_kind = hash::HashKind::kRotXorKeyed;
  config.hash_key = 0xDEAD;
  CodeIntegrityChecker cic(config);
  EXPECT_EQ(cic.rhash_init(), 0xDEADU);
}

TEST(Checker, LatchesLastLookupKeyForTheOs) {
  CicConfig config;
  CodeIntegrityChecker cic(config);
  cic.lookup(0x111, 0x222, 0x333);
  EXPECT_EQ(cic.last_lookup().start, 0x111U);
  EXPECT_EQ(cic.last_lookup().end, 0x222U);
  EXPECT_EQ(cic.last_lookup().hash, 0x333U);
}

TEST(Checker, StatsFlowThroughToIht) {
  CicConfig config;
  config.iht_entries = 2;
  CodeIntegrityChecker cic(config);
  cic.lookup(1, 2, 3);
  EXPECT_EQ(cic.iht().stats().misses, 1U);
}

}  // namespace
}  // namespace cicmon::cic
