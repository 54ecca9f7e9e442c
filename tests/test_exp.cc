// Tests for the unified sweep engine: shard partitioning, packed cells,
// cicmon-shard-v2 artifacts, byte-identical merge, and resume semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cfg/fht.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "support/stats.h"
#include "workloads/workloads.h"

namespace cicmon::exp {
namespace {

// A cheap deterministic grid: cell i -> u64 {i, i*i}, f64 {1/(i+1)}.
SweepSpec synthetic_sweep(std::size_t cells, std::atomic<unsigned>* runs = nullptr) {
  SweepSpec spec;
  spec.sweep = "synthetic";
  spec.params = {{"cells", std::to_string(cells)}};
  spec.cells = cells;
  spec.shape = {2, 1};
  spec.run_cell = [runs](std::size_t cell) {
    if (runs != nullptr) runs->fetch_add(1);
    CellResult result;
    result.u64 = {cell, cell * cell};
    result.f64 = {1.0 / static_cast<double>(cell + 1)};
    return result;
  };
  return spec;
}

// One u64 and one f64 slot per cell, so a column one cell short or long is
// one value short or long.
SweepSpec single_slot_sweep(std::size_t cells) {
  SweepSpec spec = synthetic_sweep(cells);
  spec.shape = {1, 1};
  spec.run_cell = [](std::size_t cell) {
    return CellResult{{cell + 7}, {0.5 * static_cast<double>(cell)}};
  };
  return spec;
}

ShardArtifact round_trip(const SweepSpec& spec, const Shard& shard, unsigned jobs = 1) {
  return decode_shard_artifact(encode_shard_artifact(spec, shard, run_cells(spec, shard, jobs)));
}

Cells pack(CellShape shape, const std::vector<CellResult>& results) {
  Cells cells(shape, results.size());
  for (std::size_t i = 0; i < results.size(); ++i) cells.set(i, results[i]);
  return cells;
}

// The string value of `key` in an artifact's text (the column text).
std::string string_field(const std::string& text, const std::string& key) {
  const std::string open = "\"" + key + "\": \"";
  const std::size_t start = text.find(open);
  EXPECT_NE(start, std::string::npos) << key;
  const std::size_t from = start + open.size();
  return text.substr(from, text.find('"', from) - from);
}

// `text` with the string value of `key` replaced by `value`.
std::string with_string_field(std::string text, const std::string& key, const std::string& value) {
  const std::string open = "\"" + key + "\": \"";
  const std::size_t from = text.find(open) + open.size();
  text.replace(from, text.find('"', from) - from, value);
  return text;
}

// `text` with the first `from` replaced by `to`; fails the test if absent.
std::string replaced(std::string text, const std::string& from, const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

// The CicError message `decode_shard_artifact(text)` throws ("" if none).
std::string decode_error(const std::string& text) {
  try {
    decode_shard_artifact(text);
  } catch (const support::CicError& error) {
    return error.what();
  }
  return "";
}

std::string temp_artifact_path(const char* tag) {
  return testing::TempDir() + "cicmon_test_shard_" + tag + ".json";
}

TEST(Shard, ParseAcceptsValidAndRejectsMalformed) {
  const Shard shard = parse_shard("2/3");
  EXPECT_EQ(shard.index, 2U);
  EXPECT_EQ(shard.count, 3U);
  for (const char* bad : {"", "3", "0/3", "4/3", "a/b", "1/", "/2", "1/0"}) {
    EXPECT_THROW(parse_shard(bad), support::CicError) << bad;
  }
}

TEST(Shard, OwnershipIsADisjointCoverForAnyN) {
  constexpr std::size_t kCells = 23;
  for (unsigned n = 1; n <= 7; ++n) {
    std::vector<unsigned> owners(kCells, 0);
    for (unsigned i = 1; i <= n; ++i) {
      const Shard shard{i, n};
      const std::size_t owned = owned_cell_count(shard, kCells);
      // Ordinals ascend with cells, the last one owned is still in the grid,
      // and the next would not be.
      for (std::size_t j = 0; j < owned; ++j) {
        ASSERT_LT(owned_cell(shard, j), kCells) << i << "/" << n << " #" << j;
        EXPECT_EQ(owned_cell(shard, j) % n, i - 1) << i << "/" << n << " #" << j;
        ++owners[owned_cell(shard, j)];
      }
      EXPECT_GE(owned_cell(shard, owned), kCells) << i << "/" << n;
    }
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      EXPECT_EQ(owners[cell], 1U) << "cell " << cell << " at N=" << n;
    }
  }
}

TEST(Shard, CoordinatesAboveTheUnsignedRangeNeverAliasValidOnes) {
  const std::uint64_t big = std::uint64_t{std::numeric_limits<unsigned>::max()} + 1;
  EXPECT_EQ(checked_shard(2, 3).index, 2U);
  EXPECT_EQ(checked_shard(2, 3).count, 3U);
  // 2^32 + 2 of 2^32 + 3 would narrow to a valid 2/3.
  EXPECT_THROW(checked_shard(big + 2, big + 3), support::CicError);
  EXPECT_THROW(checked_shard(2, big + 3), support::CicError);
  EXPECT_THROW(checked_shard(0, 3), support::CicError);
  EXPECT_THROW(checked_shard(4, 3), support::CicError);

  // The same relabelling inside an artifact is refused before the digest is
  // even consulted.
  const SweepSpec spec = synthetic_sweep(9);
  const std::string text = encode_shard_artifact(spec, Shard{2, 3},
                                                 run_cells(spec, Shard{2, 3}, 1));
  const std::string aliased = replaced(replaced(text, "\"shard\": 2", "\"shard\": 4294967298"),
                                       "\"shard_count\": 3", "\"shard_count\": 4294967299");
  EXPECT_NE(decode_error(aliased).find("invalid shard coordinates"), std::string::npos)
      << decode_error(aliased);
}

// --- Packed cells ---------------------------------------------------------

TEST(Cells, RunCellsStoresExactlyTheShardsOwnedCells) {
  constexpr std::size_t kCells = 17;
  for (unsigned n = 1; n <= 7; ++n) {
    for (unsigned i = 1; i <= n; ++i) {
      std::atomic<unsigned> runs{0};
      const SweepSpec spec = synthetic_sweep(kCells, &runs);
      const Shard shard{i, n};
      const Cells cells = run_cells(spec, shard, 1 + i % 4);
      EXPECT_EQ(cells.size(), owned_cell_count(shard, kCells)) << i << "/" << n;
      EXPECT_EQ(runs.load(), cells.size()) << i << "/" << n;
      EXPECT_EQ(cells.shape(), spec.shape);
      EXPECT_EQ(cells.u64_column().size(), 2 * cells.size());
      EXPECT_EQ(cells.f64_column().size(), cells.size());
      for (std::size_t j = 0; j < cells.size(); ++j) {
        EXPECT_EQ(cells.cell(j), spec.run_cell(owned_cell(shard, j))) << i << "/" << n;
      }
    }
  }
}

TEST(Cells, AWrongShapedRunCellResultFailsTheRunNamingTheSweepAndCell) {
  for (const unsigned jobs : {1U, 4U}) {
    SweepSpec spec = synthetic_sweep(12);
    spec.run_cell = [](std::size_t cell) {
      CellResult result{{cell, cell}, {0.25}};
      if (cell == 5) result.f64.push_back(1.0);
      return result;
    };
    try {
      run_all(spec, jobs);
      ADD_FAILURE() << "a 2 + 2 payload in a 2 + 1 sweep was accepted";
    } catch (const support::CicError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("sweep 'synthetic' cell 5"), std::string::npos) << what;
      EXPECT_NE(what.find("2 u64 + 2 f64"), std::string::npos) << what;
    }
    // A shard that does not own the bad cell runs clean.
    EXPECT_EQ(run_cells(spec, Shard{1, 2}, jobs).size(), 6U);
  }
  // The per-cell adapter holds whole grids to the same shape.
  const SweepSpec spec = synthetic_sweep(3);
  std::vector<CellResult> results = run_all(spec, 1);
  results[1].u64.pop_back();
  EXPECT_THROW(encode_shard_artifact(spec, Shard{2, 3}, results), support::CicError);
  EXPECT_NO_THROW(encode_shard_artifact(spec, Shard{1, 3}, results));
}

TEST(Cells, PerCellViewsCopyTheColumns) {
  const Cells cells = run_all(synthetic_sweep(4), 1);
  const std::vector<CellResult> results = cells;
  ASSERT_EQ(results.size(), 4U);
  EXPECT_EQ(results[3], (CellResult{{3, 9}, {0.25}}));
  EXPECT_EQ(pack(cells.shape(), results), cells);
  EXPECT_EQ(cells.u64(2, 1), 4U);
  EXPECT_EQ(cells.f64(1, 0), 0.5);
  EXPECT_THROW(Cells(CellShape{2, 1}, 2, {1, 2, 3}, {0.5, 0.5}), support::CicError);
}

// --- cicmon-shard-v2 artifacts -------------------------------------------

TEST(Artifact, EncodeDecodeRoundTripsExactly) {
  SweepSpec spec = synthetic_sweep(5);
  // Payloads chosen to stress the codecs: u64 values of every LEB128 length
  // up to the full ten bytes, and doubles whose bits must survive exactly
  // (negative zero, a subnormal, infinity, a NaN payload).
  spec.shape = {3, 4};
  spec.run_cell = [](std::size_t cell) {
    CellResult result;
    result.u64 = {cell, 0xFFFF'FFFF'FFFF'FFFFULL - cell, (1ULL << 53) + 1 + cell};
    result.f64 = {0.1 + static_cast<double>(cell), -0.0, 4.9e-324 * static_cast<double>(cell + 1),
                  cell % 2 == 0 ? std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::quiet_NaN()};
    return result;
  };
  const Shard shard{2, 2};
  const Cells cells = run_cells(spec, shard, 1);
  const std::string text = encode_shard_artifact(spec, shard, cells);
  const ShardArtifact artifact = decode_shard_artifact(text);

  EXPECT_EQ(artifact.sweep, spec.sweep);
  EXPECT_EQ(artifact.params, spec.params);
  EXPECT_EQ(artifact.shard.index, 2U);
  EXPECT_EQ(artifact.shard.count, 2U);
  EXPECT_EQ(artifact.total_cells, 5U);
  EXPECT_TRUE(artifact_matches(artifact, spec, shard));
  ASSERT_EQ(artifact.cells.size(), 2U);  // cells 1 and 3
  EXPECT_EQ(artifact.cells.shape(), spec.shape);
  EXPECT_EQ(artifact.cells.u64_column(), cells.u64_column());
  ASSERT_EQ(artifact.cells.f64_column().size(), 8U);
  EXPECT_EQ(std::memcmp(artifact.cells.f64_column().data(), cells.f64_column().data(),
                        8 * sizeof(double)),
            0);
  EXPECT_EQ(artifact.cells.u64(1, 1), 0xFFFF'FFFF'FFFF'FFFFULL - 3);
  // Re-encoding the decoded cells reproduces the document byte for byte.
  EXPECT_EQ(encode_shard_artifact(spec, shard, artifact.cells), text);
  // No per-cell keys or indices: the header, two columns and the digest.
  EXPECT_EQ(text.find("\"index\""), std::string::npos);
  EXPECT_EQ(text.find("\"key\""), std::string::npos);
  EXPECT_NE(text.find("\"schema\": \"cicmon-shard-v2\""), std::string::npos);
  EXPECT_NE(text.find("\"digest\": \""), std::string::npos);
}

TEST(Artifact, EveryRealPayloadShapeRoundTripsAndMergesToRunAll) {
  // One real sweep per payload shape: campaign 1 + 0, the replacement grid
  // 1 + 1, blocks (5 + capacities) + 0, a campaign grid 6 + 0. Each grid is
  // computed once; the sharded runs replay those cells, so what is under
  // test is the packing, the codec and the merge at every shard count, job
  // count and add order.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 16;
  const fault::CampaignRunner runner(image, config);
  const std::vector<SweepSpec> specs{runner.sweep(fault::FaultSite::kFetchBus, 1, 40, 3),
                                     sim::replacement_sweep(0.02),
                                     sim::blocks_sweep({1, 8, 16}, 0.02),
                                     sim::hash_ablation_sweep(0.02)};
  for (const SweepSpec& spec : specs) {
    const Cells direct = run_all(spec, 4);
    ASSERT_EQ(direct.size(), spec.cells) << spec.sweep;
    ASSERT_EQ(direct.shape(), spec.shape) << spec.sweep;
    SweepSpec replay = spec;
    replay.run_cell = [&direct](std::size_t cell) { return direct.cell(cell); };
    for (const unsigned jobs : {1U, 4U}) {
      EXPECT_EQ(run_all(replay, jobs), direct) << spec.sweep << " jobs " << jobs;
    }
    for (const unsigned n : {1U, 3U, 7U}) {
      std::vector<ShardArtifact> artifacts;
      for (unsigned i = 1; i <= n; ++i) {
        artifacts.push_back(round_trip(replay, Shard{i, n}, i % 2 == 0 ? 4 : 1));
        EXPECT_TRUE(artifact_matches(artifacts.back(), spec, Shard{i, n})) << spec.sweep;
      }
      // Forward, backward and odd shards first.
      std::vector<std::vector<unsigned>> orders(3);
      for (unsigned i = 1; i <= n; ++i) orders[0].push_back(i);
      orders[1].assign(orders[0].rbegin(), orders[0].rend());
      for (unsigned i = 1; i <= n; i += 2) orders[2].push_back(i);
      for (unsigned i = 2; i <= n; i += 2) orders[2].push_back(i);
      for (const std::vector<unsigned>& order : orders) {
        MergeState merge;
        for (const unsigned i : order) merge.add(artifacts[i - 1]);
        ASSERT_TRUE(merge.complete()) << spec.sweep << " N=" << n;
        EXPECT_EQ(std::move(merge).finalize(), direct) << spec.sweep << " N=" << n;
      }
      EXPECT_EQ(merge_artifacts(artifacts), direct) << spec.sweep << " N=" << n;
    }
  }
}

TEST(Artifact, DecodeRefusesV1DocumentsByName) {
  const std::string v1 =
      "{\"schema\": \"cicmon-shard-v1\", \"sweep\": \"synthetic\", \"params\": {}, "
      "\"shard\": 1, \"shard_count\": 1, \"total_cells\": 1, \"cells\": [{\"index\": 0, "
      "\"key\": \"cell/0\", \"u64\": [0, 0], \"f64\": [1]}]}";
  const std::string what = decode_error(v1);
  EXPECT_NE(what.find("cicmon-shard-v1"), std::string::npos) << what;
  EXPECT_NE(decode_error("{\"schema\": \"something-else\"}").find("not a cicmon-shard-v2"),
            std::string::npos);
  EXPECT_THROW(decode_shard_artifact(""), support::CicError);
  EXPECT_THROW(decode_shard_artifact("not json at all"), support::CicError);
}

TEST(Artifact, DecodeRejectsEveryTruncation) {
  const SweepSpec spec = synthetic_sweep(7);
  const std::string text = encode_shard_artifact(spec, Shard{1, 2},
                                                 run_cells(spec, Shard{1, 2}, 1));
  // Every proper prefix (the trailing newline is whitespace, so stop short
  // of the closing brace).
  for (std::size_t keep = 0; keep + 1 < text.size(); ++keep) {
    EXPECT_THROW(decode_shard_artifact(text.substr(0, keep)), support::CicError) << keep;
  }
  EXPECT_NO_THROW(decode_shard_artifact(text));
}

TEST(Artifact, DecodeRejectsAnyFlippedColumnCharacter) {
  const SweepSpec spec = synthetic_sweep(9);
  const std::string text = encode_shard_artifact(spec, Shard{1, 2},
                                                 run_cells(spec, Shard{1, 2}, 1));
  for (const char* column : {"u64", "f64"}) {
    const std::string value = string_field(text, column);
    ASSERT_FALSE(value.empty()) << column;
    for (std::size_t pos = 0; pos < value.size(); ++pos) {
      if (value[pos] == '=') continue;
      std::string flipped = value;
      // Another base64 character, so only the decoded bytes change.
      flipped[pos] = value[pos] == 'A' ? 'B' : 'A';
      EXPECT_THROW(decode_shard_artifact(with_string_field(text, column, flipped)),
                   support::CicError)
          << column << " character " << pos;
    }
  }
  // The digest itself is checked too.
  std::string digest = string_field(text, "digest");
  digest[0] = digest[0] == '0' ? '1' : '0';
  EXPECT_NE(decode_error(with_string_field(text, "digest", digest)).find("digest"),
            std::string::npos);
}

TEST(Artifact, DecodeRejectsAColumnOneValueShortOrLong) {
  // Shard 1/2 owns 1 of 2 cells, 2 of 4 and 3 of 5: splicing the 2- and
  // 5-cell artifacts' columns into the 4-cell one makes each column one
  // value short or long under a header that is otherwise intact.
  const auto text = [](std::size_t cells) {
    const SweepSpec spec = single_slot_sweep(cells);
    return encode_shard_artifact(spec, Shard{1, 2}, run_cells(spec, Shard{1, 2}, 1));
  };
  const std::string four = text(4);
  const std::string shorter = text(2);
  const std::string longer = text(5);
  for (const char* column : {"u64", "f64"}) {
    for (const std::string* donor : {&shorter, &longer}) {
      const std::string spliced = with_string_field(four, column, string_field(*donor, column));
      const std::string what = decode_error(spliced);
      EXPECT_NE(what.find(std::string(column) + " column"), std::string::npos)
          << column << ": " << what;
    }
  }
}

TEST(Artifact, TamperedTotalCellsIsRejectedCheaply) {
  const SweepSpec spec = synthetic_sweep(4);
  const std::string text = encode_shard_artifact(spec, Shard{1, 2},
                                                 run_cells(spec, Shard{1, 2}, 1));
  // A huge grid size must fail validation without a grid-sized loop or
  // allocation (this test would time out if it did not): the owned cell
  // count is checked in O(1) before any column is decoded.
  const std::string what =
      decode_error(replaced(text, "\"total_cells\": 4", "\"total_cells\": 4000000000000"));
  EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
  EXPECT_THROW(decode_shard_artifact(replaced(text, "\"cells\": 2", "\"cells\": 3")),
               support::CicError);

  // An artifact claiming an absurd grid must make merge throw "cells
  // missing" before sizing any buffer by total_cells.
  ShardArtifact artifact;
  artifact.sweep = spec.sweep;
  artifact.params = spec.params;
  artifact.shard = Shard{1, 4'000'000'000U};
  artifact.total_cells = 4'000'000'000'000ULL;
  artifact.cells = Cells(spec.shape, 1000);
  EXPECT_THROW(merge_artifacts({artifact}), support::CicError);
}

TEST(Artifact, DecodeRejectsCellsTheShardDoesNotOwn) {
  const SweepSpec spec = synthetic_sweep(4);
  const std::string text = encode_shard_artifact(spec, Shard{1, 2},
                                                 run_cells(spec, Shard{1, 2}, 1));
  // Shard 1/2 owns cells {0, 2}; claim to be shard 2/2 instead. Both own two
  // cells, so only the digest can tell.
  EXPECT_NE(decode_error(replaced(text, "\"shard\": 1", "\"shard\": 2")).find("digest"),
            std::string::npos);
  // Every other header field is covered the same way.
  const SweepSpec three = synthetic_sweep(3);
  const std::string of_three = encode_shard_artifact(three, Shard{1, 2},
                                                     run_cells(three, Shard{1, 2}, 1));
  for (const std::string& edited :
       {replaced(text, "\"sweep\": \"synthetic\"", "\"sweep\": \"synthetix\""),
        replaced(text, "\"cells\": \"4\"", "\"cells\": \"5\""),
        replaced(of_three, "\"total_cells\": 3", "\"total_cells\": 4"),
        replaced(replaced(text, "\"shard\": 1", "\"shard\": 2"), "\"shard_count\": 2",
                 "\"shard_count\": 3")}) {
    EXPECT_THROW(decode_shard_artifact(edited), support::CicError) << edited;
  }
}

// --- Merge -------------------------------------------------------------------

TEST(Merge, ShardedEqualsUnshardedForAnyNAtAnyJobs) {
  const SweepSpec spec = synthetic_sweep(11);
  const Cells direct = run_all(spec, 1);
  for (unsigned n = 1; n <= 4; ++n) {
    std::vector<ShardArtifact> artifacts;
    // Different job counts per shard on purpose.
    for (unsigned i = 1; i <= n; ++i) artifacts.push_back(round_trip(spec, Shard{i, n}, 1 + i % 3));
    EXPECT_EQ(merge_artifacts(artifacts), direct) << "N=" << n;
  }
}

TEST(Order, KeyedCellsRunInKeyOrderAndLandByIndex) {
  // An order key changes only the order run_cell sees: with a key that
  // reverses the index, cells run in descending order, and the cells equal
  // the unkeyed spec's at any job count and as merged shards.
  constexpr std::size_t kCells = 23;
  const Cells want = run_all(synthetic_sweep(kCells), 1);
  SweepSpec reversed = synthetic_sweep(kCells);
  reversed.order_key = [](std::size_t cell) { return kCells - cell; };

  std::vector<std::size_t> calls;
  SweepSpec recorded = reversed;
  recorded.run_cell = [&calls, run = reversed.run_cell](std::size_t cell) {
    calls.push_back(cell);
    return run(cell);
  };
  EXPECT_EQ(run_all(recorded, 1), want);
  std::vector<std::size_t> descending(kCells);
  for (std::size_t i = 0; i < kCells; ++i) descending[i] = kCells - 1 - i;
  EXPECT_EQ(calls, descending);

  EXPECT_EQ(run_all(reversed, 4), want);
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= 3; ++i) artifacts.push_back(round_trip(reversed, Shard{i, 3}));
  EXPECT_EQ(merge_artifacts(artifacts), want);

  // Within a shard, too: shard 2/3 owns 1, 4, ..., 22 and runs them downward.
  calls.clear();
  EXPECT_EQ(run_cells(recorded, Shard{2, 3}, 1).size(), 8U);
  EXPECT_EQ(calls, (std::vector<std::size_t>{22, 19, 16, 13, 10, 7, 4, 1}));

  // Ties break by index: an all-equal key keeps index order.
  calls.clear();
  recorded.order_key = [](std::size_t) { return std::uint64_t{7}; };
  EXPECT_EQ(run_all(recorded, 1), want);
  std::vector<std::size_t> ascending(kCells);
  for (std::size_t i = 0; i < kCells; ++i) ascending[i] = i;
  EXPECT_EQ(calls, ascending);
}

TEST(Merge, RejectsDuplicateMissingAndForeignShards) {
  const SweepSpec spec = synthetic_sweep(6);
  auto artifact = [&](unsigned i, unsigned n) { return round_trip(spec, Shard{i, n}); };
  // Duplicate shard: cells covered twice.
  EXPECT_THROW(merge_artifacts({artifact(1, 2), artifact(1, 2)}), support::CicError);
  // Missing shard: cells uncovered.
  EXPECT_THROW(merge_artifacts({artifact(1, 3), artifact(3, 3)}), support::CicError);
  // Mixed shard counts.
  EXPECT_THROW(merge_artifacts({artifact(1, 2), artifact(2, 3)}), support::CicError);
  // Different parameters.
  EXPECT_THROW(merge_artifacts({artifact(1, 2), round_trip(synthetic_sweep(7), Shard{2, 2})}),
               support::CicError);
  // Same sweep and parameters, different payload shape.
  SweepSpec narrow = synthetic_sweep(6);
  narrow.shape = {1, 1};
  narrow.run_cell = [](std::size_t cell) { return CellResult{{cell}, {0.0}}; };
  EXPECT_THROW(merge_artifacts({artifact(1, 2), round_trip(narrow, Shard{2, 2})}),
               support::CicError);
}

TEST(MergeState, IncrementalAddInAnyOrderFinalizesIdenticalToBatchMerge) {
  const SweepSpec spec = synthetic_sweep(13);
  const Cells direct = run_all(spec, 1);
  constexpr unsigned kShards = 5;
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= kShards; ++i) artifacts.push_back(round_trip(spec, Shard{i, kShards}));
  // Out-of-order streaming — the order shards land in a real dispatch.
  MergeState merge;
  EXPECT_FALSE(merge.complete());
  for (const unsigned i : {3U, 1U, 5U, 4U, 2U}) {
    merge.add(artifacts[i - 1]);
  }
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.shards_merged(), kShards);
  EXPECT_EQ(merge.cells_merged(), spec.cells);
  EXPECT_EQ(std::move(merge).finalize(), direct);
  EXPECT_EQ(merge_artifacts(artifacts), direct);
}

TEST(MergeState, ProgressIsDeterministicAndOrderIndependent) {
  const SweepSpec spec = synthetic_sweep(10);
  auto artifact = [&](unsigned i) { return round_trip(spec, Shard{i, 4}); };
  MergeState a;
  a.add(artifact(2));
  a.add(artifact(4));
  MergeState b;
  b.add(artifact(4));
  b.add(artifact(2));
  // Same artifact *set* -> identical progress line and table, whatever the
  // arrival order was.
  EXPECT_EQ(a.progress(), b.progress());
  EXPECT_EQ(a.progress_table(), b.progress_table());
  EXPECT_EQ(a.progress(), "2/4 shards, 5/10 cells (50.0%)");
  EXPECT_NE(a.progress_table().find("2      3      merged"), std::string::npos)
      << a.progress_table();
  EXPECT_NE(a.progress_table().find("1      3      pending"), std::string::npos)
      << a.progress_table();
  EXPECT_FALSE(a.complete());
}

TEST(MergeState, RejectsDuplicatesAndStaysUsableAfterARejectedAdd) {
  const SweepSpec spec = synthetic_sweep(8);
  auto artifact = [&](unsigned i, unsigned n) { return round_trip(spec, Shard{i, n}); };
  MergeState merge;
  merge.add(artifact(1, 3));
  EXPECT_THROW(merge.add(artifact(1, 3)), support::CicError);  // duplicate shard
  EXPECT_THROW(merge.add(artifact(1, 2)), support::CicError);  // different shard count
  EXPECT_THROW(merge.add(round_trip(synthetic_sweep(9), Shard{1, 3})),
               support::CicError);  // different grid/params
  SweepSpec narrow = synthetic_sweep(8);
  narrow.shape = {1, 1};
  narrow.run_cell = [](std::size_t cell) { return CellResult{{cell}, {0.0}}; };
  try {
    merge.add(round_trip(narrow, Shard{2, 3}));
    ADD_FAILURE() << "a shard of another shape was merged";
  } catch (const support::CicError& error) {
    EXPECT_NE(std::string(error.what()).find("shape"), std::string::npos) << error.what();
  }
  // Incomplete finalize names the gap.
  MergeState incomplete;
  incomplete.add(artifact(1, 3));
  EXPECT_THROW(std::move(incomplete).finalize(), support::CicError);
  // The rejected adds above must not have poisoned the good state.
  merge.add(artifact(2, 3));
  merge.add(artifact(3, 3));
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(std::move(merge).finalize(), run_all(spec, 1));

  // A rejected FIRST artifact must not fix the sweep identity either: one
  // holding a cell more, or one fewer, than its shard owns.
  MergeState fresh;
  for (const std::size_t cells : {4U, 2U}) {
    ShardArtifact bogus = artifact(1, 3);  // owns 3 of the 8 cells
    bogus.cells = Cells(spec.shape, cells);
    EXPECT_THROW(fresh.add(bogus), support::CicError) << cells;
  }
  ShardArtifact relabelled = artifact(1, 3);
  relabelled.shard = Shard{0, 3};
  EXPECT_THROW(fresh.add(relabelled), support::CicError);
  EXPECT_EQ(fresh.shards_merged(), 0U);
  fresh.add(artifact(1, 3));  // the intended sweep is still accepted
  EXPECT_EQ(fresh.progress(), "1/3 shards, 3/8 cells (37.5%)");
}

TEST(MergeState, ShardsPastTheCellCountAreValidatedNoOps) {
  // Shards 4/6 to 6/6 of a 3-cell grid own no cells: their artifacts merge
  // nothing, in any order, and only the three shards that own cells get a
  // flag and a progress row.
  const SweepSpec spec = synthetic_sweep(3);
  constexpr unsigned kShards = 6;
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= kShards; ++i) artifacts.push_back(round_trip(spec, Shard{i, kShards}));
  EXPECT_EQ(artifacts[4].cells.size(), 0U);
  const std::string table =
      "shard  cells  state\n1      1      merged\n2      1      merged\n3      1      merged\n";
  for (const std::vector<unsigned>& order : std::vector<std::vector<unsigned>>{
           {1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1}, {5, 1, 6, 2, 4, 3}}) {
    MergeState merge;
    for (const unsigned i : order) merge.add(artifacts[i - 1]);
    EXPECT_TRUE(merge.complete());
    EXPECT_EQ(merge.shards_merged(), 3U);
    EXPECT_EQ(merge.progress(), "3/3 shards, 3/3 cells (100.0%)");
    EXPECT_EQ(merge.progress_table(), table);
    EXPECT_EQ(std::move(merge).finalize(), run_all(spec, 1));
  }
  EXPECT_EQ(merge_artifacts(artifacts), run_all(spec, 1));

  // An empty shard is still validated. Arriving first, it fixes the sweep
  // identity that a foreign artifact then fails; arriving later, a foreign
  // one fails like any other, and a repeat is a no-op.
  MergeState empty_first;
  empty_first.add(artifacts[5]);
  EXPECT_EQ(empty_first.shards_merged(), 0U);
  EXPECT_FALSE(empty_first.complete());
  EXPECT_THROW(empty_first.add(round_trip(synthetic_sweep(4), Shard{1, kShards})),
               support::CicError);
  MergeState merge;
  merge.add(artifacts[0]);
  EXPECT_THROW(merge.add(round_trip(synthetic_sweep(4), Shard{6, kShards})),
               support::CicError);
  EXPECT_THROW(merge.add(round_trip(spec, Shard{7, kShards + 1})), support::CicError);
  merge.add(artifacts[5]);
  merge.add(artifacts[5]);
  EXPECT_EQ(merge.progress(), "1/3 shards, 1/3 cells (33.3%)");

  // A one-cell grid split as finely as a shard run accepts: one flag and
  // one row, not one per shard.
  const SweepSpec one = synthetic_sweep(1);
  constexpr unsigned kMost = std::numeric_limits<unsigned>::max();
  MergeState wide;
  wide.add(round_trip(one, Shard{kMost, kMost}));
  wide.add(round_trip(one, Shard{1, kMost}));
  EXPECT_TRUE(wide.complete());
  EXPECT_EQ(wide.progress(), "1/1 shards, 1/1 cells (100.0%)");
  EXPECT_EQ(wide.progress_table(), "shard  cells  state\n1      1      merged\n");
  EXPECT_EQ(std::move(wide).finalize(), run_all(one, 1));
}

TEST(Resume, SkipsCompletedShardAndRerunsCorruptOrMismatched) {
  std::atomic<unsigned> runs{0};
  const SweepSpec spec = synthetic_sweep(9, &runs);
  const Shard shard{2, 3};  // owns cells 1, 4, 7
  const std::string path = temp_artifact_path("resume");
  std::remove(path.c_str());

  // First invocation runs the three owned cells and writes the artifact.
  const Cells first = run_or_load_shard(spec, shard, 1, path, false);
  EXPECT_EQ(runs.load(), 3U);
  EXPECT_EQ(first.size(), 3U);

  // Second invocation resumes: nothing re-ran, same cells returned.
  bool reused = false;
  EXPECT_EQ(run_or_load_shard(spec, shard, 1, path, false, &reused), first);
  EXPECT_TRUE(reused);
  EXPECT_EQ(runs.load(), 3U);

  // --force always re-runs.
  run_or_load_shard(spec, shard, 1, path, true, &reused);
  EXPECT_FALSE(reused);
  EXPECT_EQ(runs.load(), 6U);

  // A truncated artifact is corrupt, not resumable, and so is a complete
  // artifact of the older schema: each time the shard re-runs and rewrites
  // it.
  for (const char* stale :
       {"{\"schema\": \"cicmon-shard-v2\", \"swee",
        "{\"schema\": \"cicmon-shard-v1\", \"sweep\": \"synthetic\", \"params\": {\"cells\": "
        "\"9\"}, \"shard\": 2, \"shard_count\": 3, \"total_cells\": 9, \"cells\": []}"}) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs(stale, out);
    std::fclose(out);
    const unsigned before = runs.load();
    EXPECT_EQ(run_or_load_shard(spec, shard, 1, path, false, &reused), first);
    EXPECT_FALSE(reused);
    EXPECT_EQ(runs.load(), before + 3);
    EXPECT_TRUE(artifact_matches(load_shard_artifact(path), spec, shard));
  }

  // An artifact from different sweep parameters must not be resumed into
  // this run either.
  std::atomic<unsigned> other_runs{0};
  SweepSpec other = synthetic_sweep(9, &other_runs);
  other.params = {{"cells", "different"}};
  run_or_load_shard(other, shard, 1, path, false, &reused);
  EXPECT_FALSE(reused);
  EXPECT_EQ(other_runs.load(), 3U);

  std::remove(path.c_str());
}

// --- The real sweeps on the engine --------------------------------------

TEST(RealSweeps, Table1MergeMatchesDirectRun) {
  // One reuse-profile cell per kernel, read at CIC8 and CIC16.
  const SweepSpec spec = sim::table1_sweep(0.02);
  EXPECT_EQ(spec.cells, workloads::all_workloads().size());
  EXPECT_EQ(spec.shape, (CellShape{5 + 2, 0}));
  const Cells direct = run_all(spec, 0);
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= 3; ++i) artifacts.push_back(round_trip(spec, Shard{i, 3}, 2));
  EXPECT_EQ(merge_artifacts(artifacts), direct);
  // And the decoded rows equal a serial run's.
  const auto rows = sim::table1_rows(merge_artifacts(artifacts));
  const auto serial = sim::table1_rows(run_all(spec, 1));
  ASSERT_EQ(rows.size(), serial.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].workload, serial[i].workload);
    EXPECT_EQ(rows[i].cycles, serial[i].cycles);
    EXPECT_EQ(rows[i].miss_rates, serial[i].miss_rates);
    EXPECT_EQ(rows[i].overhead(2), serial[i].overhead(2));
  }
}

TEST(RealSweeps, AblationGridsRunEachBaselineOnceAndShareTable1sMachines) {
  // The cost grid is Table 1's reuse profiles read at every cost: one run
  // per workload. The policy grid runs one baseline cell per workload:
  // 9 x (1 + 5) runs.
  const auto infos = workloads::all_workloads();
  const std::size_t workloads_count = infos.size();
  const SweepSpec table1 = sim::table1_sweep(0.02);
  const SweepSpec os_cost = sim::os_cost_sweep(0.02);
  const SweepSpec replacement = sim::replacement_sweep(0.02);
  EXPECT_EQ(os_cost.cells, workloads_count);
  EXPECT_EQ(replacement.cells, workloads_count * 6);
  const Cells table1_cells = run_all(table1, 0);
  EXPECT_EQ(run_all(os_cost, 0), table1_cells);

  // The rows: the cost grid is workload-major, CIC8 then CIC16 at each
  // cost, so basicmath's column 3 is CIC8 with 50-cycle OS exceptions; cell
  // 6 of the policy grid is the second workload's baseline.
  cpu::CpuConfig cic8_exc50;
  cic8_exc50.monitoring = true;
  cic8_exc50.cic.iht_entries = 8;
  cic8_exc50.os.exception_cycles = 50;
  const cpu::RunResult basicmath = sim::run_workload("basicmath", cic8_exc50, 0.02);
  const auto costs = sim::os_cost_rows(table1_cells);
  ASSERT_EQ(costs.size(), workloads_count);
  EXPECT_EQ(costs[0].workload, "basicmath");
  EXPECT_EQ(costs[0].cycles[3], basicmath.cycles);
  EXPECT_EQ(costs[0].miss_rates[3], basicmath.iht.miss_rate());
  const cpu::RunResult second = sim::run_workload(infos[1].name, {}, 0.02);
  EXPECT_EQ(replacement.run_cell(6), (CellResult{{second.cycles}, {0.0}}));

  // The 100-cycle CIC8/CIC16 columns and LRU demand fill are Table 1's
  // machines, so their rows equal Table 1's bit for bit.
  const auto rows = sim::table1_rows(table1_cells);
  const auto policies = sim::replacement_rows(run_all(replacement, 0));
  for (std::size_t w = 0; w < workloads_count; ++w) {
    EXPECT_EQ(costs[w].workload, infos[w].name);
    EXPECT_EQ(policies[w].workload, infos[w].name);
    EXPECT_EQ(costs[w].cycles[0], rows[w].cycles[0]) << rows[w].workload;
    EXPECT_EQ(costs[w].cycles[5], rows[w].cycles[1]) << rows[w].workload;
    EXPECT_EQ(costs[w].cycles[6], rows[w].cycles[2]) << rows[w].workload;
    EXPECT_EQ(policies[w].cycles[0], rows[w].cycles[0]) << rows[w].workload;
    EXPECT_EQ(policies[w].cycles[1], rows[w].cycles[1]) << rows[w].workload;
    EXPECT_EQ(policies[w].miss_rates[1], rows[w].miss_rates[1]) << rows[w].workload;
    for (std::size_t c = 0; c < std::size(sim::kOsCosts); ++c) {
      // A fixed miss stream: the miss rates do not move with the cost, and
      // the overhead grows with it.
      EXPECT_EQ(costs[w].miss_rates[1 + 2 * c], rows[w].miss_rates[1]) << rows[w].workload;
      EXPECT_EQ(costs[w].miss_rates[2 + 2 * c], rows[w].miss_rates[2]) << rows[w].workload;
      if (c > 0) {
        EXPECT_GE(costs[w].cycles[1 + 2 * c], costs[w].cycles[2 * c - 1]) << rows[w].workload;
      }
    }
  }
}

// The six outcome counts of one campaign on sha at scale 0.02, as a campaign
// grid cell carries them.
CellResult sha_campaign(bool monitoring, hash::HashKind kind, std::uint32_t key,
                        fault::FaultSite site, unsigned bits, unsigned trials,
                        std::uint64_t seed) {
  cpu::CpuConfig config;
  config.monitoring = monitoring;
  config.cic.iht_entries = 16;
  config.cic.hash_kind = kind;
  config.cic.hash_key = key;
  fault::CampaignRunner runner(workloads::build_workload("sha", {0.02, 42}), config);
  const fault::CampaignSummary s = runner.run_random(site, bits, trials, seed, 2);
  return {{s.detected_mismatch, s.detected_miss, s.detected_baseline, s.wrong_output, s.benign,
           s.hang},
          {}};
}

TEST(RealSweeps, CampaignGridCellsCarryOneWholeCampaignEach) {
  const SweepSpec faults = sim::faults_sweep(0.02);
  EXPECT_EQ(faults.cells, 2 * std::size(sim::kFaultSites) +
                              std::size(sim::kFaultHashes) * std::size(sim::kStrengthColumns));
  const SweepSpec hashes = sim::hash_ablation_sweep(0.02);
  EXPECT_EQ(hashes.cells, hash::all_hash_kinds().size() * std::size(sim::kAblationBits));

  // Each cell's payload is the six counts of exactly the campaign the CLI's
  // `campaign` command would run on that machine. Cell 1 is the unmonitored
  // single-bit memory-text campaign, cell 2 the monitored fetch-bus one, and
  // hash-ablation cell 3 the second hash unit against 4-bit paired faults.
  using fault::FaultSite;
  EXPECT_EQ(faults.run_cell(1),
            sha_campaign(false, hash::HashKind::kXor, 0, FaultSite::kMemoryText, 1, 120, 2026));
  const CellResult fetch_bus =
      sha_campaign(true, hash::HashKind::kXor, 0, FaultSite::kFetchBus, 1, 120, 2026);
  EXPECT_EQ(faults.run_cell(2), fetch_bus);
  EXPECT_EQ(hashes.run_cell(3), sha_campaign(true, hash::all_hash_kinds()[1], 0x5EED,
                                             FaultSite::kFetchBusPaired, 4, 100, 7));

  const auto rows = sim::campaign_rows(pack(faults.shape, {faults.run_cell(2)}), 1);
  EXPECT_EQ(rows[0].trials, 120U);
  EXPECT_EQ(rows[0].detected_mismatch, fetch_bus.u64[0]);
  EXPECT_EQ(rows[0].hang, fetch_bus.u64[5]);
}

TEST(RealSweeps, SweepCellsMatchAcrossEngines) {
  // The engine is an execution strategy with the switch interpreter as its
  // reference: no paper sweep's cells may move under the threaded engine, in
  // any build type.
  using cpu::Engine;
  const std::vector<unsigned> sizes{1, 8, 16, 32};
  EXPECT_EQ(run_all(sim::table1_sweep(0.02, Engine::kSwitch), 0),
            run_all(sim::table1_sweep(0.02, Engine::kThreaded), 0));
  EXPECT_EQ(run_all(sim::fig6_sweep(sizes, 0.02, Engine::kSwitch), 0),
            run_all(sim::fig6_sweep(sizes, 0.02, Engine::kThreaded), 0));
  EXPECT_EQ(run_all(sim::blocks_sweep(sizes, 0.02, Engine::kSwitch), 0),
            run_all(sim::blocks_sweep(sizes, 0.02, Engine::kThreaded), 0));
}

TEST(RealSweeps, CampaignShardedSummaryMatchesRunRandom) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 16;
  fault::CampaignRunner runner(image, config);

  constexpr unsigned kTrials = 30;
  const fault::CampaignSummary direct =
      runner.run_random(fault::FaultSite::kFetchBus, 1, kTrials, 7, 1);

  const SweepSpec spec = runner.sweep(fault::FaultSite::kFetchBus, 1, kTrials, 7);
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= 2; ++i) artifacts.push_back(round_trip(spec, Shard{i, 2}, 3));
  const fault::CampaignSummary merged =
      fault::CampaignRunner::summary_from_cells(merge_artifacts(artifacts));
  EXPECT_EQ(merged.trials, direct.trials);
  EXPECT_EQ(merged.detected_mismatch, direct.detected_mismatch);
  EXPECT_EQ(merged.detected_miss, direct.detected_miss);
  EXPECT_EQ(merged.detected_baseline, direct.detected_baseline);
  EXPECT_EQ(merged.wrong_output, direct.wrong_output);
  EXPECT_EQ(merged.benign, direct.benign);
  EXPECT_EQ(merged.hang, direct.hang);
}

TEST(RealSweeps, RowDecodersRejectWrongShapedPayloads) {
  // Merged cells whose shape or grid is not the decoder's (a hand-built or
  // cross-version artifact) must throw CicError, not crash, so `cicmon
  // merge` reports it as a corrupt input.
  const std::size_t workloads_count = workloads::all_workloads().size();
  EXPECT_THROW(sim::replacement_rows(Cells({0, 0}, workloads_count * 6)), support::CicError);
  EXPECT_THROW(sim::replacement_rows(Cells({1, 1}, workloads_count * 5)), support::CicError);
  EXPECT_NO_THROW(sim::replacement_rows(Cells({1, 1}, workloads_count * 6)));
  // Table 1 and OS-cost cells are reuse profiles at 8 and 16 entries. Their
  // earlier full-machine grids (1 + 1 per machine) are refused.
  EXPECT_THROW(sim::table1_rows(Cells({1, 1}, workloads_count * 3)), support::CicError);
  EXPECT_THROW(sim::os_cost_rows(Cells({1, 1}, workloads_count * 11)), support::CicError);
  EXPECT_THROW(sim::table1_rows(Cells({7, 0}, workloads_count + 1)), support::CicError);
  EXPECT_THROW(sim::os_cost_rows(Cells({8, 0}, workloads_count)), support::CicError);
  EXPECT_NO_THROW(sim::table1_rows(Cells({7, 0}, workloads_count)));
  EXPECT_NO_THROW(sim::os_cost_rows(Cells({7, 0}, workloads_count)));
  EXPECT_THROW(sim::campaign_rows(pack({5, 0}, {{{1, 2, 3, 4, 5}, {}}}), 1), support::CicError);
  const Cells campaign = pack({6, 0}, {{{1, 2, 3, 4, 5, 6}, {}}});
  EXPECT_THROW(sim::campaign_rows(campaign, 3), support::CicError);
  EXPECT_EQ(sim::campaign_rows(campaign, 1)[0].trials, 21U);
  // fig6 and blocks cells: five counts, then one miss count per size. The
  // earlier payloads (a variant grid; four counts and one rate per
  // capacity; four counts and the misses) and a grid of the wrong size are
  // refused.
  EXPECT_THROW(sim::fig6_rows(Cells({1, 1}, workloads_count * 2), {1, 8}), support::CicError);
  EXPECT_THROW(sim::fig6_rows(Cells({6, 0}, workloads_count), {1, 8}), support::CicError);
  EXPECT_THROW(sim::fig6_rows(Cells({7, 0}, workloads_count), {1, 8, 16}), support::CicError);
  EXPECT_THROW(sim::fig6_rows(Cells({7, 0}, workloads_count + 1), {1, 8}), support::CicError);
  EXPECT_NO_THROW(sim::fig6_rows(Cells({7, 0}, workloads_count), {1, 8}));
  EXPECT_THROW(sim::blocks_rows(Cells({4, 2}, workloads_count), {1, 8}), support::CicError);
  EXPECT_THROW(sim::blocks_rows(Cells({6, 0}, workloads_count), {1, 8}), support::CicError);
  EXPECT_THROW(sim::blocks_rows(Cells({7, 0}, workloads_count - 1), {1, 8}),
               support::CicError);
  EXPECT_NO_THROW(sim::blocks_rows(Cells({7, 0}, workloads_count), {1, 8}));
  EXPECT_THROW(fault::CampaignRunner::summary_from_cells(Cells({0, 0}, 4)), support::CicError);
  EXPECT_THROW(fault::CampaignRunner::summary_from_cells(pack({1, 0}, {{{2}, {}}, {{99}, {}}})),
               support::CicError);
  EXPECT_EQ(fault::CampaignRunner::summary_from_cells(Cells({1, 0}, 4)).trials, 4U);
}

TEST(RealSweeps, Fig6AndBlocksRowsDecodeFromCells) {
  // Both tables decode the same reuse-profile cells, at any --jobs: fig6 as
  // each table size's IHT statistics, blocks as its LRU hit rate.
  const std::vector<unsigned> sizes{1, 16};
  const Cells fig6_cells = run_all(sim::fig6_sweep(sizes, 0.02), 0);
  const Cells blocks_cells = run_all(sim::blocks_sweep(sizes, 0.02), 1);
  EXPECT_EQ(fig6_cells, blocks_cells);
  const auto fig6 = sim::fig6_rows(fig6_cells, sizes);
  const auto blocks = sim::blocks_rows(blocks_cells, sizes);
  ASSERT_EQ(fig6.size(), workloads::all_workloads().size());
  ASSERT_EQ(blocks.size(), fig6.size());
  for (std::size_t w = 0; w < fig6.size(); ++w) {
    EXPECT_EQ(fig6[w].workload, blocks[w].workload);
    ASSERT_EQ(fig6[w].iht.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const cic::IhtStats& iht = fig6[w].iht[i];
      EXPECT_EQ(iht.lookups, blocks[w].lookups) << fig6[w].workload;
      EXPECT_EQ(iht.hits + iht.misses, iht.lookups) << fig6[w].workload;
      EXPECT_EQ(iht.mismatches, 0U) << fig6[w].workload;
      // Every lookup hits within the table or misses (cold or beyond it).
      EXPECT_NEAR(iht.miss_rate() + blocks[w].lru_hit_rate[i], 1.0, 1e-12) << fig6[w].workload;
    }
  }

  const auto direct = sim::characterize_blocks("dijkstra", sizes, 0.02);
  const auto& dijkstra = blocks[2];  // Figure 6 order
  EXPECT_EQ(dijkstra.workload, "dijkstra");
  EXPECT_EQ(dijkstra.static_regions, direct.static_regions);
  EXPECT_EQ(dijkstra.dynamic_keys, direct.dynamic_keys);
  EXPECT_EQ(dijkstra.lookups, direct.lookups);
  EXPECT_EQ(dijkstra.instructions, direct.instructions);
  EXPECT_DOUBLE_EQ(dijkstra.mean_block_instructions, direct.mean_block_instructions);
  EXPECT_EQ(dijkstra.lru_hit_rate, direct.lru_hit_rate);
}

// The blocks table as it was first computed, kept as the oracle: every
// lookup's LRU stack distance from a std::list walk, binned in a histogram
// (-1 for a cold reference), on a machine with an 8-entry IHT (a clean
// run's reference stream does not depend on the IHT size).
sim::BlockStats reference_blocks(std::string_view workload,
                                 const std::vector<unsigned>& capacities, double scale,
                                 cpu::Engine engine) {
  workloads::BuildOptions options;
  options.scale = scale;
  const casm_::Image image = workloads::build_workload(workload, options);
  cpu::CpuConfig config;
  config.engine = engine;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  std::list<Key> recency;
  std::map<Key, std::list<Key>::iterator> where;
  support::Histogram distances;
  std::uint64_t lookups = 0;
  cpu::Cpu cpu(config, image);
  cpu.set_lookup_observer([&](std::uint32_t start, std::uint32_t end) {
    const Key key{start, end};
    ++lookups;
    const auto it = where.find(key);
    if (it == where.end()) {
      distances.add(-1);
    } else {
      distances.add(std::distance(recency.begin(), it->second));
      recency.erase(it->second);
    }
    recency.push_front(key);
    where[key] = recency.begin();
  });
  const cpu::RunResult result = cpu.run();
  EXPECT_EQ(result.reason, cpu::ExitReason::kExit) << workload;

  sim::BlockStats stats;
  stats.workload = std::string(workload);
  stats.static_regions =
      cfg::build_fht(image, *hash::make_hash_unit(hash::HashKind::kXor)).size();
  stats.dynamic_keys = where.size();
  stats.lookups = lookups;
  stats.instructions = result.instructions;
  stats.mean_block_instructions =
      static_cast<double>(result.instructions) / static_cast<double>(lookups);
  const double cold = distances.cdf_at(-1);
  for (const unsigned capacity : capacities) {
    stats.lru_hit_rate.push_back(distances.cdf_at(std::int64_t{capacity} - 1) - cold);
  }
  stats.capacities = capacities;
  return stats;
}

TEST(RealSweeps, BlocksRowsEqualAReferenceStackDistanceWalk) {
  // Every kernel, both engines: the rows decoded from reuse-profile cells
  // equal the oracle's counts and, bit for bit, its hit rates.
  const std::vector<unsigned> sizes{1, 2, 3, 8, 16, 32, 64};
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    const auto rows = sim::blocks_rows(run_all(sim::blocks_sweep(sizes, 0.02, engine), 0), sizes);
    ASSERT_EQ(rows.size(), workloads::all_workloads().size());
    for (const sim::BlockStats& row : rows) {
      const sim::BlockStats want = reference_blocks(row.workload, sizes, 0.02, engine);
      EXPECT_EQ(row.static_regions, want.static_regions) << row.workload;
      EXPECT_EQ(row.dynamic_keys, want.dynamic_keys) << row.workload;
      EXPECT_EQ(row.lookups, want.lookups) << row.workload;
      EXPECT_EQ(row.instructions, want.instructions) << row.workload;
      EXPECT_EQ(row.mean_block_instructions, want.mean_block_instructions) << row.workload;
      EXPECT_EQ(row.lru_hit_rate, want.lru_hit_rate) << row.workload;
      EXPECT_EQ(row.capacities, sizes) << row.workload;
    }
  }
}

}  // namespace
}  // namespace cicmon::exp
