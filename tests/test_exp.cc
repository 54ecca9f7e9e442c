// Tests for the unified sweep engine: shard partitioning, cicmon-shard-v1
// artifacts, byte-identical merge, and resume semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "fault/campaign.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace cicmon::exp {
namespace {

// A cheap deterministic grid: cell i -> u64 {i, i*i}, f64 {1/(i+1)}.
SweepSpec synthetic_sweep(std::size_t cells, std::atomic<unsigned>* runs = nullptr) {
  SweepSpec spec;
  spec.sweep = "synthetic";
  spec.params = {{"cells", std::to_string(cells)}};
  spec.cells = cells;
  spec.cell_key = [](std::size_t cell) { return "cell/" + std::to_string(cell); };
  spec.run_cell = [runs](std::size_t cell) {
    if (runs != nullptr) runs->fetch_add(1);
    CellResult result;
    result.u64 = {cell, cell * cell};
    result.f64 = {1.0 / static_cast<double>(cell + 1)};
    return result;
  };
  return spec;
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
      std::size_t owned = 0;
      for (std::size_t cell = 0; cell < kCells; ++cell) {
        if (owns_cell(Shard{i, n}, cell)) {
          ++owners[cell];
          ++owned;
        }
      }
      EXPECT_EQ(owned, owned_cell_count(Shard{i, n}, kCells)) << i << "/" << n;
    }
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      EXPECT_EQ(owners[cell], 1U) << "cell " << cell << " at N=" << n;
    }
  }
}

TEST(Artifact, EncodeDecodeRoundTripsExactly) {
  SweepSpec spec = synthetic_sweep(5);
  // Payloads chosen to stress the codec: u64 beyond double-exact range,
  // doubles needing all 17 digits.
  spec.run_cell = [](std::size_t cell) {
    CellResult result;
    result.u64 = {cell, 0xFFFF'FFFF'FFFF'FFFFULL - cell, (1ULL << 53) + 1 + cell};
    result.f64 = {0.1 + static_cast<double>(cell), 1.0 / 3.0, -2.5e-300};
    return result;
  };
  const Shard shard{2, 2};
  const std::vector<CellResult> results = run_cells(spec, shard, 1);
  const std::string text = encode_shard_artifact(spec, shard, results);
  const ShardArtifact artifact = decode_shard_artifact(text);

  EXPECT_EQ(artifact.sweep, spec.sweep);
  EXPECT_EQ(artifact.params, spec.params);
  EXPECT_EQ(artifact.shard.index, 2U);
  EXPECT_EQ(artifact.shard.count, 2U);
  EXPECT_EQ(artifact.total_cells, 5U);
  ASSERT_EQ(artifact.cells.size(), 2U);  // cells 1 and 3
  EXPECT_EQ(artifact.cells[0].index, 1U);
  EXPECT_EQ(artifact.cells[0].key, "cell/1");
  EXPECT_EQ(artifact.cells[0].result, results[1]);
  EXPECT_EQ(artifact.cells[1].index, 3U);
  EXPECT_EQ(artifact.cells[1].result, results[3]);
}

TEST(Artifact, CorruptAndTruncatedInputsAreRejected) {
  SweepSpec spec = synthetic_sweep(4);
  const std::string text = encode_shard_artifact(spec, Shard{1, 2}, run_cells(spec, Shard{1, 2}, 1));

  EXPECT_THROW(decode_shard_artifact(""), support::CicError);
  EXPECT_THROW(decode_shard_artifact("not json at all"), support::CicError);
  EXPECT_THROW(decode_shard_artifact("{\"schema\": \"something-else\"}"), support::CicError);
  // Any truncation must be caught — either as a JSON error or as an
  // incomplete cell set.
  for (const std::size_t keep : {text.size() / 4, text.size() / 2, text.size() - 3}) {
    EXPECT_THROW(decode_shard_artifact(text.substr(0, keep)), support::CicError) << keep;
  }
}

TEST(Artifact, TamperedTotalCellsIsRejectedCheaply) {
  SweepSpec spec = synthetic_sweep(4);
  std::string text = encode_shard_artifact(spec, Shard{1, 2}, run_cells(spec, Shard{1, 2}, 1));
  // A huge grid size must fail validation without a grid-sized loop or
  // allocation (this test would time out if it did not).
  const std::size_t pos = text.find("\"total_cells\": 4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 16, "\"total_cells\": 4000000000000");
  EXPECT_THROW(decode_shard_artifact(text), support::CicError);

  // An artifact claiming an absurd grid must make merge throw "cells
  // missing" before sizing any buffer by total_cells.
  ShardArtifact artifact;
  artifact.sweep = spec.sweep;
  artifact.params = spec.params;
  artifact.shard = Shard{1, 4'000'000'000U};
  artifact.total_cells = 4'000'000'000'000ULL;
  artifact.cells.push_back({0, "cell/0", CellResult{{0, 0}, {1.0}}});
  EXPECT_THROW(merge_artifacts({artifact}), support::CicError);
}

TEST(Artifact, DecodeRejectsCellsTheShardDoesNotOwn) {
  SweepSpec spec = synthetic_sweep(4);
  std::string text = encode_shard_artifact(spec, Shard{1, 2}, run_cells(spec, Shard{1, 2}, 1));
  // Shard 1/2 owns cells {0, 2}; claim to be shard 2/2 instead.
  const std::size_t pos = text.find("\"shard\": 1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "\"shard\": 2");
  EXPECT_THROW(decode_shard_artifact(text), support::CicError);
}

TEST(Merge, ShardedEqualsUnshardedForAnyNAtAnyJobs) {
  const SweepSpec spec = synthetic_sweep(11);
  const std::vector<CellResult> direct = run_all(spec, 1);
  for (unsigned n = 1; n <= 4; ++n) {
    std::vector<ShardArtifact> artifacts;
    for (unsigned i = 1; i <= n; ++i) {
      const Shard shard{i, n};
      // Different job counts per shard on purpose.
      const std::vector<CellResult> results = run_cells(spec, shard, 1 + i % 3);
      artifacts.push_back(decode_shard_artifact(encode_shard_artifact(spec, shard, results)));
    }
    EXPECT_EQ(merge_artifacts(artifacts), direct) << "N=" << n;
  }
}

TEST(Order, KeyedCellsRunInKeyOrderAndLandByIndex) {
  // An order key changes only the order run_cell sees: with a key that
  // reverses the index, cells run in descending order, and the cell vector
  // equals the unkeyed spec's at any job count and as merged shards.
  constexpr std::size_t kCells = 23;
  const std::vector<CellResult> want = run_all(synthetic_sweep(kCells), 1);
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
  for (unsigned i = 1; i <= 3; ++i) {
    const Shard shard{i, 3};
    const std::vector<CellResult> results = run_cells(reversed, shard, 1);
    artifacts.push_back(decode_shard_artifact(encode_shard_artifact(reversed, shard, results)));
  }
  EXPECT_EQ(merge_artifacts(artifacts), want);

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
  auto artifact = [&](unsigned i, unsigned n) {
    const Shard shard{i, n};
    return decode_shard_artifact(
        encode_shard_artifact(spec, shard, run_cells(spec, shard, 1)));
  };
  // Duplicate shard: cell covered twice.
  EXPECT_THROW(merge_artifacts({artifact(1, 2), artifact(1, 2)}), support::CicError);
  // Missing shard: cells uncovered.
  EXPECT_THROW(merge_artifacts({artifact(1, 3), artifact(3, 3)}), support::CicError);
  // Mixed shard counts.
  EXPECT_THROW(merge_artifacts({artifact(1, 2), artifact(2, 3)}), support::CicError);
  // Different parameters.
  const SweepSpec other = synthetic_sweep(7);
  const Shard shard{2, 2};
  std::vector<ShardArtifact> mixed{artifact(1, 2), decode_shard_artifact(encode_shard_artifact(
                                                       other, shard, run_cells(other, shard, 1)))};
  EXPECT_THROW(merge_artifacts(mixed), support::CicError);
}

TEST(MergeState, IncrementalAddInAnyOrderFinalizesIdenticalToBatchMerge) {
  const SweepSpec spec = synthetic_sweep(13);
  const std::vector<CellResult> direct = run_all(spec, 1);
  constexpr unsigned kShards = 5;
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= kShards; ++i) {
    const Shard shard{i, kShards};
    artifacts.push_back(
        decode_shard_artifact(encode_shard_artifact(spec, shard, run_cells(spec, shard, 1))));
  }
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
  auto artifact = [&](unsigned i) {
    const Shard shard{i, 4};
    return decode_shard_artifact(encode_shard_artifact(spec, shard, run_cells(spec, shard, 1)));
  };
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
  auto artifact = [&](unsigned i, unsigned n) {
    const Shard shard{i, n};
    return decode_shard_artifact(encode_shard_artifact(spec, shard, run_cells(spec, shard, 1)));
  };
  MergeState merge;
  merge.add(artifact(1, 3));
  EXPECT_THROW(merge.add(artifact(1, 3)), support::CicError);  // duplicate shard
  EXPECT_THROW(merge.add(artifact(1, 2)), support::CicError);  // different shard count
  const SweepSpec other = synthetic_sweep(9);
  EXPECT_THROW(merge.add(decode_shard_artifact(encode_shard_artifact(
                   other, Shard{1, 3}, run_cells(other, Shard{1, 3}, 1)))),
               support::CicError);  // different grid/params
  // Incomplete finalize names the gap.
  MergeState incomplete;
  incomplete.add(artifact(1, 3));
  EXPECT_THROW(std::move(incomplete).finalize(), support::CicError);
  // The rejected adds above must not have poisoned the good state.
  merge.add(artifact(2, 3));
  merge.add(artifact(3, 3));
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(std::move(merge).finalize(), run_all(spec, 1));

  // A rejected FIRST artifact must not fix the sweep identity either.
  MergeState fresh;
  ShardArtifact bogus = artifact(1, 3);
  bogus.cells[0].index = 99;  // out of range for the 8-cell grid
  EXPECT_THROW(fresh.add(bogus), support::CicError);
  fresh.add(artifact(1, 3));  // the intended sweep is still accepted
  // Intra-artifact duplicates (impossible via decode, possible by hand)
  // must not slip past the completeness accounting.
  ShardArtifact duplicated = artifact(2, 3);
  duplicated.cells.push_back(duplicated.cells.back());
  EXPECT_THROW(fresh.add(duplicated), support::CicError);
}

TEST(Resume, SkipsCompletedShardAndRerunsCorruptOrMismatched) {
  std::atomic<unsigned> runs{0};
  const SweepSpec spec = synthetic_sweep(9, &runs);
  const Shard shard{2, 3};  // owns cells 1, 4, 7
  const std::string path = temp_artifact_path("resume");
  std::remove(path.c_str());

  // First invocation runs the three owned cells and writes the artifact.
  const std::vector<CellResult> first = run_or_load_shard(spec, shard, 1, path, false);
  EXPECT_EQ(runs.load(), 3U);

  // Second invocation resumes: nothing re-ran, same cells returned.
  bool reused = false;
  EXPECT_EQ(run_or_load_shard(spec, shard, 1, path, false, &reused), first);
  EXPECT_TRUE(reused);
  EXPECT_EQ(runs.load(), 3U);

  // --force always re-runs.
  run_or_load_shard(spec, shard, 1, path, true, &reused);
  EXPECT_FALSE(reused);
  EXPECT_EQ(runs.load(), 6U);

  // A truncated artifact is corrupt, not resumable: the shard re-runs and
  // rewrites it.
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs("{\"schema\": \"cicmon-shard-v1\", \"swee", out);
    std::fclose(out);
  }
  EXPECT_EQ(run_or_load_shard(spec, shard, 1, path, false, &reused), first);
  EXPECT_FALSE(reused);
  EXPECT_EQ(runs.load(), 9U);

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
  const SweepSpec spec = sim::table1_sweep(0.02);
  EXPECT_EQ(spec.cells, workloads::all_workloads().size() * 3);
  const std::vector<CellResult> direct = run_all(spec, 0);
  std::vector<ShardArtifact> artifacts;
  for (unsigned i = 1; i <= 3; ++i) {
    const Shard shard{i, 3};
    artifacts.push_back(decode_shard_artifact(
        encode_shard_artifact(spec, shard, run_cells(spec, shard, 2))));
  }
  EXPECT_EQ(merge_artifacts(artifacts), direct);
  // And the decoded rows equal a serial run's.
  const auto rows = sim::variant_rows(merge_artifacts(artifacts), 3);
  const auto serial = sim::variant_rows(run_all(spec, 1), 3);
  ASSERT_EQ(rows.size(), serial.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].workload, serial[i].workload);
    EXPECT_EQ(rows[i].cycles, serial[i].cycles);
    EXPECT_EQ(rows[i].miss_rates, serial[i].miss_rates);
    EXPECT_EQ(rows[i].overhead(2), serial[i].overhead(2));
  }
}

TEST(RealSweeps, AblationGridsRunEachBaselineOnceAndShareTable1sMachines) {
  // One baseline cell per workload: 9 x (1 + 10) and 9 x (1 + 5) runs, where
  // the per-cost and per-policy loops used to re-run it (135 and 90).
  const std::size_t workloads_count = workloads::all_workloads().size();
  const SweepSpec os_cost = sim::os_cost_sweep(0.02);
  const SweepSpec replacement = sim::replacement_sweep(0.02);
  EXPECT_EQ(os_cost.cells, workloads_count * 11);
  EXPECT_EQ(replacement.cells, workloads_count * 6);
  EXPECT_EQ(os_cost.cell_key(3), "basicmath/cic8/exc50");
  EXPECT_EQ(replacement.cell_key(6), std::string(workloads::all_workloads()[1].name) + "/baseline");

  // The 100-cycle CIC8/CIC16 variants and LRU demand fill are Table 1's
  // machines, so their cells equal Table 1's bit for bit.
  const auto table1 = sim::variant_rows(run_all(sim::table1_sweep(0.02), 0), 3);
  const auto costs = sim::variant_rows(run_all(os_cost, 0), 11);
  const auto policies = sim::variant_rows(run_all(replacement, 0), 6);
  for (std::size_t w = 0; w < workloads_count; ++w) {
    EXPECT_EQ(costs[w].cycles[0], table1[w].cycles[0]) << table1[w].workload;
    EXPECT_EQ(costs[w].cycles[5], table1[w].cycles[1]) << table1[w].workload;
    EXPECT_EQ(costs[w].cycles[6], table1[w].cycles[2]) << table1[w].workload;
    EXPECT_EQ(policies[w].cycles[0], table1[w].cycles[0]) << table1[w].workload;
    EXPECT_EQ(policies[w].cycles[1], table1[w].cycles[1]) << table1[w].workload;
    // Overhead grows with the handler cost at a fixed miss stream.
    for (std::size_t c = 1; c < std::size(sim::kOsCosts); ++c) {
      EXPECT_GE(costs[w].cycles[1 + 2 * c], costs[w].cycles[2 * c - 1]) << table1[w].workload;
    }
  }
}

TEST(RealSweeps, CampaignGridCellsCarryOneWholeCampaignEach) {
  const SweepSpec faults = sim::faults_sweep(0.02);
  EXPECT_EQ(faults.cells, 2 * std::size(sim::kFaultSites) +
                              std::size(sim::kFaultHashes) * std::size(sim::kStrengthColumns));
  EXPECT_EQ(faults.cell_key(1), "xor/off/memory-text/1b");
  const SweepSpec hashes = sim::hash_ablation_sweep(0.02);
  EXPECT_EQ(hashes.cells, hash::all_hash_kinds().size() * std::size(sim::kAblationBits));
  EXPECT_EQ(hashes.cell_key(3), "add/on/fetch-bus-paired/4b");

  // Cell 2 is the monitored fetch-bus campaign: the six counts of exactly
  // the campaign the CLI's `campaign` command would run on that machine.
  const auto rows = sim::campaign_rows({faults.run_cell(2)}, 1);
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 16;
  fault::CampaignRunner runner(workloads::build_workload("sha", {0.02, 42}), config);
  const fault::CampaignSummary direct =
      runner.run_random(fault::FaultSite::kFetchBus, 1, 120, 2026, 2);
  EXPECT_EQ(rows[0].trials, 120U);
  EXPECT_EQ(rows[0].detected_mismatch, direct.detected_mismatch);
  EXPECT_EQ(rows[0].detected_miss, direct.detected_miss);
  EXPECT_EQ(rows[0].detected_baseline, direct.detected_baseline);
  EXPECT_EQ(rows[0].wrong_output, direct.wrong_output);
  EXPECT_EQ(rows[0].benign, direct.benign);
  EXPECT_EQ(rows[0].hang, direct.hang);
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
  for (unsigned i = 1; i <= 2; ++i) {
    const Shard shard{i, 2};
    artifacts.push_back(decode_shard_artifact(
        encode_shard_artifact(spec, shard, run_cells(spec, shard, 3))));
  }
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
  // A structurally valid artifact can still carry cells whose payload arity
  // is wrong (tampered or cross-version); decoders must throw CicError, not
  // crash, so `cicmon merge` reports it as a corrupt input.
  const std::size_t workloads_count = workloads::all_workloads().size();
  EXPECT_THROW(sim::variant_rows(std::vector<CellResult>(workloads_count * 3), 3),
               support::CicError);
  EXPECT_THROW(sim::variant_rows(std::vector<CellResult>(workloads_count * 3), 2),
               support::CicError);
  CellResult campaign;
  campaign.u64 = {1, 2, 3, 4, 5};
  EXPECT_THROW(sim::campaign_rows({campaign}, 1), support::CicError);
  campaign.u64.push_back(6);
  EXPECT_THROW(sim::campaign_rows({campaign, campaign}, 3), support::CicError);
  EXPECT_EQ(sim::campaign_rows({campaign}, 1)[0].trials, 21U);
  EXPECT_THROW(sim::blocks_rows(std::vector<CellResult>(workloads_count), {1, 8}),
               support::CicError);
  EXPECT_THROW(fault::CampaignRunner::summary_from_cells(std::vector<CellResult>(4)),
               support::CicError);
}

TEST(RealSweeps, Fig6AndBlocksRowsDecodeFromCells) {
  const std::vector<unsigned> entries{1, 16};
  const auto fig6_cells = run_all(sim::fig6_sweep(entries, 0.02), 0);
  const auto fig6 = sim::variant_rows(fig6_cells, entries.size());
  const auto serial = sim::variant_rows(run_all(sim::fig6_sweep(entries, 0.02), 1), 2);
  ASSERT_EQ(fig6.size(), serial.size());
  for (std::size_t i = 0; i < fig6.size(); ++i) {
    EXPECT_EQ(fig6[i].miss_rates, serial[i].miss_rates);
  }

  const std::vector<unsigned> capacities{1, 8};
  const auto blocks_cells = run_all(sim::blocks_sweep(capacities, 0.02), 0);
  const auto blocks = sim::blocks_rows(blocks_cells, capacities);
  const auto direct = sim::characterize_blocks("dijkstra", capacities, 0.02);
  ASSERT_EQ(blocks.size(), workloads::all_workloads().size());
  const auto& dijkstra = blocks[2];  // Figure 6 order
  EXPECT_EQ(dijkstra.workload, "dijkstra");
  EXPECT_EQ(dijkstra.static_regions, direct.static_regions);
  EXPECT_EQ(dijkstra.dynamic_keys, direct.dynamic_keys);
  EXPECT_EQ(dijkstra.lookups, direct.lookups);
  EXPECT_EQ(dijkstra.instructions, direct.instructions);
  EXPECT_DOUBLE_EQ(dijkstra.mean_block_instructions, direct.mean_block_instructions);
  EXPECT_EQ(dijkstra.lru_hit_rate, direct.lru_hit_rate);
}

}  // namespace
}  // namespace cicmon::exp
