// Fault-injection tests: per-site detectability (§3.2), the XOR odd-flip
// guarantee (§6.3), baseline traps, and campaign determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "casm/builder.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "support/bitops.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workloads/workloads.h"

namespace cicmon::fault {
namespace {

using namespace cicmon::isa;

casm_::Image checked_loop_program() {
  // A loop whose result is self-checked, so silent corruption is observable.
  casm_::Asm a;
  a.func("main");
  a.li(kT0, 20);
  a.li(kT1, 0);
  casm_::Label loop = a.bound_label();
  a.addu(kT1, kT1, kT0);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.check_eq(kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

cpu::CpuConfig monitored_config() {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  return config;
}

TEST(Campaign, GoldenRunFacts) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  EXPECT_GT(runner.golden_instructions(), 50U);
  EXPECT_EQ(runner.golden_console(), "");
}

TEST(Campaign, MemoryFlipInLoopBodyIsCaught) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 8;  // the addu inside the loop
  spec.xor_mask = 1U << 11;                    // rd field bit: stays a valid instr
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_TRUE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
  EXPECT_EQ(trial.outcome, Outcome::kDetectedMismatch);
}

TEST(Campaign, SameFlipEscapesWithoutMonitor) {
  cpu::CpuConfig off;  // monitoring disabled
  CampaignRunner runner(checked_loop_program(), off);
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 8;
  spec.xor_mask = 1U << 11;  // addu result goes to the wrong register
  const TrialResult trial = runner.run_trial(spec);
  // Without the CIC the corruption surfaces only through the self-check.
  EXPECT_FALSE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
}

TEST(Campaign, BusFaultCaughtAtBlockEnd) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kFetchBus;
  spec.trigger_index = 5;  // somewhere inside the loop
  spec.xor_mask = 1U << 3;
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_TRUE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
}

TEST(Campaign, PostIdFaultEscapesTheMonitor) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kPostIdLatch;
  spec.trigger_index = 3;
  spec.xor_mask = 1U << 16;  // corrupt an immediate: valid instr, wrong value
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_NE(trial.outcome, Outcome::kDetectedMismatch);
  EXPECT_NE(trial.outcome, Outcome::kDetectedMiss);
}

TEST(Campaign, OpcodeDestroyingFlipMayTrapInBaseline) {
  // Flipping high opcode bits usually produces an invalid encoding, which
  // the baseline decode catches (§6.3 credits these).
  cpu::CpuConfig off;
  CampaignRunner runner(checked_loop_program(), off);
  unsigned baseline_detected = 0;
  for (unsigned bit = 26; bit < 32; ++bit) {
    FaultSpec spec;
    spec.site = FaultSite::kMemoryText;
    spec.target_address = casm_::kTextBase + 8;
    spec.xor_mask = 1U << bit;
    if (runner.run_trial(spec).outcome == Outcome::kDetectedBaseline) ++baseline_detected;
  }
  EXPECT_GT(baseline_detected, 0U);
}

TEST(Campaign, UnexecutedFlipIsBenignUnderTheDynamicMonitor) {
  casm_::Asm a;
  a.func("main");
  casm_::Label skip = a.label();
  a.beq(kZero, kZero, skip);
  a.addiu(kT0, kT0, 1);  // never executed
  a.bind(skip);
  a.sys_exit(0);
  CampaignRunner runner(a.finalize(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 4;  // the dead instruction
  spec.xor_mask = 0xF;
  EXPECT_EQ(runner.run_trial(spec).outcome, Outcome::kBenign);
}

// §6.3: the XOR checksum detects every odd number of bit flips in an
// executed block — parameterized over flip counts.
class OddFlipGuarantee : public ::testing::TestWithParam<unsigned> {};

TEST_P(OddFlipGuarantee, OddFlipsInOneExecutedWordNeverEscapeTheHash) {
  const unsigned bits = GetParam();
  CampaignRunner runner(checked_loop_program(), monitored_config());
  support::Rng rng(bits);
  for (int trial = 0; trial < 25; ++trial) {
    std::uint32_t mask = 0;
    while (support::popcount32(mask) < bits) mask |= 1U << rng.below(32);
    FaultSpec spec;
    spec.site = FaultSite::kMemoryText;
    spec.target_address = casm_::kTextBase + 8;  // executed every iteration
    spec.xor_mask = mask;
    const TrialResult result = runner.run_trial(spec);
    // The corrupted word may also trap in decode or derail control flow, but
    // it can never complete its block with a matching hash: silent wrong
    // output and benign completion are both impossible.
    EXPECT_NE(result.outcome, Outcome::kBenign) << support::hex32(mask);
    EXPECT_NE(result.outcome, Outcome::kWrongOutput) << support::hex32(mask);
  }
}

INSTANTIATE_TEST_SUITE_P(OddCounts, OddFlipGuarantee, ::testing::Values(1U, 3U, 5U));

TEST(Campaign, RandomCampaignIsDeterministic) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  const CampaignSummary a = runner.run_random(FaultSite::kFetchBus, 1, 40, 99);
  const CampaignSummary b = runner.run_random(FaultSite::kFetchBus, 1, 40, 99);
  EXPECT_EQ(a.detected_mismatch, b.detected_mismatch);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.trials, 40U);
}

bool summaries_identical(const CampaignSummary& a, const CampaignSummary& b) {
  return a.trials == b.trials && a.detected_mismatch == b.detected_mismatch &&
         a.detected_miss == b.detected_miss && a.detected_baseline == b.detected_baseline &&
         a.wrong_output == b.wrong_output && a.benign == b.benign && a.hang == b.hang;
}

TEST(Campaign, ParallelCampaignIsBitIdenticalToSerial) {
  // The core contract of the parallel engine: for a given seed, the summary
  // must not depend on the job count — every field, not just the rates.
  CampaignRunner runner(checked_loop_program(), monitored_config());
  const CampaignSummary serial = runner.run_random(FaultSite::kFetchBus, 2, 120, 7, 1);
  for (const unsigned jobs : {2U, 4U, 8U}) {
    const CampaignSummary parallel = runner.run_random(FaultSite::kFetchBus, 2, 120, 7, jobs);
    EXPECT_TRUE(summaries_identical(serial, parallel)) << jobs << " jobs";
  }
}

TEST(Campaign, ParallelDeterminismAcrossSitesOnRealWorkload) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  CampaignRunner runner(image, monitored_config());
  for (const FaultSite site :
       {FaultSite::kMemoryText, FaultSite::kFetchBus, FaultSite::kPostIdLatch}) {
    const CampaignSummary serial = runner.run_random(site, 1, 60, 13, 1);
    const CampaignSummary parallel = runner.run_random(site, 1, 60, 13, 4);
    EXPECT_TRUE(summaries_identical(serial, parallel)) << fault_site_name(site);
  }
}

TEST(Campaign, ThreadedEngineDoesNotChangeCampaignResults) {
  // The tamper-safety contract of the threaded engine at campaign
  // granularity: across every site that corrupts fetched words (memory
  // rewrites, single and paired bus flips, post-ID latch faults,
  // cache-resident flips through a live I-cache), the fused handlers and the
  // chained block translation cache must reproduce the interpreter's outcome
  // counts bit for bit (every injected fault that lands on a translated
  // block must replay through the interpreter identically). The interpreter decodes
  // through its word-tagged predecode cache, so the same comparison holds
  // that cache to the threaded engine's fresh decodes.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig interp = monitored_config();
  interp.engine = cpu::Engine::kSwitch;
  cpu::CpuConfig threaded = interp;
  threaded.engine = cpu::Engine::kThreaded;
  CampaignRunner a(image, interp);
  CampaignRunner b(image, threaded);
  for (const FaultSite site :
       {FaultSite::kMemoryText, FaultSite::kFetchBus, FaultSite::kFetchBusPaired,
        FaultSite::kPostIdLatch, FaultSite::kICacheLine}) {
    const CampaignSummary sa = a.run_random(site, 1, 60, 13);
    const CampaignSummary sb = b.run_random(site, 1, 60, 13);
    EXPECT_TRUE(summaries_identical(sa, sb)) << fault_site_name(site);
  }
}

TEST(Campaign, MonitoredDetectionDominatesUnmonitored) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig on = monitored_config();
  cpu::CpuConfig off;
  CampaignRunner monitored(image, on);
  CampaignRunner plain(image, off);
  const CampaignSummary with_cic = monitored.run_random(FaultSite::kFetchBus, 1, 60, 5);
  const CampaignSummary without = plain.run_random(FaultSite::kFetchBus, 1, 60, 5);
  EXPECT_GT(with_cic.detection_rate_effective(), without.detection_rate_effective());
  EXPECT_GT(with_cic.detection_rate_effective(), 0.9);
}

TEST(Campaign, ICacheResidentFaultCaught) {
  // A realistically sized program, so the final self-check block (whose
  // trap can fire before the block-terminating lookup — the paper's
  // end-of-block detection latency) is a negligible fraction of the code.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  CampaignRunner runner(image, monitored_config());
  const CampaignSummary summary = runner.run_random(FaultSite::kICacheLine, 1, 40, 11);
  // Many flips land in untouched line words (benign); nearly every
  // consequential one is detected in hardware.
  EXPECT_GT(summary.detected(), 0U);
  EXPECT_LE(summary.wrong_output, 2U);
  EXPECT_GT(summary.detected(), summary.wrong_output);

  // Icache-line trials add the I-cache to the campaign machine, which has
  // it off: both constructors reject one with it on.
  cpu::CpuConfig cached = monitored_config();
  cached.icache.enabled = true;
  EXPECT_THROW(CampaignRunner(image, cached), support::CicError);
  EXPECT_THROW(CampaignRunner(image, cached, {}, runner.export_golden()), support::CicError);
}

// `count` random one-bit faults at `site`, triggers uniform over the golden
// run (memory-text targets uniform over the text).
std::vector<FaultSpec> random_faults(const CampaignRunner& runner, const casm_::Image& image,
                                     FaultSite site, unsigned count, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<FaultSpec> specs(count);
  for (FaultSpec& spec : specs) {
    spec.site = site;
    spec.xor_mask = 1U << rng.below(32);
    spec.trigger_index = rng.below(runner.golden_instructions());
    spec.target_address =
        image.text_base + 4 * static_cast<std::uint32_t>(rng.below(image.text.size()));
  }
  return specs;
}

TEST(Campaign, CheckpointsDoNotChangeCampaignResults) {
  // The campaign accelerator's core contract: trials forked off golden
  // cursors, in trigger order (at any snapshot stride: the automatic one, a
  // pathological prime and a coarse one), must reproduce full re-execution
  // trial for trial — the per-trial cell vectors, not just the outcome
  // counts, so a change that swaps outcomes between trials fails too — at
  // every site, on both engines, at --jobs 1 and 4 (several cursors share a
  // pool). The memory-text rows also pin down the shared COW image, which
  // checkpoint-off trials read through as well. Every runner is reused
  // across legs, so later legs find their cursors past the early triggers.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  const FaultSite sites[] = {FaultSite::kMemoryText, FaultSite::kFetchBus,
                             FaultSite::kFetchBusPaired, FaultSite::kPostIdLatch,
                             FaultSite::kICacheLine};
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    cpu::CpuConfig config = monitored_config();
    config.engine = engine;
    CampaignRunner fast(image, config);  // checkpoints default on, auto stride
    CampaignRunner prime(image, config, {true, 97});
    CampaignRunner coarse(image, config, {true, 4096});
    CampaignRunner slow(image, config, {false, 0});
    ASSERT_TRUE(fast.checkpoints_enabled());
    ASSERT_FALSE(slow.checkpoints_enabled());
    // The golden run is long enough for restores past snapshot 0 at 4096.
    ASSERT_GT(coarse.snapshot_count(), 2U);
    for (const FaultSite site : sites) {
      const exp::Cells want = exp::run_all(slow.sweep(site, 1, 60, 13), 1);
      const std::string where =
          std::string(fault_site_name(site)) + ", engine " + std::string(cpu::engine_name(engine));
      for (const unsigned jobs : {1U, 4U}) {
        EXPECT_EQ(exp::run_all(fast.sweep(site, 1, 60, 13), jobs), want)
            << where << ", jobs " << jobs;
      }
      for (CampaignRunner* strided : {&prime, &coarse}) {
        EXPECT_EQ(exp::run_all(strided->sweep(site, 1, 60, 13), 1), want)
            << where << ", stride " << strided->checkpoint_stride();
      }
    }
    EXPECT_GT(fast.forks(), 0U) << cpu::engine_name(engine);

    // Outside a sweep nothing orders the trials: run_trial in descending
    // trigger order sends every fork back through a cursor past its trigger.
    CampaignRunner descending(image, config);
    for (const FaultSite site : sites) {
      std::vector<FaultSpec> faults = random_faults(slow, image, site, 30, 41);
      std::sort(faults.begin(), faults.end(), [](const FaultSpec& a, const FaultSpec& b) {
        return a.trigger_index > b.trigger_index;
      });
      for (const FaultSpec& spec : faults) {
        const TrialResult got = descending.run_trial(spec);
        const TrialResult want = slow.run_trial(spec);
        EXPECT_EQ(got.outcome, want.outcome)
            << fault_site_name(site) << " trigger " << spec.trigger_index << " mask "
            << support::hex32(spec.xor_mask) << ", engine " << cpu::engine_name(engine);
        EXPECT_EQ(got.exit_reason, want.exit_reason);
      }
    }
    EXPECT_GT(descending.restores(), descending.forks()) << cpu::engine_name(engine);
  }
}

TEST(Campaign, CheckpointAccountingTracksRestores) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  CampaignRunner fast(image, monitored_config());
  EXPECT_GT(fast.snapshot_count(), 1U);  // snapshot 0 plus at least one more
  EXPECT_GT(fast.checkpoint_stride(), 0U);
  EXPECT_EQ(fast.restores(), 0U);
  fast.run_random(FaultSite::kFetchBus, 1, 40, 7);
  // Triggers are uniform over the golden run, so with snapshots every 1024
  // instructions nearly every trial restores and skips a nonzero prefix.
  EXPECT_GT(fast.restores(), 0U);
  EXPECT_GT(fast.skipped_instructions(), 0U);

  // Memory-text trials fork where the golden run first reads the flipped
  // word, which the one lazy text walk dates; the constructor walks nothing.
  CampaignRunner text(image, monitored_config());
  EXPECT_EQ(text.text_walk_instructions(), 0U);
  text.run_random(FaultSite::kMemoryText, 1, 40, 7);
  EXPECT_GT(text.forks(), 0U);
  EXPECT_GE(text.restores(), text.forks());
  EXPECT_GT(text.skipped_instructions(), 0U);
  EXPECT_EQ(text.text_walk_instructions(), text.golden_instructions());

  CampaignRunner slow(image, monitored_config(), {false, 0});
  slow.run_random(FaultSite::kFetchBus, 1, 40, 7);
  EXPECT_EQ(slow.snapshot_count(), 0U);
  EXPECT_EQ(slow.restores(), 0U);
}

TEST(Campaign, InstructionCountersSplitTrialsCursorsAndRestores) {
  // Who executed what, on a small campaign per site: every restore the
  // campaign made (trial forks and cursor repositionings) installs a prefix
  // no engine executed, so engine.instructions.restored must equal
  // campaign.skipped_instructions and engine.instructions stays their sum
  // with engine.instructions.executed. The cursor publishes its walk like a
  // trial publishes its suffix; in fork-point order one cursor walks the
  // golden run at most once. Memory-text and icache-line campaigns also
  // publish the one text walk, which runs the golden run once. Every trial
  // forks but an inert I-cache flip, which takes no machine, so it publishes
  // nothing; the others share pooled trial machines.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  for (const FaultSite site :
       {FaultSite::kFetchBus, FaultSite::kMemoryText, FaultSite::kICacheLine}) {
    const std::string where(fault_site_name(site));
    CampaignRunner runner(image, monitored_config());
    const std::vector<std::uint64_t> before = obs::counter_values();
    runner.run_random(site, 1, 60, 13, 1);
    std::map<std::string, std::uint64_t> delta;
    for (const auto& [name, value] : obs::counter_delta(before)) delta[name] = value;

    EXPECT_EQ(delta["engine.instructions"],
              delta["engine.instructions.executed"] + delta["engine.instructions.restored"])
        << where;
    EXPECT_EQ(delta["engine.instructions.restored"], delta["campaign.skipped_instructions"])
        << where;
    EXPECT_EQ(delta["campaign.skipped_instructions"], runner.skipped_instructions()) << where;
    EXPECT_EQ(delta["campaign.snapshot_restores"], runner.restores()) << where;
    EXPECT_EQ(delta["campaign.forks"], runner.forks()) << where;
    EXPECT_EQ(delta["campaign.cursor_instructions"], runner.cursor_instructions()) << where;
    EXPECT_EQ(delta["campaign.text_walk_instructions"], runner.text_walk_instructions()) << where;
    EXPECT_EQ(delta["campaign.inert_flips"], runner.inert_flips()) << where;
    EXPECT_EQ(delta["campaign.trials"], 60U) << where;
    const bool walks = site != FaultSite::kFetchBus;
    EXPECT_EQ(runner.text_walk_instructions(), walks ? runner.golden_instructions() : 0U)
        << where;
    // The one cursor, the text walk where there is one, and the one trial
    // machine: at --jobs 1 it serves every trial, a memory-text trial whose
    // rewrite cleared its translation cache included.
    EXPECT_EQ(runner.trial_machines(), 1U) << where;
    EXPECT_EQ(delta["engine.runs"], (walks ? 2U : 1U) + 1U) << where;
    EXPECT_GT(runner.forks(), 50U) << where;
    EXPECT_EQ(runner.forks() + runner.inert_flips(), 60U) << where;
    EXPECT_GE(runner.restores(), runner.forks()) << where;
    EXPECT_GT(runner.cursor_instructions(), 0U) << where;
    EXPECT_LE(runner.cursor_instructions(), runner.golden_instructions()) << where;
    // What the trials themselves executed. A bus, memory-text or live
    // I-cache fault forks where it is first read and is caught within a few
    // blocks of its fork, far below a stride of clean prefix per trial; the
    // inert I-cache flips run nothing.
    const std::uint64_t trial_executed = delta["engine.instructions.executed"] -
                                         runner.cursor_instructions() -
                                         runner.text_walk_instructions();
    EXPECT_LT(trial_executed, 60U * 50U) << where;
    if (site == FaultSite::kICacheLine) {
      EXPECT_GT(runner.inert_flips(), 0U);
    } else {
      EXPECT_EQ(runner.inert_flips(), 0U) << where;
    }
  }
}

// Each of `faults` by full re-execution on `image` on the machine `config`,
// on the switch engine: the reference.
std::vector<TrialResult> reference_trials(const casm_::Image& image, cpu::CpuConfig config,
                                          const std::vector<FaultSpec>& faults) {
  config.engine = cpu::Engine::kSwitch;
  const CampaignRunner reference(image, config, {false, 0});
  std::vector<TrialResult> wants;
  for (const FaultSpec& spec : faults) wants.push_back(reference.run_trial(spec));
  return wants;
}

// Each of `faults`, run checkpointed on `image` on both engines, must match
// `wants`, its reference trials on the same machine (`config`). Adds the
// checkpointed runners' forks and inert flips to `forks` and `inert` when
// given.
void expect_trials_match(const casm_::Image& image, const cpu::CpuConfig& config,
                         const std::vector<FaultSpec>& faults,
                         const std::vector<TrialResult>& wants, const std::string& what,
                         std::uint64_t* forks = nullptr, std::uint64_t* inert = nullptr) {
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    cpu::CpuConfig trial_config = config;
    trial_config.engine = engine;
    const CampaignRunner runner(image, trial_config);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const TrialResult got = runner.run_trial(faults[i]);
      const std::string where = what + " " + std::string(fault_site_name(faults[i].site)) +
                                " address " + support::hex32(faults[i].target_address) +
                                " trigger " + std::to_string(faults[i].trigger_index) +
                                " mask " + support::hex32(faults[i].xor_mask) + ", engine " +
                                std::string(cpu::engine_name(engine));
      EXPECT_EQ(got.outcome, wants[i].outcome) << where;
      EXPECT_EQ(got.exit_reason, wants[i].exit_reason) << where;
    }
    if (forks != nullptr) *forks += runner.forks();
    if (inert != nullptr) *inert += runner.inert_flips();
  }
}

// expect_trials_match against full re-execution on `config`; returns the
// reference trials.
std::vector<TrialResult> expect_trials_match_reference(const casm_::Image& image,
                                                       const cpu::CpuConfig& config,
                                                       const std::vector<FaultSpec>& faults,
                                                       const std::string& what,
                                                       std::uint64_t* forks = nullptr,
                                                       std::uint64_t* inert = nullptr) {
  std::vector<TrialResult> wants = reference_trials(image, config, faults);
  expect_trials_match(image, config, faults, wants, what, forks, inert);
  return wants;
}

std::string machine_name(const cpu::CpuConfig& config) {
  return config.monitoring ? "monitor on" : "monitor off";
}

TEST(ResidentFaults, EveryFlippedTextWordMatchesFullReExecution) {
  // Memory-text trials fork where the golden run first reads the flipped
  // word: its first fetch, load or store. One random flip in every text word
  // of a kernel must match full re-execution on both engines, and every
  // trial must fork.
  const casm_::Image image = workloads::build_workload("sha", {0.02, 42});
  support::Rng rng(5);
  std::vector<FaultSpec> faults(image.text.size());
  for (std::size_t w = 0; w < faults.size(); ++w) {
    faults[w].site = FaultSite::kMemoryText;
    faults[w].target_address = image.text_base + 4 * static_cast<std::uint32_t>(w);
    faults[w].xor_mask = 1U << rng.below(32);
  }
  std::uint64_t forks = 0;
  const std::vector<TrialResult> wants =
      expect_trials_match_reference(image, monitored_config(), faults, "sha", &forks);
  EXPECT_EQ(forks, 2 * faults.size());  // over two engines
  EXPECT_GT(std::count_if(wants.begin(), wants.end(),
                          [](const TrialResult& t) { return t.outcome != Outcome::kBenign; }),
            0);
}

// Loads one text word and stores to another before either is fetched: the
// first word of `fn` is printed through a load, and its second, a nop, is
// overwritten with zero (the nop's own encoding), so the golden text never
// changes. `fn` fills one I-cache line of its own.
casm_::Image text_reading_program() {
  casm_::Asm a;
  a.func("fn");
  a.addiu(kT4, kT4, 1);  // loaded, later run
  a.nop();               // stored over, later run
  a.ret();
  a.nop();
  a.func("main");
  a.li(kT0, casm_::kTextBase);
  a.lw(kT1, 0, kT0);
  a.sw(kZero, 4, kT0);
  a.sys_print_int(kT1);
  a.call("fn");
  a.sys_exit(0);
  return a.finalize();
}

TEST(ResidentFaults, LoadsAndStoresOfTextAreReads) {
  // A flip in the loaded word changes the printed value (wrong output once
  // the monitor is off), so its trial must fork at the load, not at the
  // word's later fetch. A flip in the stored-over word is erased by the
  // store (benign), so its trial must fork at or before the store.
  const casm_::Image image = text_reading_program();
  std::vector<FaultSpec> faults;
  for (const std::uint32_t address : {casm_::kTextBase, casm_::kTextBase + 4}) {
    for (unsigned bit = 0; bit < 32; ++bit) {
      FaultSpec spec;
      spec.site = FaultSite::kMemoryText;
      spec.target_address = address;
      spec.xor_mask = 1U << bit;
      faults.push_back(spec);
    }
  }
  for (const bool monitoring : {true, false}) {
    cpu::CpuConfig config = monitored_config();
    config.monitoring = monitoring;
    std::uint64_t forks = 0;
    const std::vector<TrialResult> wants =
        expect_trials_match_reference(image, config, faults, machine_name(config), &forks);
    EXPECT_EQ(forks, 2 * faults.size()) << machine_name(config);
    for (std::size_t i = 32; i < 64; ++i) {
      EXPECT_EQ(wants[i].outcome, Outcome::kBenign) << machine_name(config) << " bit " << i - 32;
    }
    if (!monitoring) {
      EXPECT_GT(std::count_if(wants.begin(), wants.begin() + 32,
                              [](const TrialResult& t) {
                                return t.outcome == Outcome::kWrongOutput;
                              }),
                0) << machine_name(config);
    }
  }
}

// Every I-cache-line fault of a program: each trigger, each single-bit mask
// (the mask also seeds which resident bit flips).
std::vector<FaultSpec> every_icache_fault(std::uint64_t golden_instructions) {
  std::vector<FaultSpec> faults;
  for (std::uint64_t trigger = 0; trigger < golden_instructions; ++trigger) {
    for (unsigned bit = 0; bit < 32; ++bit) {
      FaultSpec spec;
      spec.site = FaultSite::kICacheLine;
      spec.trigger_index = trigger;
      spec.xor_mask = 1U << bit;
      faults.push_back(spec);
    }
  }
  return faults;
}

TEST(ResidentFaults, InertICacheFlipsMatchFullReExecution) {
  // An I-cache flip whose address the golden run never fetches again, at or
  // after the trigger, is inert: the trial takes the golden result without
  // running on. Every trigger of a small loop with every mask, so flips land
  // on words fetched for the last time exactly at their trigger (live: the
  // next fetch reads the flip) as well as on words already done (inert). The
  // monitored machine catches a live flip within its block; unmonitored,
  // many of them hang until the watchdog.
  const casm_::Image image = checked_loop_program();
  const cpu::CpuConfig config = monitored_config();
  const CampaignRunner probe(image, config);
  std::uint64_t inert = 0;
  const std::vector<TrialResult> wants = expect_trials_match_reference(
      image, config, every_icache_fault(probe.golden_instructions()), machine_name(config),
      nullptr, &inert);
  EXPECT_GT(inert, 0U);
  EXPECT_GT(std::count_if(wants.begin(), wants.end(),
                          [](const TrialResult& t) { return t.outcome != Outcome::kBenign; }),
            0);
}

// Every trigger of `image` on the I-cache machine of `config`, each with a
// 1-, a 2- and a 3-bit mask, or with one mask whose weight cycles through
// those unless `every_weight`. A fault's mask seeds which resident bits flip,
// so to cover flips that cancel and flips in line padding past the text end
// this draws each candidate mask's flips from the lines a clean run holds at
// the trigger, as a trial does, and adds up to four of each kind: 2-bit
// masks whose two flips hit the same bit, and 1- or 2-bit masks with a flip
// past the text end. Counts those in `cancelling` and `padding`.
std::vector<FaultSpec> icache_faults_by_weight(const casm_::Image& image, cpu::CpuConfig config,
                                               bool every_weight, unsigned* cancelling,
                                               unsigned* padding) {
  config.icache.enabled = true;
  const mem::ICacheConfig& geometry = config.icache;
  cpu::Cpu clean(config, image);
  std::vector<FaultSpec> faults;
  for (std::uint64_t trigger = 0; !clean.run_until(trigger).has_value(); ++trigger) {
    const mem::ICache& icache = *clean.fetch_path().icache();
    const std::vector<std::uint32_t> valid = icache.valid_lines();
    const auto fault = [trigger](std::uint32_t mask) {
      return FaultSpec{FaultSite::kICacheLine, mask, trigger, 0};
    };
    const auto draw = [&](const FaultSpec& spec) {
      support::Rng rng(icache_flip_seed(spec));
      std::vector<mem::ICache::Flip> flips;
      for (unsigned n = 0; n < support::popcount32(spec.xor_mask); ++n) {
        if (const auto flip = mem::ICache::choose_flip(valid, geometry.words_per_line, rng)) {
          flips.push_back(*flip);
        }
      }
      return flips;
    };
    for (const unsigned weight : {1U, 2U, 3U}) {
      if (every_weight || trigger % 3 == weight - 1) {
        const std::uint32_t ones = (1U << weight) - 1;
        faults.push_back(fault(ones << (trigger % (33 - weight))));
      }
    }
    for (unsigned low = 0; low < 32 && *cancelling < 4; ++low) {
      for (unsigned high = low + 1; high < 32; ++high) {
        const FaultSpec spec = fault((1U << low) | (1U << high));
        const std::vector<mem::ICache::Flip> flips = draw(spec);
        if (flips.size() == 2 && flips[0] == flips[1]) {
          faults.push_back(spec);
          ++*cancelling;
          break;
        }
      }
    }
    const auto word_address = [&](const mem::ICache::Flip& flip) {
      const std::uint32_t tag = icache.line(flip.line).tag;
      return mem::ICache::word_address(geometry, {flip.line, tag, flip.word});
    };
    const bool padded = std::any_of(valid.begin(), valid.end(), [&](std::uint32_t line) {
      return word_address({line, geometry.words_per_line - 1, 0}) >= image.text_end();
    });
    for (unsigned low = 0; padded && low < 32 && *padding < 4; ++low) {
      for (unsigned high = low; high < 32; ++high) {
        const FaultSpec spec = fault((1U << low) | (1U << high));
        const std::vector<mem::ICache::Flip> flips = draw(spec);
        if (std::any_of(flips.begin(), flips.end(), [&](const mem::ICache::Flip& flip) {
              return word_address(flip) >= image.text_end();
            })) {
          faults.push_back(spec);
          ++*padding;
          break;
        }
      }
    }
  }
  return faults;
}

TEST(ResidentFaults, ICacheFlipsForkAtFirstReadMatchFullReExecution) {
  // When the golden I-cache run neither stores into its text nor evicts, an
  // icache-line trial draws its flips from the I-cache state the text walk
  // dates for its trigger, and forks at the first instruction at or after
  // the trigger whose fetch reads a flipped word; one whose flips are never
  // fetched again takes no machine. Every trigger with 1-, 2- and 3-bit masks,
  // cancelling flips and padding flips included, must match full
  // re-execution, and every trial either forks or is inert. A two-line cache
  // that the golden run evicts from is not planned: every trial forks at its
  // trigger and draws its flips there, and none is inert.
  unsigned cancelling = 0;
  unsigned padding = 0;
  for (const bool sha : {false, true}) {
    const casm_::Image image =
        sha ? workloads::build_workload("sha", {0.02, 42}) : checked_loop_program();
    const std::string name = sha ? "sha" : "checked loop";
    // Every weight at every trigger of the loop; one per trigger of sha.
    const std::vector<FaultSpec> faults =
        icache_faults_by_weight(image, monitored_config(), !sha, &cancelling, &padding);
    std::uint64_t forks = 0;
    std::uint64_t inert = 0;
    expect_trials_match_reference(image, monitored_config(), faults, name, &forks, &inert);
    EXPECT_GT(forks, 0U) << name;
    EXPECT_GT(inert, 0U) << name;
    EXPECT_EQ(forks + inert, 2 * faults.size()) << name;  // over two engines
  }
  EXPECT_GT(cancelling, 0U);
  EXPECT_GT(padding, 0U);

  const casm_::Image image = checked_loop_program();
  cpu::CpuConfig config = monitored_config();
  config.icache.num_lines = 2;  // the geometry icache-line trials add
  unsigned found = 4;  // no cancelling or padding masks: unplanned flips need none
  const std::vector<FaultSpec> faults =
      icache_faults_by_weight(image, config, true, &found, &found);
  std::uint64_t forks = 0;
  std::uint64_t inert = 0;
  expect_trials_match_reference(image, config, faults, "evicting", &forks, &inert);
  EXPECT_EQ(forks, 2U * faults.size());
  EXPECT_EQ(inert, 0U);
}

// Rewrites its own code between two calls of `fn`: the nop becomes `jr ra`.
// With the I-cache off the second call returns early; with it on, the line
// cached by the first call still holds the nop, so the call falls through.
// Past the store the two machines part ways, and a summary walked with the
// I-cache off no longer describes the one with it on. The two print 18 and
// 34.
casm_::Image self_modifying_program() {
  casm_::Asm jr_ra;
  jr_ra.ret();
  casm_::Asm a;
  a.func("fn");
  a.addiu(kT5, kT5, 1);
  a.nop();  // rewritten to `jr ra`
  a.addiu(kT5, kT5, 16);
  a.ret();
  a.func("main");
  a.call("fn");
  a.li(kT0, casm_::kTextBase + 4);
  a.li(kT1, jr_ra.finalize().text[0]);
  a.sw(kT1, 0, kT0);
  while (a.here() % 16 != 12) a.nop();
  a.call("fn");  // the last word of its line: what follows starts a new one
  a.sys_print_int(kT5);
  a.sys_exit(0);
  return a.finalize();
}

// As self_modifying_program, but the store turns the first `jr ra` of `fn`
// into a nop, so with the I-cache off the second call runs on through twenty
// more instructions: the cached run is the shorter one (18 instructions
// against 39), and prints 2 against 322.
casm_::Image shortening_program() {
  casm_::Asm a;
  a.func("fn");
  a.addiu(kT5, kT5, 1);
  a.ret();  // rewritten to a nop
  for (int i = 0; i < 20; ++i) a.addiu(kT5, kT5, 16);
  a.ret();
  a.func("main");
  a.call("fn");
  a.li(kT0, casm_::kTextBase + 4);
  a.li(kT1, 0);  // a nop's encoding
  a.sw(kT1, 0, kT0);
  while (a.here() % 16 != 12) a.nop();
  a.call("fn");  // the last word of its line: what follows starts a new one
  a.sys_print_int(kT5);
  a.sys_exit(0);
  return a.finalize();
}

TEST(ResidentFaults, TextStoresEndWhatTheSummaryKnowsOfAnICacheMachine) {
  // Past a text store the I-cache machine that icache-line trials run on
  // parts ways with the campaign machine, so the text walk's fill times do
  // not describe its golden run: no I-cache flip is planned or inert, each
  // trial forks at its trigger, held below the end of the I-cache machine's
  // own golden run, and is classified against that run, so one that flips
  // nothing (at trigger 0 no line is resident yet) is benign. Every word
  // with every mask, every trigger of the campaign machine's run with every
  // mask, on two programs whose cached runs print other values, one of them
  // in fewer instructions. The monitor is off: its golden run reaches the
  // rewritten block, which the monitor rightly rejects.
  for (const casm_::Image& image : {self_modifying_program(), shortening_program()}) {
    cpu::CpuConfig config = monitored_config();
    config.monitoring = false;
    const CampaignRunner probe(image, config);
    std::vector<FaultSpec> faults = every_icache_fault(probe.golden_instructions());
    for (std::uint32_t w = 0; w < image.text.size(); ++w) {
      for (unsigned bit = 0; bit < 32; ++bit) {
        FaultSpec spec;
        spec.site = FaultSite::kMemoryText;
        spec.target_address = image.text_base + 4 * w;
        spec.xor_mask = 1U << bit;
        faults.push_back(spec);
      }
    }
    const std::string what = std::to_string(image.text.size()) + " text words";
    std::uint64_t inert = 0;
    const std::vector<TrialResult> wants =
        expect_trials_match_reference(image, config, faults, what, nullptr, &inert);
    EXPECT_EQ(inert, 0U) << what;
    for (std::size_t i = 0; i < 32; ++i) {
      ASSERT_EQ(faults[i].trigger_index, 0U);
      EXPECT_EQ(wants[i].outcome, Outcome::kBenign) << what << " bit " << i;
    }
  }
}

TEST(Convergence, EveryTrialMatchesFullReExecution) {
  // Convergence early-exit is a pure execution strategy: per trial, outcome
  // and exit reason must equal full re-execution (checkpoints off) on both
  // engines, on two kernels and on both machines. The
  // transient sites must actually re-converge somewhere (a single fetch-bus
  // flip is always caught on the monitored machine, so it converges only on
  // the unmonitored one); memory-text and icache-line corruption stays
  // resident, so those trials never stop early.
  const FaultSite sites[] = {FaultSite::kFetchBus, FaultSite::kFetchBusPaired,
                             FaultSite::kPostIdLatch, FaultSite::kMemoryText,
                             FaultSite::kICacheLine};
  for (const char* kernel : {"bitcount", "dijkstra"}) {
    const casm_::Image image = workloads::build_workload(kernel, {0.02, 42});
    std::map<FaultSite, unsigned> converged;
    for (const bool monitoring : {true, false}) {
      cpu::CpuConfig reference_config = monitored_config();
      reference_config.monitoring = monitoring;
      reference_config.engine = cpu::Engine::kSwitch;
      const CampaignRunner reference(image, reference_config, {false, 0});
      std::map<FaultSite, std::vector<FaultSpec>> faults;
      std::map<FaultSite, std::vector<TrialResult>> wants;
      for (const FaultSite site : sites) {
        faults[site] = random_faults(reference, image, site, 25, 17);
        for (const FaultSpec& spec : faults[site]) wants[site].push_back(reference.run_trial(spec));
      }
      EXPECT_EQ(reference.converged(), 0U);
      EXPECT_EQ(reference.convergence_checks(), 0U);
      for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
        cpu::CpuConfig config = reference_config;
        config.engine = engine;
        const CampaignRunner runner(image, config);
        std::uint64_t stopped = 0;
        std::uint64_t skipped = 0;
        for (const FaultSite site : sites) {
          for (std::size_t i = 0; i < faults[site].size(); ++i) {
            const FaultSpec& spec = faults[site][i];
            const TrialResult& want = wants[site][i];
            const TrialResult got = runner.run_trial(spec);
            ASSERT_FALSE(want.converged_at.has_value());
            EXPECT_EQ(got.outcome, want.outcome)
                << kernel << " " << fault_site_name(site) << " trigger " << spec.trigger_index
                << " mask " << support::hex32(spec.xor_mask) << ", engine "
                << cpu::engine_name(engine) << " monitor " << monitoring;
            EXPECT_EQ(got.exit_reason, want.exit_reason);
            if (got.converged_at.has_value()) {
              EXPECT_EQ(got.outcome, Outcome::kBenign);
              ++converged[site];
              ++stopped;
              skipped += runner.golden_instructions() - *got.converged_at;
            }
          }
        }
        EXPECT_EQ(runner.converged(), stopped);
        EXPECT_EQ(runner.converged_skipped_instructions(), skipped);
        EXPECT_GE(runner.convergence_checks(), stopped);
      }
    }
    EXPECT_GT(converged[FaultSite::kFetchBus], 0U) << kernel;
    EXPECT_GT(converged[FaultSite::kFetchBusPaired], 0U) << kernel;
    EXPECT_GT(converged[FaultSite::kPostIdLatch], 0U) << kernel;
    EXPECT_EQ(converged[FaultSite::kMemoryText], 0U) << kernel;
    EXPECT_EQ(converged[FaultSite::kICacheLine], 0U) << kernel;
  }
}

TEST(Campaign, PooledTrialMachinesMatchFullReExecution) {
  // Trials restore their forks into pooled trial machines that earlier
  // trials ran on, and reuse must give what a fresh machine gives. One
  // runner per engine runs trials of all five sites interleaved in
  // descending-trigger order, so a later trial runs past the points where
  // earlier trials' faults fired, and the trigger-0 trials (for memory-text,
  // a flip of the entry word, which instruction 0 reads) come last, when the
  // pool's machines have run other trials. Per trial, outcome and exit
  // reason must equal full re-execution, and a transient trial's convergence
  // point must equal the one it reaches on a fresh machine: as the first
  // trial of a runner rebuilt from the same golden state.
  //
  // Machines must really be reused. Run one at a time, trials leave at most
  // one idle machine per pool, so a trial builds no machine when one is idle,
  // a trial at instruction 0 included, and builds one only at its pool's
  // first trial. On the threaded engine a memory-text trial that reaches a
  // translated copy of its flipped word clears the machine's translation
  // cache; that machine must serve a later trial all the same.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  const FaultSite sites[] = {FaultSite::kMemoryText, FaultSite::kFetchBus,
                             FaultSite::kFetchBusPaired, FaultSite::kPostIdLatch,
                             FaultSite::kICacheLine};
  const cpu::CpuConfig config = monitored_config();
  std::vector<FaultSpec> faults;
  {
    const CampaignRunner probe(image, config, {false, 0});
    for (const FaultSite site : sites) {
      std::vector<FaultSpec> drawn = random_faults(probe, image, site, 16, 53);
      FaultSpec first = drawn.front();
      first.trigger_index = 0;
      first.target_address = image.entry;
      drawn.push_back(first);
      faults.insert(faults.end(), drawn.begin(), drawn.end());
    }
  }
  std::stable_sort(faults.begin(), faults.end(), [](const FaultSpec& a, const FaultSpec& b) {
    return a.trigger_index > b.trigger_index;
  });
  const std::vector<TrialResult> wants = reference_trials(image, config, faults);
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    cpu::CpuConfig machine = config;
    machine.engine = engine;
    const CampaignRunner pooled(image, machine);
    const GoldenState state = pooled.export_golden();
    // Per pool (icache-line trials have their own): the site of the trial
    // that left its one idle machine, and whether that trial cleared the
    // machine's translation cache.
    std::optional<FaultSite> left_by[2];
    bool left_reset[2] = {false, false};
    unsigned machine_trials = 0;
    unsigned reused_across_sites = 0;
    unsigned reused_after_memory_text = 0;
    unsigned reused_after_reset = 0;
    unsigned reused_at_zero = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultSpec& spec = faults[i];
      const std::string where = "engine " + std::string(cpu::engine_name(engine)) + ": " +
                                std::string(fault_site_name(spec.site)) + " address " +
                                support::hex32(spec.target_address) + " trigger " +
                                std::to_string(spec.trigger_index) + " mask " +
                                support::hex32(spec.xor_mask);
      const std::uint64_t built_before = pooled.trial_machines();
      const std::uint64_t forks_before = pooled.forks();
      const std::uint64_t inert_before = pooled.inert_flips();
      const std::vector<std::uint64_t> counters_before = obs::counter_values();
      const TrialResult got = pooled.run_trial(spec);
      std::uint64_t resets = 0;
      for (const auto& [name, value] : obs::counter_delta(counters_before)) {
        if (name == "engine.tcache.resets") resets = value;
      }
      EXPECT_EQ(got.outcome, wants[i].outcome) << where;
      EXPECT_EQ(got.exit_reason, wants[i].exit_reason) << where;
      if (spec.site == FaultSite::kMemoryText || spec.site == FaultSite::kICacheLine) {
        EXPECT_FALSE(got.converged_at.has_value()) << where;
      } else {
        const CampaignRunner fresh(image, machine, {}, state);
        EXPECT_EQ(got.converged_at, fresh.run_trial(spec).converged_at) << where;
      }

      if (pooled.inert_flips() != inert_before) continue;  // took no machine
      ++machine_trials;
      EXPECT_EQ(pooled.forks(), forks_before + 1) << where;
      const int pool = spec.site == FaultSite::kICacheLine ? 1 : 0;
      const std::uint64_t built = pooled.trial_machines() - built_before;
      EXPECT_EQ(built, left_by[pool].has_value() ? 0U : 1U)
          << where << ": a trial builds no machine when one is idle";
      if (left_by[pool].has_value()) {
        reused_across_sites += *left_by[pool] != spec.site;
        reused_after_memory_text += *left_by[pool] == FaultSite::kMemoryText;
        reused_after_reset += left_reset[pool];
        reused_at_zero += spec.trigger_index == 0;
      }
      // Every machine goes back to its pool, a cleared one included.
      left_by[pool] = spec.site;
      left_reset[pool] = spec.site == FaultSite::kMemoryText && resets > 0;
    }
    const std::string what = "engine " + std::string(cpu::engine_name(engine));
    EXPECT_GT(reused_across_sites, 0U) << what;
    EXPECT_GT(reused_after_memory_text, 0U) << what;
    EXPECT_GT(reused_at_zero, 0U) << what;
    if (engine == cpu::Engine::kThreaded) {
      EXPECT_GT(reused_after_reset, 0U) << what << ": no cleared machine served a later trial";
    }
    EXPECT_LE(pooled.trial_machines(), 2U) << what;
    EXPECT_LT(pooled.trial_machines() * 4, machine_trials) << what;
  }
}

TEST(Convergence, PendingFaultNeverMatchesAtItsBoundary) {
  // A trial whose trigger sits exactly on a golden boundary forks there and
  // so starts in that boundary's golden state with its fault still to fire;
  // likewise a paired tamper whose second transfer is still pending there.
  // Matching at that boundary would call every such trial benign. The fault
  // is spent only past the trigger (past both transfers), so the first check
  // is a later boundary.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  for (const bool monitoring : {true, false}) {
    cpu::CpuConfig config = monitored_config();
    config.monitoring = monitoring;
    const CampaignRunner fast(image, config);
    const CampaignRunner slow(image, config, {false, 0});
    const cpu::LoadedImage loaded = cpu::preload_image(config, image);
    const CheckpointedGolden golden(config, image, loaded, 0);  // the schedule `fast` uses
    ASSERT_GT(golden.snapshot_count(), 3U);
    const cpu::Snapshot& boundary = golden.snapshots()[2];
    const std::pair<FaultSite, std::uint64_t> cases[] = {
        {FaultSite::kPostIdLatch, boundary.instructions},
        {FaultSite::kFetchBus, boundary.bus_transfers},
        {FaultSite::kFetchBusPaired, boundary.bus_transfers},
        {FaultSite::kFetchBusPaired, boundary.bus_transfers - 1},
    };
    unsigned consequential = 0;
    for (const auto& [site, trigger] : cases) {
      for (unsigned bit = 0; bit < 32; ++bit) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger_index = trigger;
        spec.xor_mask = 1U << bit;
        EXPECT_EQ(fast.plan(spec).converge_from, 3U)
            << fault_site_name(site) << " trigger " << trigger;
        const TrialResult got = fast.run_trial(spec);
        const TrialResult want = slow.run_trial(spec);
        EXPECT_EQ(got.outcome, want.outcome)
            << fault_site_name(site) << " trigger " << trigger << " bit " << bit;
        EXPECT_EQ(got.exit_reason, want.exit_reason);
        EXPECT_NE(got.converged_at, std::optional<std::uint64_t>(boundary.instructions))
            << fault_site_name(site) << " trigger " << trigger << " bit " << bit;
        if (want.outcome != Outcome::kBenign) ++consequential;
      }
    }
    // The flips that matter are the ones a premature match would misreport.
    EXPECT_GT(consequential, 0U);
  }
}

TEST(Campaign, PredecodeHitsCountOnlyInterpreterLookups) {
  // The threaded engine never consults the predecode cache, and a restored
  // prefix was never fetched at all: a threaded campaign reports no
  // predecode traffic while it executes plenty of instructions.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig config = monitored_config();
  config.engine = cpu::Engine::kThreaded;
  CampaignRunner runner(image, config);
  const std::vector<std::uint64_t> before = obs::counter_values();
  runner.run_random(FaultSite::kFetchBus, 1, 60, 13, 1);
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, value] : obs::counter_delta(before)) delta[name] = value;
  EXPECT_GT(delta["engine.instructions"], 0U);
  EXPECT_EQ(delta["engine.predecode.hits"], 0U);
  EXPECT_EQ(delta["engine.predecode.misses"], 0U);
}

TEST(Names, SitesAndOutcomes) {
  EXPECT_EQ(fault_site_name(FaultSite::kMemoryText), "memory-text");
  EXPECT_EQ(fault_site_name(FaultSite::kPostIdLatch), "post-id-latch");
  EXPECT_EQ(outcome_name(Outcome::kBenign), "benign");
  EXPECT_EQ(outcome_name(Outcome::kDetectedMismatch), "detected-mismatch");
}

TEST(Summary, RatesComputed) {
  CampaignSummary s;
  s.add(Outcome::kDetectedMismatch);
  s.add(Outcome::kBenign);
  s.add(Outcome::kWrongOutput);
  EXPECT_EQ(s.trials, 3U);
  EXPECT_DOUBLE_EQ(s.detection_rate_effective(), 0.5);
  EXPECT_NEAR(s.detection_rate_total(), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace cicmon::fault
