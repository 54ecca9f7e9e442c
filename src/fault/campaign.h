// Fault-injection campaign runner.
//
// Runs a program once clean (the golden run), then many times with one
// injected fault each, classifying every trial by how the fault was — or
// was not — caught. The classification separates the paper's claims:
//
//  * faults striking before the check point (memory, bus, I-cache) must be
//    caught by the monitor (hash mismatch, or hash miss when the flip
//    rewrites control flow into unknown regions);
//  * some flips are caught by the baseline microarchitecture itself
//    (invalid opcode / wild PC), which the paper credits in §6.3;
//  * post-ID faults escape the monitor by construction (§3.2);
//  * flips in never-executed words, or that hash-alias, escape entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "casm/image.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "exp/sweep.h"
#include "fault/fault.h"
#include "fault/golden.h"
#include "fault/golden_ser.h"
#include "support/rng.h"

namespace cicmon::fault {

enum class Outcome : std::uint8_t {
  kDetectedMismatch,  // monitor: hash mismatch (IHT or FHT)
  kDetectedMiss,      // monitor: block unknown to the FHT
  kDetectedBaseline,  // illegal opcode or wild PC (baseline trap)
  kWrongOutput,       // escaped all checks, produced wrong results
  kBenign,            // ran to completion with correct results
  kHang,              // watchdog expired (corrupted loop condition)
};

std::string_view outcome_name(Outcome outcome);

// True for outcomes where execution was stopped by *some* hardware check.
constexpr bool is_detected(Outcome outcome) {
  return outcome == Outcome::kDetectedMismatch || outcome == Outcome::kDetectedMiss ||
         outcome == Outcome::kDetectedBaseline;
}

struct TrialResult {
  Outcome outcome = Outcome::kBenign;
  cpu::ExitReason exit_reason = cpu::ExitReason::kExit;
  // Retired-instruction count of the golden snapshot at which the trial's
  // state rejoined the golden run (the trial stopped there, benign); empty
  // when it ran to its own end.
  std::optional<std::uint64_t> converged_at;
};

// How a trial runs, computed from its fault alone (CampaignRunner::plan).
struct TrialPlan {
  // The retired-instruction count at which the trial forks off its machine's
  // golden run and injects its fault (0 without checkpoints: a fresh machine).
  std::uint64_t fork_at = 0;
  // An icache-line trial's flips, drawn from the golden I-cache state at its
  // trigger and XORed into the cache at the fork; nullopt: the trial runs to
  // its trigger and draws them from its own cache there.
  std::optional<std::vector<mem::ICache::Flip>> flips;
  // The golden run never reads the planned flips: the trial takes the golden
  // result without running.
  bool inert = false;
  // Index of the first golden snapshot at which the trial may converge, past
  // the instruction where its transient fault is spent; snapshot_count() when
  // it never may.
  std::size_t converge_from = 0;
};

struct CampaignSummary {
  std::uint64_t trials = 0;
  std::uint64_t detected_mismatch = 0;
  std::uint64_t detected_miss = 0;
  std::uint64_t detected_baseline = 0;
  std::uint64_t wrong_output = 0;
  std::uint64_t benign = 0;
  std::uint64_t hang = 0;

  void add(Outcome outcome);
  std::uint64_t detected() const {
    return detected_mismatch + detected_miss + detected_baseline;
  }
  // Detection probability among trials where the fault mattered at all
  // (benign trials — unexecuted or harmless flips — excluded).
  double detection_rate_effective() const;
  // Detection probability over all trials.
  double detection_rate_total() const;
};

// Golden-run checkpointing (see fault/golden.h). Enabled by default: trials
// start from the golden state at their fork instead of re-simulating the
// clean prefix. A pure execution strategy — like the engine choice or the
// job count, it never changes a trial outcome (CI enforces byte-identity on
// vs off, and tests also at fixed strides) — so it is not a sweep parameter.
//
// The campaign machine has the I-cache off; icache-line trials add one of
// the configured geometry, and that machine has a golden run of its own,
// run on first use. Each trial follows the TrialPlan that
// CampaignRunner::plan computes from its fault alone, forks at plan.fork_at,
// a retired-instruction count of its machine's golden run held below the
// run's last instruction, and is classified against that run's console and
// exit code. With the I-cache off, bus transfer k is the fetch of
// instruction k, so that one clock serves every site:
//
//  * A transient fault (fetch-bus, fetch-bus-paired, post-ID) forks at its
//    trigger.
//  * A memory-text flip does nothing until something reads the word, so it
//    forks where the golden run first reads it (fetch, load or store) and
//    writes the flip there: every state before that point is the golden
//    run's plus one unread word.
//  * An I-cache flip is read only by a fetch of the flipped address, and any
//    refill of its line overwrites it. When the golden I-cache run neither
//    stores into its text nor evicts a line, the first fill of each line
//    gives its I-cache state at any trigger without running anything: the
//    plan draws the trial's flips from it (the draws mem::ICache::choose_flip
//    makes in a run paused at the trigger) and forks at the first
//    instruction at or after the trigger whose fetch reads a flipped word,
//    where the flips are XORed into the restored cache. A plan whose flips
//    the golden run never fetches again is inert: it takes the golden I-cache
//    run's result (benign) without taking a machine. On any other golden
//    I-cache run a trial forks at its trigger and draws its flips from the
//    restored cache there, as the reference does.
//
// Those first reads, fills and fetches come from a golden text-access
// summary, built lazily by one clean walk of the campaign machine on the
// first memory-text or icache-line plan, and never shipped.
//
// The fork comes from a golden cursor: a clean Cpu on the trial machine that
// walks forward through its golden run. The runner keeps a pool of them per
// golden recording, built on first use. A trial checks out the idle cursor
// furthest along but not past its fork, advances it with run_until to the
// fork, saves a fork snapshot and returns the cursor. Only a cursor that is
// past the fork, or behind the nearest recorded snapshot, restores that
// snapshot first. Campaign sweeps run each shard's trials in fork order
// (exp::SweepSpec::order_key), so a cursor mostly walks the golden run once
// and each trial executes little more than its fault's consequences.
//
// The fork is restored into a trial machine from the same pool. A trial
// checks out an idle machine (or builds one when none is idle), restores its
// fork into it, arms its fault, runs, and checks the machine back in with
// both fault hooks disarmed, so a campaign builds about one machine per
// thread. Reuse gives what a fresh Cpu gives: the restore installs the whole
// determinism surface, the fault hooks are the only state outside it, and
// the machine's predecode and translation caches, which persist across its
// trials and are the only block caches a trial reads, are tag-checked per
// dynamic instruction. A text rewrite that reaches a translated copy of its
// word clears the machine's translation cache whole, and the machine still
// goes back to its pool; only a machine whose trial threw is dropped.
//
// The recorded snapshots also end transient-fault trials early (convergence
// early-exit). Once the fault is spent — the last instruction whose fetch or
// latch it corrupts has retired — a trial whose complete state
// (Cpu::matches_snapshot) and console equal a golden snapshot's will, by the
// restore equivalence above, run exactly the rest of the golden run: it
// stops there with the golden RunResult (benign). Checks run at golden
// boundaries on a doubling schedule (plan.converge_from, the first boundary
// past that instruction, then 1, 3, 7, ... boundaries later), so a trial
// that never re-converges pays O(log n) compares, and the first check
// disarms the spent fault, so the rest of the run pays no fault hook.
// Memory-text and icache-line corruption stays resident in memory or cache
// state, so those trials never converge.
//
// Without checkpoints every plan forks at instruction 0 and plans no flips:
// each trial runs on a fresh machine from the start, the full re-execution
// reference.
struct CheckpointConfig {
  bool enabled = true;
  // Snapshot spacing in instructions; 0 = automatic. The CLI always uses the
  // automatic schedule; tests pin fixed strides.
  std::uint64_t stride = 0;
};

class CampaignRunner {
 public:
  // `config` is the machine to attack (monitoring on or off; the I-cache
  // must be off, and icache-line trials add one of its geometry); the image
  // is loaded once into a shared immutable page base that every trial's CPU
  // reads through copy-on-write.
  CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                 const CheckpointConfig& checkpoints = {});

  // Builds a runner from shipped golden state instead of deriving it: the
  // loader run and the golden execution are both skipped (the uop spec is
  // rebuilt from the config, bit-identical by construction). `state` must
  // come from an identically configured runner's export_golden() — the
  // golden key (fault/golden_ser.h) enforces that at the shipping layer, and
  // this constructor throws on anything structurally inconsistent, which the
  // caller treats as "fall back to local derivation".
  CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                 const CheckpointConfig& checkpoints, const GoldenState& state);

  ~CampaignRunner();

  // Snapshot of everything the constructor derived, for shipping.
  GoldenState export_golden() const;

  // Runs one trial with an explicit fault by its plan. Thread-safe: trials
  // share the golden-run state, read-only, and the mutex-guarded pools of
  // cursors and trial machines; each checks out a cursor and a machine of its
  // own. Any call order gives the same result; fork order is merely the
  // cheapest.
  TrialResult run_trial(const FaultSpec& spec) const;

  // How `spec`'s trial runs (see CheckpointConfig). Pure: a function of the
  // fault and the golden runs, so the sweep's ordering pass and its trials
  // each recompute it rather than store it.
  TrialPlan plan(const FaultSpec& spec) const;

  // The campaign as a sweep-engine grid: one cell per trial, shape 1 + 0,
  // u64 payload = {outcome code}. Every trial draws from its own RNG stream
  // seeded by (seed, trial index), so the summary is bit-identical for a
  // given seed at any job count, shard count, or process placement. With
  // checkpoints on, the cells run in fork order. The spec borrows this runner — it
  // must outlive any run_cell or order_key call.
  exp::SweepSpec sweep(FaultSite site, unsigned bits, unsigned trials,
                       std::uint64_t seed) const;

  // Rebuilds the summary from a full (possibly shard-merged) grid of cells.
  static CampaignSummary summary_from_cells(const exp::Cells& cells);

  // Runs `trials` random injections at `site`, each flipping `bits` distinct
  // bits of one instruction word, fanned out over `jobs` threads (0 resolves
  // CICMON_JOBS / hardware concurrency; 1 runs inline) — sweep() + the
  // engine + summary_from_cells in one call.
  CampaignSummary run_random(FaultSite site, unsigned bits, unsigned trials,
                             std::uint64_t seed, unsigned jobs = 0);

  // Golden-run facts (available after construction).
  std::uint64_t golden_instructions() const { return golden_.result.instructions; }
  const std::string& golden_console() const { return golden_.result.console; }

  // Checkpoint accounting, for the CLI's stderr acceleration report.
  bool checkpoints_enabled() const { return checkpoints_.enabled; }
  std::uint64_t checkpoint_stride() const {
    return golden_.recording ? golden_.recording->stride() : 0;
  }
  std::size_t snapshot_count() const {
    return golden_.recording ? golden_.recording->snapshot_count() : 0;
  }
  // Every snapshot restore the campaign made: trial forks plus cursors
  // repositioned onto a recorded snapshot, and the retired-instruction
  // prefixes those restores installed. engine.instructions minus
  // skipped_instructions() is what the campaign's engines executed.
  std::uint64_t restores() const { return restores_.load(std::memory_order_relaxed); }
  std::uint64_t skipped_instructions() const {
    return skipped_instructions_.load(std::memory_order_relaxed);
  }
  // Trials that started from a cursor's fork (with checkpoints, every trial
  // but the inert ones), and the instructions the cursors executed walking
  // to those forks.
  std::uint64_t forks() const { return forks_.load(std::memory_order_relaxed); }
  std::uint64_t cursor_instructions() const {
    return cursor_instructions_.load(std::memory_order_relaxed);
  }
  // Trial Cpus built: with checkpoints, one each time a trial found no idle
  // machine in its pool; without, one per trial that ran.
  std::uint64_t trial_machines() const {
    return trial_machines_.load(std::memory_order_relaxed);
  }
  // Instructions the text-access walk executed (0 until a memory-text or
  // icache-line plan built the summary), and trials whose plan was inert,
  // which took the golden result without running.
  std::uint64_t text_walk_instructions() const {
    return text_walk_instructions_.load(std::memory_order_relaxed);
  }
  std::uint64_t inert_flips() const { return inert_flips_.load(std::memory_order_relaxed); }

  // Convergence early-exit: trials stopped on a golden match, state compares
  // made, and golden-run instructions those trials did not execute.
  std::uint64_t converged() const { return converged_.load(std::memory_order_relaxed); }
  std::uint64_t convergence_checks() const {
    return convergence_checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t converged_skipped_instructions() const {
    return converged_skipped_instructions_.load(std::memory_order_relaxed);
  }

 private:
  // Golden cursors and idle trial machines over one recording (campaign.cc).
  class CursorPool;
  // When the golden run reads, writes and fetches each text word, and when its
  // fetches fill each I-cache line (campaign.cc).
  struct TextAccess;

  // A trial machine and its golden run: the clean result that trials are
  // classified against, and with checkpoints the recording and the pool of
  // cursors over it.
  struct Golden {
    cpu::CpuConfig machine;  // the golden run's, with a hang watchdog
    cpu::RunResult result;
    std::unique_ptr<CheckpointedGolden> recording;  // null when checkpoints are off
    std::unique_ptr<CursorPool> pool;               // over recording
  };

  // Runs `site`'s trial machine clean, or with `shipped` rebuilds that run
  // from shipped state.
  Golden run_golden(FaultSite site, const GoldenState* shipped) const;

  // The golden run of `site`'s trial machine: the campaign machine's, or for
  // icache-line trials that of the machine with the I-cache on, run on first
  // use (most campaigns attack one site and never pay for it).
  const Golden& golden(FaultSite site) const;

  // The golden text-access summary, built on first use (thread-safe).
  const TextAccess& text_access() const;

  // The golden state at instruction `target` of `golden`'s run, off a cursor
  // from its pool.
  cpu::Snapshot fork_golden(const Golden& golden, std::uint64_t target) const;
  void count_restore(std::uint64_t instructions) const;

  // Runs an armed trial to its end, or, from golden snapshot `from` on, to the
  // first golden boundary (on the doubling schedule) where it has rejoined
  // the golden run, disarming its spent fault at the first of them. Sets
  // `converged_at` on an early exit.
  cpu::RunResult run_converging(cpu::Cpu& cpu, std::size_t from,
                                std::optional<std::uint64_t>* converged_at) const;

  casm_::Image image_;
  cpu::CpuConfig config_;
  CheckpointConfig checkpoints_;
  cpu::LoadedImage loaded_;  // shared by every trial; final before the first one

  Golden golden_;  // the campaign machine's
  mutable std::once_flag icache_once_;
  mutable Golden icache_golden_;  // the icache-line trial machine's
  mutable std::once_flag text_once_;
  mutable std::unique_ptr<const TextAccess> text_access_;

  mutable std::atomic<std::uint64_t> restores_{0};
  mutable std::atomic<std::uint64_t> skipped_instructions_{0};
  mutable std::atomic<std::uint64_t> forks_{0};
  mutable std::atomic<std::uint64_t> cursor_instructions_{0};
  mutable std::atomic<std::uint64_t> trial_machines_{0};
  mutable std::atomic<std::uint64_t> text_walk_instructions_{0};
  mutable std::atomic<std::uint64_t> inert_flips_{0};
  mutable std::atomic<std::uint64_t> converged_{0};
  mutable std::atomic<std::uint64_t> convergence_checks_{0};
  mutable std::atomic<std::uint64_t> converged_skipped_instructions_{0};
};

}  // namespace cicmon::fault
