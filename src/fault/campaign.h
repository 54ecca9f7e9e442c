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
  FaultSpec spec;
  // Retired-instruction count of the golden snapshot at which the trial's
  // state rejoined the golden run (the trial stopped there, benign); empty
  // when it ran to its own end.
  std::optional<std::uint64_t> converged_at;
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
// start from the golden state at their fork point instead of re-simulating
// the clean prefix. A pure execution strategy — like the engine choice or the
// job count, it never changes a trial outcome (CI enforces byte-identity on
// vs off, and tests also at fixed strides) — so it is not a sweep parameter.
//
// That start state comes from a golden cursor: a clean Cpu on the trial
// configuration that walks forward through the golden run. The runner keeps
// a pool of them per golden recording, built on first use. A trial checks
// out the idle cursor furthest along but not past its fork point, advances
// it with run_until to the last instruction boundary at or before that point
// (in the fault's own unit: bus tampers count bus transfers, the other sites
// retired instructions), saves a fork snapshot and returns the cursor. Only
// a cursor that is past the fork point, or behind the nearest recorded
// snapshot, restores that snapshot first. Campaign sweeps run each shard's
// trials in fork-point order (exp::SweepSpec::order_key), so a cursor mostly
// walks the golden run once and each trial executes little more than its
// fault's consequences.
//
// The fork is restored into a trial machine: a Cpu on the same
// configuration, from the same pool. A trial checks out an idle machine (or
// builds one when none is idle), restores its fork into it, arms its fault,
// runs, and checks the machine back in with both fault hooks disarmed, so a
// campaign builds about one machine per thread. Reuse gives what a fresh Cpu
// gives: the restore installs the whole determinism surface, the fault hooks
// are the only state outside it, and the machine's predecode and translation
// caches, which persist across its trials, are tag-checked per dynamic
// instruction. A machine that a text rewrite detached from the translation
// image, or whose trial threw, is dropped. A trial whose fork point is
// instruction 0 starts on a fresh machine.
//
// A transient fault forks at its trigger. A memory-text flip does nothing
// until something reads the word, so it forks where the golden run first
// reads it (fetch, load or store; through an I-cache, a refill of any word
// of its line) and writes the flip there: every state before that point is
// the golden run's plus one unread word. Those instruction indices come from
// a golden text-access summary, built lazily by one clean walk with the
// I-cache off on the first memory-text or icache-line trial or order key,
// and never shipped. With the I-cache on, a program that stores into its
// own text may fetch a stale cached copy where the walk fetched the new
// word, so there the summary holds only up to the first text store.
//
// An I-cache flip is read only by a fetch of the flipped address, and any
// refill of its line overwrites it. The walk also keeps its fetch trace and
// replays it over the trial machine's I-cache geometry, dating each line's
// first fill. When the golden I-cache run neither stores into its text nor
// evicts a line, that gives its I-cache state at any trigger without running
// anything: an icache-line trial draws its flips from it (the draws
// mem::ICache::choose_flip makes in a run paused at the trigger), forks at
// the first instruction at or after the trigger whose fetch reads a flipped
// word and XORs the flips into the restored cache there. One whose flips the
// golden run never fetches again is inert: it takes the golden I-cache run's
// result (benign) without taking a machine. On any other golden I-cache run a
// trial forks at its trigger, flips there and runs on; it is inert only when
// no line is resident yet, so nothing flips.
//
// The recorded snapshots also end transient-fault trials early (convergence
// early-exit). Once a fetch-bus, fetch-bus-paired or post-ID fault is spent —
// it can no longer fire — a trial whose complete state (Cpu::matches_snapshot)
// and console equal a golden snapshot's will, by the restore equivalence
// above, run exactly the rest of the golden run: it stops there with the
// golden RunResult (benign). Checks run at golden boundaries on a doubling
// schedule (the first boundary after the fault is spent, then 1, 3, 7, ...
// boundaries later), so a trial that never re-converges pays O(log n)
// compares. At each check a trial whose own clocks show its fault spent
// disarms it, so the rest of the run pays no fault hook. Memory-text and
// icache-line corruption stays resident in memory or cache state, so those
// trials never converge.
// Trials also read the golden run's sealed translation image as a shared
// first-level block cache until a text write detaches them. Shipped golden
// state carries the image's block starts, and the runner rebuilds the same
// image from them, so a fleet worker's trials translate what direct ones do.
struct CheckpointConfig {
  bool enabled = true;
  // Snapshot spacing in instructions; 0 = automatic. The CLI always uses the
  // automatic schedule; tests pin fixed strides.
  std::uint64_t stride = 0;
};

class CampaignRunner {
 public:
  // `config` is the machine to attack (monitoring on or off); the image is
  // loaded once into a shared immutable page base that every trial's CPU
  // reads through copy-on-write.
  CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                 const CheckpointConfig& checkpoints = {});

  // Builds a runner from shipped golden state instead of deriving
  // it: the loader run and the golden execution are both skipped (the uop
  // spec is rebuilt from the config, bit-identical by construction, and the
  // translation image from its shipped block starts). `state` must come from
  // an identically configured runner's export_golden() — the golden key
  // (fault/golden_ser.h) enforces that at the shipping layer, and this
  // constructor throws on anything structurally inconsistent, which the
  // caller treats as "fall back to local derivation".
  CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                 const CheckpointConfig& checkpoints, const GoldenState& state);

  ~CampaignRunner();

  // Snapshot of everything the constructor derived, for shipping.
  GoldenState export_golden() const;

  // Runs one trial with an explicit fault. Thread-safe: trials share the
  // golden-run state, read-only, and the mutex-guarded pools of cursors and
  // trial machines; each checks out a cursor and a machine of its own. Any
  // call order gives the same result; trigger order is merely the cheapest.
  TrialResult run_trial(const FaultSpec& spec) const;

  // The campaign as a sweep-engine grid: one cell per trial, u64 payload =
  // {outcome code}. Every trial draws from its own RNG stream seeded by
  // (seed, trial index), so the summary is bit-identical for a given seed at
  // any job count, shard count, or process placement. With checkpoints on,
  // the cells run in fork-point order. The spec borrows this runner — it
  // must outlive any run_cell or order_key call.
  exp::SweepSpec sweep(FaultSite site, unsigned bits, unsigned trials,
                       std::uint64_t seed) const;

  // Rebuilds the summary from a full (possibly shard-merged) cell vector.
  static CampaignSummary summary_from_cells(const std::vector<exp::CellResult>& cells);

  // Runs `trials` random injections at `site`, each flipping `bits` distinct
  // bits of one instruction word, fanned out over `jobs` threads (0 resolves
  // CICMON_JOBS / hardware concurrency; 1 runs inline) — sweep() + the
  // engine + summary_from_cells in one call.
  CampaignSummary run_random(FaultSite site, unsigned bits, unsigned trials,
                             std::uint64_t seed, unsigned jobs = 0);

  // Golden-run facts (available after construction).
  std::uint64_t golden_instructions() const { return golden_instructions_; }
  const std::string& golden_console() const { return golden_console_; }

  // Checkpoint accounting, for the CLI's stderr acceleration report.
  bool checkpoints_enabled() const { return checkpoints_.enabled; }
  std::uint64_t checkpoint_stride() const { return golden_ ? golden_->stride() : 0; }
  std::size_t snapshot_count() const { return golden_ ? golden_->snapshot_count() : 0; }
  // Blocks in the translation image (0 without one), and trials whose machine
  // a text write detached from it: the trial's own, or one an earlier trial
  // on the same machine left in a private translation's tag.
  std::uint64_t image_blocks() const {
    return loaded_.translations ? loaded_.translations->starts().size() : 0;
  }
  std::uint64_t detached_trials() const { return detached_.load(std::memory_order_relaxed); }
  // Every snapshot restore the campaign made: trial forks plus cursors
  // repositioned onto a recorded snapshot, and the retired-instruction
  // prefixes those restores installed. engine.instructions minus
  // skipped_instructions() is what the campaign's engines executed.
  std::uint64_t restores() const { return restores_.load(std::memory_order_relaxed); }
  std::uint64_t skipped_instructions() const {
    return skipped_instructions_.load(std::memory_order_relaxed);
  }
  // Trials that started from a cursor's fork (the rest started at
  // instruction 0), and the instructions the cursors executed walking to
  // those forks.
  std::uint64_t forks() const { return forks_.load(std::memory_order_relaxed); }
  std::uint64_t cursor_instructions() const {
    return cursor_instructions_.load(std::memory_order_relaxed);
  }
  // Trial Cpus built: with checkpoints, one each time a forked trial found
  // no idle machine in its pool plus one per trial that started at
  // instruction 0; without, one per trial that ran.
  std::uint64_t trial_machines() const {
    return trial_machines_.load(std::memory_order_relaxed);
  }
  // Instructions the text-access walk executed (0 until a memory-text or
  // icache-line trial built the summary), and icache-line trials whose flips
  // the golden run never fetched again, which took its result without running.
  std::uint64_t text_walk_instructions() const {
    return text_walk_instructions_.load(std::memory_order_relaxed);
  }
  std::uint64_t inert_flips() const { return inert_flips_.load(std::memory_order_relaxed); }
  // Index of the first golden snapshot past the point where `spec`'s
  // transient fault is spent — it can no longer fire: the post-ID latch once
  // its trigger instruction retired, a bus tamper once its trigger transfer
  // (both transfers for the paired site) crossed the bus. A boundary before
  // that may equal the golden state with the fault still pending, so
  // convergence checks start here. snapshot_count() when there is none.
  // Requires checkpoints and a fetch-bus, fetch-bus-paired or post-ID spec.
  std::size_t first_spent_snapshot(const FaultSpec& spec) const;

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
  // Runs an armed transient-fault trial to its end, or to the first golden
  // boundary (on the doubling schedule) where it has rejoined the golden run,
  // disarming the fault at the first of those boundaries where it is spent.
  // Sets `converged_at` on an early exit.
  cpu::RunResult run_converging(cpu::Cpu& cpu, const FaultSpec& spec,
                                std::optional<std::uint64_t>* converged_at) const;

  // Golden cursors and idle trial machines over one recording (campaign.cc).
  class CursorPool;
  // When the golden run reads, writes and fetches each text word, and when its
  // fetches fill each I-cache line (campaign.cc).
  struct TextAccess;

  // The trial machine: the campaign's, with a hang watchdog, and the I-cache
  // forced on for I-cache-line trials.
  cpu::CpuConfig trial_config(FaultSite site) const;

  // The cursor pool for `site`'s trials. I-cache-line trials force the
  // I-cache on, so their snapshots must carry its state: when the campaign
  // config already has it on the main pool serves, otherwise a second golden
  // recording and its pool are built lazily on the first such trial (most
  // campaigns attack one site and never pay for the other recording).
  CursorPool& cursors(FaultSite site) const;

  // The golden text-access summary, built on first use (thread-safe).
  const TextAccess& text_access() const;

  // Where `spec`'s trial forks off the golden run: its trigger (a bus
  // transfer for the bus sites, else a retired-instruction count, held below
  // the golden run's last instruction), for memory-text the instruction that
  // first reads the flipped word, and for icache-line flips planned from the
  // summary the first instruction at or after the trigger whose fetch reads
  // one of them. Also the trial's order key.
  std::uint64_t fork_point(const FaultSpec& spec) const;

  // Saves into `out` the golden state at the last instruction boundary at
  // or before `target`, on the clock of `spec`'s site, off a cursor from
  // `pool`. Returns false, saving nothing, when that boundary is
  // instruction 0 (a fresh Cpu's state).
  bool fork_golden(CursorPool& pool, const FaultSpec& spec, std::uint64_t target,
                   cpu::Snapshot* out) const;
  void count_restore(std::uint64_t instructions) const;

  casm_::Image image_;
  cpu::CpuConfig config_;
  CheckpointConfig checkpoints_;
  cpu::LoadedImage loaded_;  // shared by every trial; final before the first one

  std::unique_ptr<CheckpointedGolden> golden_;  // null when checkpoints off
  std::unique_ptr<CursorPool> cursors_;         // over golden_
  mutable std::once_flag icache_once_;
  mutable std::unique_ptr<CheckpointedGolden> icache_golden_;
  mutable std::unique_ptr<CursorPool> icache_cursors_;  // over icache_golden_
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
  mutable std::atomic<std::uint64_t> detached_{0};

  std::uint64_t golden_instructions_ = 0;
  std::string golden_console_;
  std::uint32_t golden_exit_code_ = 0;
  cpu::RunResult golden_result_;  // the full result, for export_golden()
};

}  // namespace cicmon::fault
