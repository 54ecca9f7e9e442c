#include "fault/campaign.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/bitops.h"
#include "support/error.h"
#include "uop/monitor_pass.h"
#include "uop/uop.h"

namespace cicmon::fault {
namespace {

// XOR mask with exactly `bits` distinct set positions.
std::uint32_t random_mask(support::Rng& rng, unsigned bits) {
  support::check(bits >= 1 && bits <= 32, "fault mask needs 1..32 bits");
  std::uint32_t mask = 0;
  while (support::popcount32(mask) < bits) {
    mask |= 1U << rng.below(32);
  }
  return mask;
}

// Bus tamper that XORs a mask into one transfer, or into two consecutive
// transfers (the same-lane pattern that can alias under plain XOR).
class OneShotBusTamper final : public mem::BusTamper {
 public:
  OneShotBusTamper(std::uint64_t trigger_transfer, std::uint32_t mask, bool paired)
      : trigger_(trigger_transfer), mask_(mask), paired_(paired) {}

  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    const std::uint64_t n = count_++;
    const bool hit = n == trigger_ || (paired_ && n == trigger_ + 1);
    return hit ? word ^ mask_ : word;
  }

 private:
  std::uint64_t trigger_;
  std::uint32_t mask_;
  bool paired_;
  std::uint64_t count_ = 0;
};

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// The campaign machine: `config`, which must have the I-cache off.
const cpu::CpuConfig& campaign_machine(const cpu::CpuConfig& config) {
  support::check(!config.icache.enabled,
                 "campaign machines have the I-cache off; icache-line trials add one");
  return config;
}

// The outcome of a trial that ended with `result`, on a machine whose golden
// run ended with `golden`.
Outcome classify(const cpu::RunResult& result, const cpu::RunResult& golden) {
  switch (result.reason) {
    case cpu::ExitReason::kMonitorTerminated:
      return result.monitor_cause == os::TerminationCause::kNotInFht
                 ? Outcome::kDetectedMiss
                 : Outcome::kDetectedMismatch;
    case cpu::ExitReason::kIllegalInstruction:
    case cpu::ExitReason::kWildPc:
      return Outcome::kDetectedBaseline;
    case cpu::ExitReason::kSelfCheckFailed:
      return Outcome::kWrongOutput;
    case cpu::ExitReason::kWatchdog:
      return Outcome::kHang;
    case cpu::ExitReason::kExit:
      break;
  }
  return result.console == golden.console && result.exit_code == golden.exit_code
             ? Outcome::kBenign
             : Outcome::kWrongOutput;
}

}  // namespace

// Golden cursors over one recording: clean Cpus on the trial configuration,
// each paused at some instruction boundary of the golden run. Idle cursors
// wait here; a trial checks one out, walks it forward, forks it and checks
// it back in, so a pool holds at most as many cursors as trials ever ran at
// once. Cursors are built on first use.
//
// Idle trial machines wait here too: Cpus on the same configuration that a
// trial restores its fork into, runs, and checks back in disarmed. Any idle
// machine serves any trial: the restore installs the whole determinism
// surface, and its predecode and translation caches are tag-checked per
// dynamic instruction, so a warm cache runs as a cold one would.
class CampaignRunner::CursorPool {
 public:
  explicit CursorPool(const cpu::CpuConfig& config) : config_(config) {}

  // The idle cursor furthest along but not past instruction `target`; else
  // any idle cursor (it will be repositioned); else a new one at instruction 0.
  std::unique_ptr<cpu::Cpu> checkout(std::uint64_t target, const casm_::Image& image,
                                     const cpu::LoadedImage& loaded) {
    {
      std::lock_guard lock(mutex_);
      auto best = idle_.end();
      for (auto it = idle_.begin(); it != idle_.end(); ++it) {
        const std::uint64_t at = (*it)->instructions_retired();
        if (at <= target && (best == idle_.end() || at > (*best)->instructions_retired())) {
          best = it;
        }
      }
      if (best == idle_.end() && !idle_.empty()) best = idle_.end() - 1;
      if (best != idle_.end()) {
        std::unique_ptr<cpu::Cpu> cursor = std::move(*best);
        idle_.erase(best);
        return cursor;
      }
    }
    return std::make_unique<cpu::Cpu>(config_, image, &loaded);
  }

  void checkin(std::unique_ptr<cpu::Cpu> cursor) {
    std::lock_guard lock(mutex_);
    idle_.push_back(std::move(cursor));
  }

  // The most recently checked-in idle trial machine; null when none is idle.
  std::unique_ptr<cpu::Cpu> checkout_machine() {
    std::lock_guard lock(mutex_);
    if (machines_.empty()) return nullptr;
    std::unique_ptr<cpu::Cpu> machine = std::move(machines_.back());
    machines_.pop_back();
    return machine;
  }

  // Disarms both fault hooks, the only trial state a restore does not
  // replace, and keeps the machine for the next trial.
  void checkin_machine(std::unique_ptr<cpu::Cpu> machine) {
    machine->fetch_path().set_bus_tamper(nullptr);
    machine->set_post_id_fault(std::nullopt);
    std::lock_guard lock(mutex_);
    machines_.push_back(std::move(machine));
  }

 private:
  cpu::CpuConfig config_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<cpu::Cpu>> idle_;
  std::vector<std::unique_ptr<cpu::Cpu>> machines_;
};

// When the golden run touches each text word, by instruction index. It
// records itself: one clean walk of the campaign machine carries it as bus
// tamper and text watch. There bus transfer k is the fetch of instruction k
// on either engine, so a load or store belongs to the instruction whose fetch
// was the latest transfer.
//
// The walk also keeps its fetch trace, as runs of consecutive words, and
// replays it over the I-cache geometry of the icache-line trial machine:
// when each line is first filled, and whether a later fetch evicts one. The
// I-cache machine retires the same instructions until the program stores
// into its text, past which it may fetch a stale cached copy. So a golden
// I-cache run that neither stores into its text nor evicts holds each line,
// clean, from its first fill to its end, and its I-cache state at any
// instruction follows from the fill times alone.
struct CampaignRunner::TextAccess final : mem::BusTamper, cpu::TextWatch {
  TextAccess(const casm_::Image& image, const mem::ICacheConfig& icache)
      : text_base(image.text_base),
        text_end(image.text_end()),
        geometry(icache),
        first_access(image.text.size(), kNever),
        fetched_until(image.text.size(), 0),
        first_fill(icache.num_lines, kNever),
        filled_tag(icache.num_lines, 0) {}

  std::uint32_t on_transfer(std::uint32_t address, std::uint32_t word) override {
    const std::uint64_t instruction = transfers++;
    // Only text is fetched: a PC outside it ends the run before its fetch.
    if (address >= text_base && address < text_end) {
      const auto w = static_cast<std::uint32_t>((address - text_base) / 4);
      first_access[w] = std::min(first_access[w], instruction);
      fetched_until[w] = instruction + 1;
      if (run_starts.empty() || w != run_words.back() + (instruction - run_starts.back())) {
        run_starts.push_back(instruction);
        run_words.push_back(w);
      }
    }
    const mem::ICache::Slot slot = mem::ICache::locate(geometry, address);
    if (first_fill[slot.line] == kNever) {
      first_fill[slot.line] = instruction;
      filled_tag[slot.line] = slot.tag;
    } else if (filled_tag[slot.line] != slot.tag) {
      evicts = true;
    }
    return word;
  }

  void on_text_access(std::uint32_t address, unsigned bytes, bool store) override {
    const std::uint64_t instruction = transfers - 1;
    const std::uint64_t end = std::min<std::uint64_t>(std::uint64_t{address} + bytes, text_end);
    for (std::uint64_t a = std::max(address & ~3U, text_base); a < end; a += 4) {
      std::uint64_t& first = first_access[(a - text_base) / 4];
      first = std::min(first, instruction);
    }
    stores_text = stores_text || store;
  }

  // Plans an icache-line `spec` when the fill times describe the golden
  // I-cache run (it neither stores into its text nor evicts): its flips,
  // drawn as the trial machine would draw them at its trigger, and its fork
  // at the first fetch of a flipped word at or after the trigger; inert when
  // there is none. Plans nothing otherwise.
  void plan_flips(const FaultSpec& spec, TrialPlan* plan) const {
    if (stores_text || evicts) return;
    const std::vector<std::uint32_t> valid = filled_before(spec.trigger_index);
    support::Rng rng(icache_flip_seed(spec));
    std::vector<std::uint32_t> addresses;  // of the flipped words, in the golden lines
    plan->flips.emplace();
    for (unsigned flip = 0; flip < support::popcount32(spec.xor_mask); ++flip) {
      const std::optional<mem::ICache::Flip> bit =
          mem::ICache::choose_flip(valid, geometry.words_per_line, rng);
      if (!bit.has_value()) break;
      plan->flips->push_back(*bit);
      const mem::ICache::Slot slot{bit->line, filled_tag[bit->line], bit->word};
      addresses.push_back(mem::ICache::word_address(geometry, slot));
    }
    const std::uint64_t first_read = next_fetch(spec.trigger_index, addresses);
    plan->inert = first_read == kNever;
    if (!plan->inert) plan->fork_at = first_read;
  }

  // The I-cache line indices that fetches before instruction `n` fill,
  // ascending: on a golden run that does not evict, its valid lines there.
  std::vector<std::uint32_t> filled_before(std::uint64_t n) const {
    std::vector<std::uint32_t> lines;
    for (std::uint32_t i = 0; i < first_fill.size(); ++i) {
      if (first_fill[i] < n) lines.push_back(i);
    }
    return lines;
  }

  // True when `icache`, `n` instructions into a golden run that does not
  // evict, holds exactly the lines that fetches before `n` fill, with their
  // tags.
  bool describes(const mem::ICache& icache, std::uint64_t n) const {
    for (std::uint32_t i = 0; i < first_fill.size(); ++i) {
      const mem::ICache::Line& line = icache.line(i);
      if (line.valid != (first_fill[i] < n) || (line.valid && line.tag != filled_tag[i])) {
        return false;
      }
    }
    return true;
  }

  // The first instruction at or after `from` whose fetch reads the word at
  // one of `addresses`; kNever when none does. Words outside the text (line
  // padding) are never fetched.
  std::uint64_t next_fetch(std::uint64_t from, const std::vector<std::uint32_t>& addresses) const {
    std::vector<std::uint32_t> words;
    std::uint64_t until = 0;  // no fetch of any of them from here on
    for (const std::uint32_t address : addresses) {
      if (address < text_base || address >= text_end) continue;
      words.push_back((address - text_base) / 4);
      until = std::max(until, fetched_until[words.back()]);
    }
    if (until <= from) return kNever;
    // The run holding `from`, then each later run until one fetches a word.
    std::size_t run = static_cast<std::size_t>(
        std::upper_bound(run_starts.begin(), run_starts.end(), from) - run_starts.begin() - 1);
    for (; run < run_starts.size() && run_starts[run] < until; ++run) {
      const std::uint64_t start = run_starts[run];
      const std::uint64_t end = run + 1 < run_starts.size() ? run_starts[run + 1] : transfers;
      const std::uint64_t skip = from > start ? from - start : 0;
      std::uint64_t first = kNever;
      for (const std::uint32_t w : words) {
        if (w >= run_words[run] + skip && w < run_words[run] + (end - start)) {
          first = std::min(first, start + (w - run_words[run]));
        }
      }
      if (first != kNever) return first;
    }
    support::check(false, "text-access fetch runs disagree with the last fetches");
    return kNever;
  }

  std::uint32_t text_base;
  std::uint32_t text_end;
  mem::ICacheConfig geometry;                // the icache-line trial machine's I-cache
  std::vector<std::uint64_t> first_access;   // any fetch, load or store; kNever: none
  std::vector<std::uint64_t> fetched_until;  // one past the last fetch; 0: never fetched
  bool stores_text = false;
  std::uint64_t transfers = 0;
  // The fetch trace: run r fetches words run_words[r], +1, ... from
  // instruction run_starts[r] up to the next run's start.
  std::vector<std::uint64_t> run_starts;
  std::vector<std::uint32_t> run_words;
  // Per I-cache line index: the instruction whose fetch first fills it
  // (kNever: none) and the tag it fills it with.
  std::vector<std::uint64_t> first_fill;
  std::vector<std::uint32_t> filled_tag;
  bool evicts = false;
};

std::string_view fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kMemoryText: return "memory-text";
    case FaultSite::kFetchBus: return "fetch-bus";
    case FaultSite::kFetchBusPaired: return "fetch-bus-paired";
    case FaultSite::kICacheLine: return "icache-line";
    case FaultSite::kPostIdLatch: return "post-id-latch";
  }
  return "?";
}

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDetectedMismatch: return "detected-mismatch";
    case Outcome::kDetectedMiss: return "detected-miss";
    case Outcome::kDetectedBaseline: return "detected-baseline";
    case Outcome::kWrongOutput: return "wrong-output";
    case Outcome::kBenign: return "benign";
    case Outcome::kHang: return "hang";
  }
  return "?";
}

void CampaignSummary::add(Outcome outcome) {
  ++trials;
  switch (outcome) {
    case Outcome::kDetectedMismatch: ++detected_mismatch; break;
    case Outcome::kDetectedMiss: ++detected_miss; break;
    case Outcome::kDetectedBaseline: ++detected_baseline; break;
    case Outcome::kWrongOutput: ++wrong_output; break;
    case Outcome::kBenign: ++benign; break;
    case Outcome::kHang: ++hang; break;
  }
}

double CampaignSummary::detection_rate_effective() const {
  const std::uint64_t effective = trials - benign;
  return effective == 0 ? 1.0 : static_cast<double>(detected()) / static_cast<double>(effective);
}

double CampaignSummary::detection_rate_total() const {
  return trials == 0 ? 0.0 : static_cast<double>(detected()) / static_cast<double>(trials);
}

CampaignRunner::CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                               const CheckpointConfig& checkpoints)
    : image_(image), config_(campaign_machine(config)), checkpoints_(checkpoints) {
  // Load once, share forever: every trial's CPU reads this frozen image
  // through copy-on-write pages instead of re-running the loader (and, when
  // monitored, its whole-text hash computation), and shares one fused
  // classification of the spec with the golden run.
  loaded_ = cpu::preload_image(config_, image_);
  loaded_.fused = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*loaded_.spec));
  golden_ = run_golden(FaultSite::kFetchBus, nullptr);
}

CampaignRunner::CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                               const CheckpointConfig& checkpoints, const GoldenState& state)
    : image_(image), config_(campaign_machine(config)), checkpoints_(checkpoints) {
  // Rebuild the LoadedImage from the shipped parts. The uop spec is the one
  // piece not shipped: build_isa_uops + embed_monitoring are pure functions
  // of the configuration, so rebuilding is bit-identical to the original.
  auto spec = std::make_shared<uop::IsaUopSpec>(uop::build_isa_uops());
  if (config_.monitoring) uop::embed_monitoring(spec.get());
  loaded_.spec = std::move(spec);
  loaded_.pages = std::make_shared<mem::Memory::PageMap>(state.image_pages);
  loaded_.fht = cfg::FullHashTable::deserialize(state.fht_blob);
  loaded_.fht_was_attached = state.fht_was_attached;
  loaded_.entry = state.entry;
  loaded_.fused = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*loaded_.spec));
  golden_ = run_golden(FaultSite::kFetchBus, &state);
}

GoldenState CampaignRunner::export_golden() const {
  GoldenState state;
  state.image_pages = *loaded_.pages;
  state.fht_blob = loaded_.fht.serialize();
  state.fht_was_attached = loaded_.fht_was_attached;
  state.entry = loaded_.entry;
  if (golden_.recording) {
    state.snapshots = golden_.recording->snapshots();
    state.stride = golden_.recording->stride();
  }
  state.result = golden_.result;
  return state;
}

CampaignRunner::~CampaignRunner() = default;

CampaignRunner::Golden CampaignRunner::run_golden(FaultSite site,
                                                  const GoldenState* shipped) const {
  Golden golden;
  golden.machine = config_;
  golden.machine.icache.enabled = site == FaultSite::kICacheLine;
  if (shipped != nullptr) {
    golden.result = shipped->result;
    // The rebuild constructor re-validates the schedule and the clean exit.
    if (checkpoints_.enabled) {
      golden.recording = std::make_unique<CheckpointedGolden>(
          shipped->snapshots, shipped->result, shipped->stride);
    }
  } else if (checkpoints_.enabled) {
    golden.recording = std::make_unique<CheckpointedGolden>(golden.machine, image_, loaded_,
                                                            checkpoints_.stride);
    golden.result = golden.recording->result();
  } else {
    cpu::Cpu clean(golden.machine, image_, &loaded_);
    golden.result = clean.run();
  }
  support::check(golden.result.reason == cpu::ExitReason::kExit,
                 "campaign golden run did not exit cleanly");
  // A corrupted loop counter can spin forever; bound each trial well above
  // the golden length so hangs are classified, not waited out.
  golden.machine.max_instructions = golden.result.instructions * 4 + 100'000;
  if (golden.recording) golden.pool = std::make_unique<CursorPool>(golden.machine);
  return golden;
}

const CampaignRunner::Golden& CampaignRunner::golden(FaultSite site) const {
  if (site != FaultSite::kICacheLine) return golden_;
  // Thread-safe: plans and trials race here. The LoadedImage is
  // cache-independent and is reused.
  std::call_once(icache_once_,
                 [this] { icache_golden_ = run_golden(FaultSite::kICacheLine, nullptr); });
  return icache_golden_;
}

const CampaignRunner::TextAccess& CampaignRunner::text_access() const {
  std::call_once(text_once_, [this] {
    auto access = std::make_unique<TextAccess>(image_, config_.icache);
    cpu::Cpu walk(golden_.machine, image_, &loaded_);
    walk.fetch_path().set_bus_tamper(access.get());
    walk.set_text_watch(access.get());
    const cpu::RunResult result = walk.run();
    support::check(result.instructions == golden_.result.instructions,
                   "text-access walk diverged from the golden run");
    access->run_starts.shrink_to_fit();
    access->run_words.shrink_to_fit();
    static const obs::CounterId k_walk = obs::counter("campaign.text_walk_instructions");
    text_walk_instructions_.fetch_add(walk.instructions_executed(), std::memory_order_relaxed);
    obs::bump(k_walk, walk.instructions_executed());
    walk.publish_metrics();
    text_access_ = std::move(access);
  });
  return *text_access_;
}

TrialPlan CampaignRunner::plan(const FaultSpec& spec) const {
  TrialPlan plan;
  plan.converge_from = snapshot_count();
  if (!checkpoints_.enabled) return plan;
  // A cursor never retires the golden run's last instruction: it stays a
  // running golden state that later trials can fork from.
  const std::uint64_t last =
      std::max<std::uint64_t>(golden(spec.site).result.instructions, 1) - 1;
  plan.fork_at = std::min(spec.trigger_index, last);
  switch (spec.site) {
    case FaultSite::kMemoryText:
      // A word outside the text has no summary entry: fork at instruction 0.
      plan.fork_at = 0;
      if (image_.contains_text(spec.target_address)) {
        const std::size_t word = (spec.target_address - image_.text_base) / 4;
        plan.fork_at = std::min(text_access().first_access[word], last);
      }
      break;
    case FaultSite::kICacheLine:
      text_access().plan_flips(spec, &plan);
      break;
    case FaultSite::kFetchBus:
    case FaultSite::kFetchBusPaired:
    case FaultSite::kPostIdLatch:
      // The fault is spent once the last instruction whose fetch or latch it
      // corrupts retired. A boundary at or before that may equal the golden
      // state with the fault still pending.
      plan.converge_from = golden_.recording->first_after_instructions(
          spec.trigger_index + (spec.site == FaultSite::kFetchBusPaired ? 1 : 0));
      break;
  }
  return plan;
}

void CampaignRunner::count_restore(std::uint64_t instructions) const {
  static const obs::CounterId k_restores = obs::counter("campaign.snapshot_restores");
  static const obs::CounterId k_skipped = obs::counter("campaign.skipped_instructions");
  restores_.fetch_add(1, std::memory_order_relaxed);
  skipped_instructions_.fetch_add(instructions, std::memory_order_relaxed);
  obs::bump(k_restores);
  obs::bump(k_skipped, instructions);
}

cpu::Snapshot CampaignRunner::fork_golden(const Golden& golden, std::uint64_t target) const {
  std::unique_ptr<cpu::Cpu> cursor = golden.pool->checkout(target, image_, loaded_);
  const cpu::Snapshot& nearest = golden.recording->nearest_by_instructions(target);
  const std::uint64_t at = cursor->instructions_retired();
  if (at > target || at < nearest.instructions) {
    cursor->restore_snapshot(nearest);
    count_restore(nearest.instructions);
  }
  const std::uint64_t from = cursor->instructions_retired();
  if (from < target) {
    support::check(!cursor->run_until(target).has_value(),
                   "golden cursor ended before its fork point");
  }
  static const obs::CounterId k_cursor = obs::counter("campaign.cursor_instructions");
  const std::uint64_t walked = cursor->instructions_retired() - from;
  cursor_instructions_.fetch_add(walked, std::memory_order_relaxed);
  obs::bump(k_cursor, walked);
  cursor->publish_metrics();

  cpu::Snapshot fork;
  cursor->save_snapshot(&fork);
  golden.pool->checkin(std::move(cursor));
  return fork;
}

TrialResult CampaignRunner::run_trial(const FaultSpec& spec) const {
  static const obs::CounterId k_trials = obs::counter("campaign.trials");
  obs::bump(k_trials);
  const Golden& golden = this->golden(spec.site);
  const TrialPlan plan = this->plan(spec);
  if (plan.inert) {
    static const obs::CounterId k_inert = obs::counter("campaign.inert_flips");
    inert_flips_.fetch_add(1, std::memory_order_relaxed);
    obs::bump(k_inert);
    return {classify(golden.result, golden.result), golden.result.reason, {}};
  }

  // Fast-forward: start from the golden state at the fork, forked off a
  // cursor and restored into an idle trial machine (see CheckpointConfig).
  // The suffix then executes exactly as a from-zero run would (byte-identity
  // enforced by tests). Without checkpoints the trial starts on a fresh
  // machine.
  std::unique_ptr<cpu::Cpu> machine = golden.pool ? golden.pool->checkout_machine() : nullptr;
  if (machine == nullptr) {
    trial_machines_.fetch_add(1, std::memory_order_relaxed);
    machine = std::make_unique<cpu::Cpu>(golden.machine, image_, &loaded_);
  }
  if (golden.pool) {
    cpu::Snapshot start = fork_golden(golden, plan.fork_at);
    static const obs::CounterId k_forks = obs::counter("campaign.forks");
    forks_.fetch_add(1, std::memory_order_relaxed);
    obs::bump(k_forks);
    count_restore(start.instructions);
    machine->restore_snapshot(std::move(start));
  }
  cpu::Cpu& cpu = *machine;
  // A machine's counters span its trials; this trial publishes its share.
  const std::uint64_t cow_pages_before = cpu.memory().cow_pages_copied();

  // The one-shot tamper counts transfers from when it is attached, so its
  // trigger is relative to the fork's transfer count. The post-ID trigger
  // compares against the global retired-instruction count, which restore
  // re-establishes.
  OneShotBusTamper tamper(spec.trigger_index - cpu.fetch_path().bus_transfers(), spec.xor_mask,
                          spec.site == FaultSite::kFetchBusPaired);
  std::optional<cpu::RunResult> result;
  switch (spec.site) {
    case FaultSite::kMemoryText: {
      // The loader has already computed/loaded the expected hashes from the
      // clean binary (the OS checkpoint); the attack strikes afterwards. A
      // forked trial strikes at its fork, before anything read the word.
      const std::uint32_t word = cpu.memory().read32(spec.target_address);
      cpu.memory().write32(spec.target_address, word ^ spec.xor_mask);
      break;
    }
    case FaultSite::kFetchBus:
    case FaultSite::kFetchBusPaired:
      cpu.fetch_path().set_bus_tamper(&tamper);
      break;
    case FaultSite::kPostIdLatch:
      cpu.set_post_id_fault(cpu::PostIdFault{spec.trigger_index, spec.xor_mask});
      break;
    case FaultSite::kICacheLine: {
      mem::ICache& icache = *cpu.fetch_path().icache();
      if (plan.flips.has_value()) {
        // Nothing fetched a flipped word since the trigger and nothing was
        // evicted, so the fork holds each planned line as the trigger did. A
        // summary that disagrees with the real cache fails here, loudly: the
        // fork must hold exactly the lines, with the tags, that it dates as
        // filled.
        support::check(text_access().describes(icache, cpu.instructions_retired()),
                       "icache-line fork: the cache holds other lines than the summary dates");
        for (const mem::ICache::Flip& flip : *plan.flips) icache.apply_flip(flip);
        break;
      }
      // Run to the trigger on the configured engine, then flip resident bits.
      result = cpu.run_until(spec.trigger_index);
      support::Rng rng(icache_flip_seed(spec));
      for (unsigned flip = 0; !result && flip < support::popcount32(spec.xor_mask); ++flip) {
        icache.flip_random_resident_bit(rng);
      }
      break;
    }
  }
  std::optional<std::uint64_t> converged_at;
  if (!result.has_value()) result = run_converging(cpu, plan.converge_from, &converged_at);

  static const obs::CounterId k_cow_pages = obs::counter("campaign.cow_pages_copied");
  obs::bump(k_cow_pages, cpu.memory().cow_pages_copied() - cow_pages_before);
  cpu.publish_metrics();
  if (golden.pool) golden.pool->checkin_machine(std::move(machine));
  return {classify(*result, golden.result), result->reason, converged_at};
}

cpu::RunResult CampaignRunner::run_converging(cpu::Cpu& cpu, std::size_t from,
                                              std::optional<std::uint64_t>* converged_at) const {
  static const obs::CounterId k_checks = obs::counter("campaign.convergence_checks");
  for (std::size_t next = from, gap = 1; next < snapshot_count(); next += gap, gap *= 2) {
    const cpu::Snapshot& golden = golden_.recording->snapshots()[next];
    if (auto done = cpu.run_until(golden.instructions)) return *done;
    // Past the last instruction the fault corrupts, and with the I-cache off
    // past its last transfer too: the fault is spent.
    cpu.fetch_path().set_bus_tamper(nullptr);
    cpu.set_post_id_fault(std::nullopt);
    convergence_checks_.fetch_add(1, std::memory_order_relaxed);
    obs::bump(k_checks);
    if (cpu.matches_snapshot(golden) && cpu.console() == golden.result.console) {
      // From here the trial is the golden run: same state, fault spent.
      const std::uint64_t skipped = golden_.result.instructions - golden.instructions;
      converged_.fetch_add(1, std::memory_order_relaxed);
      converged_skipped_instructions_.fetch_add(skipped, std::memory_order_relaxed);
      static const obs::CounterId k_converged = obs::counter("campaign.converged");
      static const obs::CounterId k_skipped =
          obs::counter("campaign.converged_skipped_instructions");
      obs::bump(k_converged);
      obs::bump(k_skipped, skipped);
      *converged_at = golden.instructions;
      return golden_.result;
    }
  }
  return cpu.run();
}

exp::SweepSpec CampaignRunner::sweep(FaultSite site, unsigned bits, unsigned trials,
                                     std::uint64_t seed) const {
  // Each trial owns an RNG stream derived from (seed, trial index), so the
  // fault it injects — and therefore the whole summary — depends only on the
  // campaign seed, never on thread count, shard count, or scheduling order.
  const std::uint32_t text_words = static_cast<std::uint32_t>(image_.text.size());
  exp::SweepSpec spec;
  spec.sweep = "campaign";
  spec.params = {{"site", std::string(fault_site_name(site))},
                 {"bits", std::to_string(bits)},
                 {"trials", std::to_string(trials)},
                 {"seed", std::to_string(seed)}};
  spec.cells = trials;
  spec.shape = {1, 0};
  const auto draw = [this, site, bits, seed, text_words](std::size_t trial) {
    support::Rng rng(support::derive_stream_seed(seed, trial));
    FaultSpec fault;
    fault.site = site;
    fault.xor_mask = random_mask(rng, bits);
    fault.trigger_index = rng.below(golden_.result.instructions);
    if (site == FaultSite::kMemoryText) {
      fault.target_address =
          image_.text_base + 4 * static_cast<std::uint32_t>(rng.below(text_words));
    }
    return fault;
  };
  spec.run_cell = [this, draw](std::size_t trial) {
    exp::CellResult result;
    result.u64 = {static_cast<std::uint64_t>(run_trial(draw(trial)).outcome)};
    return result;
  };
  // Fork order lets the cursors walk the golden run forward instead of
  // falling back to recorded snapshots. Without checkpoints there are no
  // cursors.
  if (checkpoints_.enabled) {
    spec.order_key = [this, draw](std::size_t trial) { return plan(draw(trial)).fork_at; };
  }
  return spec;
}

CampaignSummary CampaignRunner::summary_from_cells(const exp::Cells& cells) {
  support::check(cells.shape() == exp::CellShape{1, 0},
                 "campaign cells do not carry one outcome code each");
  CampaignSummary summary;
  for (const std::uint64_t outcome : cells.u64_column()) {
    if (outcome > static_cast<std::uint64_t>(Outcome::kHang)) {
      throw support::CicError("campaign cell does not carry an outcome code");
    }
    summary.add(static_cast<Outcome>(outcome));
  }
  return summary;
}

CampaignSummary CampaignRunner::run_random(FaultSite site, unsigned bits, unsigned trials,
                                           std::uint64_t seed, unsigned jobs) {
  return summary_from_cells(exp::run_all(sweep(site, bits, trials, seed), jobs));
}

}  // namespace cicmon::fault
