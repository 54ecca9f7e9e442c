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

// The global index of the last bus transfer a fetch-bus or fetch-bus-paired
// fault tampers with.
std::uint64_t last_tampered_transfer(const FaultSpec& spec) {
  return spec.trigger_index + (spec.site == FaultSite::kFetchBusPaired ? 1 : 0);
}

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// An icache-line trial's flips, drawn from the golden I-cache state at its
// trigger without running anything, and the first instruction at or after
// the trigger whose fetch reads one of them (kNever: none does, the flips
// are inert).
struct PlannedFlips {
  struct Flip {
    mem::ICache::Flip bit;
    std::uint32_t address;  // of the word it flips, in the golden line
  };
  std::vector<Flip> flips;
  std::uint64_t first_read = kNever;
};

// The outcome of a trial that ended with `result`.
Outcome classify(const cpu::RunResult& result, const std::string& golden_console,
                 std::uint32_t golden_exit_code) {
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
  return result.console == golden_console && result.exit_code == golden_exit_code
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
  CursorPool(const CheckpointedGolden& golden, const cpu::CpuConfig& config)
      : golden_(golden),
        config_(config),
        transfers_per_instruction_(
            config.icache.enabled ? config.icache.words_per_line : 1) {}

  const CheckpointedGolden& golden() const { return golden_; }
  // The most bus transfers one instruction's fetch can make (an I-cache
  // refill fetches a whole line).
  std::uint64_t transfers_per_instruction() const { return transfers_per_instruction_; }

  // The idle cursor furthest along `clock` but not past `target`; else any
  // idle cursor (it will be repositioned); else a new one at instruction 0.
  std::unique_ptr<cpu::Cpu> checkout(std::uint64_t (*clock)(cpu::Cpu&),
                                     std::uint64_t target, const casm_::Image& image,
                                     const cpu::LoadedImage& loaded) {
    {
      std::lock_guard lock(mutex_);
      auto best = idle_.end();
      for (auto it = idle_.begin(); it != idle_.end(); ++it) {
        const std::uint64_t at = clock(**it);
        if (at <= target && (best == idle_.end() || at > clock(**best))) best = it;
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
  const CheckpointedGolden& golden_;
  cpu::CpuConfig config_;
  std::uint64_t transfers_per_instruction_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<cpu::Cpu>> idle_;
  std::vector<std::unique_ptr<cpu::Cpu>> machines_;
};

// When the golden run touches each text word, by instruction index. It
// records itself: one clean walk of the campaign machine with the I-cache
// off carries it as bus tamper and text watch. There bus transfer k is the
// fetch of instruction k on either engine, so a load or store belongs to the
// instruction whose fetch was the latest transfer. A machine with the
// I-cache on retires the same instructions until the program stores into its
// text; past that store it may fetch a stale cached copy, so for it the
// summary holds only up to the first text store.
//
// The walk also keeps its fetch trace, as runs of consecutive words, and
// replays it over the I-cache geometry of the icache-line trial machine:
// when each line is first filled, and whether a later fetch evicts one. A
// golden I-cache run that neither stores into its text nor evicts holds each
// line, clean, from its first fill to its end, so its I-cache state at any
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
    if (store) first_text_store = std::min(first_text_store, instruction);
  }

  // The instruction that first reads the text word at `address` (word
  // aligned) on a machine with `icache`: there the first refill of its line
  // reads it, and the first text store bounds what the summary knows.
  std::uint64_t first_read(std::uint32_t address, const mem::ICacheConfig& icache) const {
    if (!icache.enabled) return first_access[(address - text_base) / 4];
    const std::uint32_t line_bytes = icache.words_per_line * 4;
    const std::uint32_t line = address & ~(line_bytes - 1);
    std::uint64_t first = first_text_store;
    const std::uint64_t end = std::min<std::uint64_t>(std::uint64_t{line} + line_bytes, text_end);
    for (std::uint64_t a = std::max(line, text_base); a < end; a += 4) {
      first = std::min(first, first_access[(a - text_base) / 4]);
    }
    return first;
  }

  // The flips of an icache-line `spec`, drawn as the trial machine would
  // draw them at its trigger, and their first read; nullopt when the golden
  // I-cache run stores into its text or evicts, so the fill times do not
  // describe it.
  std::optional<PlannedFlips> plan_icache_flips(const FaultSpec& spec) const {
    if (first_text_store != kNever || evicts) return std::nullopt;
    const std::vector<std::uint32_t> valid = filled_before(spec.trigger_index);
    PlannedFlips plan;
    support::Rng rng(icache_flip_seed(spec));
    for (unsigned flip = 0; flip < support::popcount32(spec.xor_mask); ++flip) {
      const std::optional<mem::ICache::Flip> bit =
          mem::ICache::choose_flip(valid, geometry.words_per_line, rng);
      if (!bit.has_value()) break;
      const mem::ICache::Slot slot{bit->line, filled_tag[bit->line], bit->word};
      plan.flips.push_back({*bit, mem::ICache::word_address(geometry, slot)});
    }
    plan.first_read = next_fetch(spec.trigger_index, plan.flips);
    return plan;
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

  // The first instruction at or after `from` whose fetch reads the word of
  // one of `flips`; kNever when none does. Words outside the text (line
  // padding) are never fetched.
  std::uint64_t next_fetch(std::uint64_t from,
                           const std::vector<PlannedFlips::Flip>& flips) const {
    std::vector<std::uint32_t> words;
    std::uint64_t until = 0;  // no fetch of any of them from here on
    for (const PlannedFlips::Flip& flip : flips) {
      if (flip.address < text_base || flip.address >= text_end) continue;
      words.push_back((flip.address - text_base) / 4);
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
  std::uint64_t first_text_store = kNever;
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
    : image_(image), config_(config), checkpoints_(checkpoints) {
  // Load once, share forever: every trial's CPU reads this frozen image
  // through copy-on-write pages instead of re-running the loader (and, when
  // monitored, its whole-text hash computation), and shares one fused
  // classification of the spec with the golden run.
  loaded_ = cpu::preload_image(config_, image_);
  loaded_.fused = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*loaded_.spec));

  cpu::RunResult result;
  if (checkpoints_.enabled) {
    golden_ = std::make_unique<CheckpointedGolden>(config_, image_, loaded_,
                                                   checkpoints_.stride);
    loaded_.translations = golden_->translations();
    result = golden_->result();
  } else {
    cpu::Cpu golden(config_, image_, &loaded_);
    result = golden.run();
    support::check(result.reason == cpu::ExitReason::kExit,
                   "campaign golden run did not exit cleanly");
  }
  golden_instructions_ = result.instructions;
  golden_console_ = result.console;
  golden_exit_code_ = result.exit_code;
  golden_result_ = std::move(result);
  // Every site but icache-line runs on the campaign machine.
  if (golden_) {
    cursors_ = std::make_unique<CursorPool>(*golden_, trial_config(FaultSite::kFetchBus));
  }
}

CampaignRunner::CampaignRunner(const casm_::Image& image, const cpu::CpuConfig& config,
                               const CheckpointConfig& checkpoints, const GoldenState& state)
    : image_(image), config_(config), checkpoints_(checkpoints) {
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

  if (checkpoints_.enabled) {
    // The rebuild constructor re-validates the schedule, the image starts and
    // the clean exit, then rebuilds the image from the starts.
    golden_ = std::make_unique<CheckpointedGolden>(config_, image_, loaded_, state.snapshots,
                                                   state.result, state.stride,
                                                   state.image_starts);
    loaded_.translations = golden_->translations();
  } else {
    support::check(state.result.reason == cpu::ExitReason::kExit,
                   "campaign golden run did not exit cleanly");
  }
  golden_instructions_ = state.result.instructions;
  golden_console_ = state.result.console;
  golden_exit_code_ = state.result.exit_code;
  golden_result_ = state.result;
  // Every site but icache-line runs on the campaign machine.
  if (golden_) {
    cursors_ = std::make_unique<CursorPool>(*golden_, trial_config(FaultSite::kFetchBus));
  }
}

GoldenState CampaignRunner::export_golden() const {
  GoldenState state;
  state.image_pages = *loaded_.pages;
  state.fht_blob = loaded_.fht.serialize();
  state.fht_was_attached = loaded_.fht_was_attached;
  state.entry = loaded_.entry;
  if (golden_) {
    state.snapshots = golden_->snapshots();
    state.stride = golden_->stride();
  }
  if (loaded_.translations) state.image_starts = loaded_.translations->starts();
  state.result = golden_result_;
  return state;
}

CampaignRunner::~CampaignRunner() = default;

cpu::CpuConfig CampaignRunner::trial_config(FaultSite site) const {
  cpu::CpuConfig config = config_;
  // A corrupted loop counter can spin forever; bound each trial well above
  // the golden length so hangs are classified, not waited out.
  config.max_instructions = golden_instructions_ * 4 + 100'000;
  if (site == FaultSite::kICacheLine) config.icache.enabled = true;
  return config;
}

CampaignRunner::CursorPool& CampaignRunner::cursors(FaultSite site) const {
  if (site != FaultSite::kICacheLine || config_.icache.enabled) return *cursors_;
  // Recorded lazily (thread-safe: run_trial races here); the LoadedImage is
  // cache-independent and is reused.
  std::call_once(icache_once_, [this] {
    cpu::CpuConfig config = config_;
    config.icache.enabled = true;
    icache_golden_ =
        std::make_unique<CheckpointedGolden>(config, image_, loaded_, checkpoints_.stride);
    icache_cursors_ =
        std::make_unique<CursorPool>(*icache_golden_, trial_config(FaultSite::kICacheLine));
  });
  return *icache_cursors_;
}

const CampaignRunner::TextAccess& CampaignRunner::text_access() const {
  std::call_once(text_once_, [this] {
    auto access =
        std::make_unique<TextAccess>(image_, trial_config(FaultSite::kICacheLine).icache);
    cpu::CpuConfig config = trial_config(FaultSite::kFetchBus);
    config.icache.enabled = false;
    cpu::Cpu walk(config, image_, &loaded_);
    walk.fetch_path().set_bus_tamper(access.get());
    walk.set_text_watch(access.get());
    const cpu::RunResult result = walk.run();
    // On the campaign machine itself the walk is the golden run.
    support::check(config_.icache.enabled || result.instructions == golden_instructions_,
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

std::uint64_t CampaignRunner::fork_point(const FaultSpec& spec) const {
  if (spec.site == FaultSite::kFetchBus || spec.site == FaultSite::kFetchBusPaired) {
    return spec.trigger_index;
  }
  if (spec.site == FaultSite::kICacheLine) {
    // Planned flips that the golden run fetches again fork at that fetch,
    // which is at most its last instruction.
    const std::optional<PlannedFlips> planned = text_access().plan_icache_flips(spec);
    if (planned.has_value() && planned->first_read != kNever) return planned->first_read;
  }
  // A cursor never retires the golden run's last instruction: it stays a
  // running golden state that later trials can fork from.
  const std::uint64_t last = std::max<std::uint64_t>(golden_instructions_, 1) - 1;
  if (spec.site != FaultSite::kMemoryText) return std::min(spec.trigger_index, last);
  // A word outside the text has no summary entry: start at instruction 0.
  if (!image_.contains_text(spec.target_address)) return 0;
  return std::min(text_access().first_read(spec.target_address, config_.icache), last);
}

void CampaignRunner::count_restore(std::uint64_t instructions) const {
  static const obs::CounterId k_restores = obs::counter("campaign.snapshot_restores");
  static const obs::CounterId k_skipped = obs::counter("campaign.skipped_instructions");
  restores_.fetch_add(1, std::memory_order_relaxed);
  skipped_instructions_.fetch_add(instructions, std::memory_order_relaxed);
  obs::bump(k_restores);
  obs::bump(k_skipped, instructions);
}

bool CampaignRunner::fork_golden(CursorPool& pool, const FaultSpec& spec, std::uint64_t target,
                                 cpu::Snapshot* out) const {
  const bool by_transfers =
      spec.site == FaultSite::kFetchBus || spec.site == FaultSite::kFetchBusPaired;
  const auto clock = by_transfers
                         ? +[](cpu::Cpu& c) { return c.fetch_path().bus_transfers(); }
                         : +[](cpu::Cpu& c) { return c.instructions_retired(); };
  const std::uint64_t last = std::max<std::uint64_t>(golden_instructions_, 1) - 1;
  std::unique_ptr<cpu::Cpu> cursor = pool.checkout(clock, target, image_, loaded_);

  const CheckpointedGolden& golden = pool.golden();
  const cpu::Snapshot& nearest = by_transfers ? golden.nearest_by_transfers(target)
                                              : golden.nearest_by_instructions(target);
  if (clock(*cursor) > target || cursor->instructions_retired() < nearest.instructions) {
    cursor->restore_snapshot(nearest);
    count_restore(nearest.instructions);
  }
  const auto walk_to = [&cursor](std::uint64_t instructions) {
    support::check(!cursor->run_until(instructions).has_value(),
                   "golden cursor ended before its fork point");
  };
  const std::uint64_t from = cursor->instructions_retired();
  if (by_transfers) {
    // One instruction moves the bus clock by at most transfers_per_instruction,
    // so stepping remaining / that many instructions never overshoots.
    for (;;) {
      const std::uint64_t steps =
          (target - clock(*cursor)) / pool.transfers_per_instruction();
      const std::uint64_t at = cursor->instructions_retired();
      if (steps == 0 || at >= last) break;
      walk_to(std::min(at + steps, last));
    }
    support::check(clock(*cursor) <= target, "golden cursor overshot its fork point");
  } else if (from < target) {
    walk_to(target);
  }
  static const obs::CounterId k_cursor = obs::counter("campaign.cursor_instructions");
  const std::uint64_t walked = cursor->instructions_retired() - from;
  cursor_instructions_.fetch_add(walked, std::memory_order_relaxed);
  obs::bump(k_cursor, walked);
  cursor->publish_metrics();

  const bool forked = cursor->instructions_retired() != 0;
  if (forked) cursor->save_snapshot(out);
  pool.checkin(std::move(cursor));
  return forked;
}

TrialResult CampaignRunner::run_trial(const FaultSpec& spec) const {
  static const obs::CounterId k_trials = obs::counter("campaign.trials");
  // An icache-line trial that flips nothing, or whose flips the golden run
  // never fetches again, is the golden I-cache run: only a fetch of a
  // flipped address reads a flip, and a refill overwrites it.
  const auto inert = [this, &spec]() -> const cpu::RunResult& {
    static const obs::CounterId k_inert = obs::counter("campaign.inert_flips");
    inert_flips_.fetch_add(1, std::memory_order_relaxed);
    obs::bump(k_inert);
    return cursors(spec.site).golden().result();
  };
  // With checkpoints, an icache-line trial draws its flips from the golden
  // I-cache state at its trigger when the text-access summary describes that
  // run: inert flips take no machine, live ones fork at their first read.
  std::optional<PlannedFlips> planned;
  if (golden_ != nullptr && spec.site == FaultSite::kICacheLine) {
    planned = text_access().plan_icache_flips(spec);
    if (planned.has_value() && planned->first_read == kNever) {
      obs::bump(k_trials);
      const cpu::RunResult& result = inert();
      return {classify(result, golden_console_, golden_exit_code_), result.reason, spec, {}};
    }
  }

  const auto build_machine = [this, &spec] {
    trial_machines_.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<cpu::Cpu>(trial_config(spec.site), image_, &loaded_);
  };
  // Fast-forward: start from the golden state at the fork point, forked off
  // a cursor and restored into an idle trial machine (see CheckpointConfig).
  // The suffix then executes exactly as a from-zero run would (byte-identity
  // enforced by tests). A trial that starts at instruction 0 starts on a
  // fresh machine, as every trial does without checkpoints.
  CursorPool* pool = golden_ != nullptr ? &cursors(spec.site) : nullptr;
  std::unique_ptr<cpu::Cpu> machine;
  std::uint64_t transfers_done = 0;
  if (pool != nullptr) {
    cpu::Snapshot start;
    const std::uint64_t target = planned.has_value() ? planned->first_read : fork_point(spec);
    if (fork_golden(*pool, spec, target, &start)) {
      static const obs::CounterId k_forks = obs::counter("campaign.forks");
      forks_.fetch_add(1, std::memory_order_relaxed);
      obs::bump(k_forks);
      count_restore(start.instructions);
      transfers_done = start.bus_transfers;
      machine = pool->checkout_machine();
      if (machine == nullptr) machine = build_machine();
      machine->restore_snapshot(std::move(start));
    }
  }
  if (machine == nullptr) machine = build_machine();
  cpu::Cpu& cpu = *machine;
  // A machine's counters span its trials; this trial publishes its share.
  const std::uint64_t cow_pages_before = cpu.memory().cow_pages_copied();
  const std::uint64_t resets_before = cpu.tcache_resets();

  // The one-shot tamper counts transfers from when it is attached; a forked
  // trial attaches it mid-stream, so its trigger is relative to the fork's
  // transfer count. The post-ID trigger compares against the global
  // retired-instruction count, which restore re-establishes.
  OneShotBusTamper tamper(spec.trigger_index - transfers_done, spec.xor_mask,
                          spec.site == FaultSite::kFetchBusPaired);
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
    case FaultSite::kICacheLine:
      break;  // injected mid-run below
  }

  std::optional<cpu::RunResult> result;
  if (planned.has_value()) {
    // Nothing fetched a flipped word since the trigger and nothing was
    // evicted, so the fork holds each planned line as the trigger did. A
    // summary that disagrees with the real cache fails here, loudly: the fork
    // must hold exactly the lines, with the tags, that it dates as filled.
    mem::ICache& icache = *cpu.fetch_path().icache();
    support::check(text_access().describes(icache, cpu.instructions_retired()),
                   "icache-line fork: the cache holds other lines than the summary dates");
    for (const PlannedFlips::Flip& flip : planned->flips) icache.apply_flip(flip.bit);
  } else if (spec.site == FaultSite::kICacheLine) {
    // Run to the trigger on the configured engine, then flip resident bits.
    support::Rng icache_rng(icache_flip_seed(spec));
    result = cpu.run_until(spec.trigger_index);
    if (!result.has_value()) {
      // Without checkpoints every trial runs to its end (the reference).
      bool live = golden_ == nullptr;
      mem::ICache* icache = cpu.fetch_path().icache();
      if (icache != nullptr) {
        for (unsigned flip = 0; flip < support::popcount32(spec.xor_mask); ++flip) {
          const bool flipped = icache->flip_random_resident_bit(icache_rng).has_value();
          live = live || flipped;
        }
      }
      if (!live) result = inert();
    }
  }
  std::optional<std::uint64_t> converged_at;
  if (!result.has_value()) {
    const bool transient = spec.site == FaultSite::kFetchBus ||
                           spec.site == FaultSite::kFetchBusPaired ||
                           spec.site == FaultSite::kPostIdLatch;
    result = transient && golden_ ? run_converging(cpu, spec, &converged_at) : cpu.run();
  }

  static const obs::CounterId k_cow_pages = obs::counter("campaign.cow_pages_copied");
  obs::bump(k_trials);
  obs::bump(k_cow_pages, cpu.memory().cow_pages_copied() - cow_pages_before);
  cpu.publish_metrics();
  const bool detached = cpu.tcache_resets() != resets_before;
  if (loaded_.translations && detached) detached_.fetch_add(1);
  // A detached machine would run every later trial without the image.
  if (pool != nullptr && !detached) pool->checkin_machine(std::move(machine));
  return {classify(*result, golden_console_, golden_exit_code_), result->reason, spec,
          converged_at};
}

std::size_t CampaignRunner::first_spent_snapshot(const FaultSpec& spec) const {
  support::check(golden_ != nullptr, "first_spent_snapshot: checkpoints are off");
  // The golden clocks pick the boundary; a trial that matches it there has
  // the same clocks (matches_snapshot compares both), so its own fault is
  // spent too.
  if (spec.site == FaultSite::kPostIdLatch) {
    return golden_->first_after_instructions(spec.trigger_index);
  }
  return golden_->first_after_transfers(last_tampered_transfer(spec));
}

cpu::RunResult CampaignRunner::run_converging(cpu::Cpu& cpu, const FaultSpec& spec,
                                              std::optional<std::uint64_t>* converged_at) const {
  const std::vector<cpu::Snapshot>& snapshots = golden_->snapshots();
  static const obs::CounterId k_checks = obs::counter("campaign.convergence_checks");
  for (std::size_t next = first_spent_snapshot(spec), gap = 1; next < snapshots.size();
       next += gap, gap *= 2) {
    const cpu::Snapshot& golden = snapshots[next];
    if (auto done = cpu.run_until(golden.instructions)) return *done;
    // Disarm a fault the trial has spent, by its own clocks: a diverged
    // trial can reach this boundary's instruction count with fewer bus
    // transfers than the golden run made.
    if (spec.site == FaultSite::kPostIdLatch) {
      if (cpu.instructions_retired() > spec.trigger_index) cpu.set_post_id_fault(std::nullopt);
    } else if (cpu.fetch_path().bus_transfers() > last_tampered_transfer(spec)) {
      cpu.fetch_path().set_bus_tamper(nullptr);
    }
    convergence_checks_.fetch_add(1, std::memory_order_relaxed);
    obs::bump(k_checks);
    if (cpu.matches_snapshot(golden) && cpu.console() == golden.result.console) {
      // From here the trial is the golden run: same state, fault spent.
      const std::uint64_t skipped = golden_instructions_ - golden.instructions;
      converged_.fetch_add(1, std::memory_order_relaxed);
      converged_skipped_instructions_.fetch_add(skipped, std::memory_order_relaxed);
      static const obs::CounterId k_converged = obs::counter("campaign.converged");
      static const obs::CounterId k_skipped =
          obs::counter("campaign.converged_skipped_instructions");
      obs::bump(k_converged);
      obs::bump(k_skipped, skipped);
      *converged_at = golden.instructions;
      return golden_->result();
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
  spec.cell_key = [](std::size_t trial) { return "trial/" + std::to_string(trial); };
  const auto draw = [this, site, bits, seed, text_words](std::size_t trial) {
    support::Rng rng(support::derive_stream_seed(seed, trial));
    FaultSpec fault;
    fault.site = site;
    fault.xor_mask = random_mask(rng, bits);
    fault.trigger_index = rng.below(golden_instructions_);
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
  // Fork-point order lets the cursors walk the golden run forward instead of
  // falling back to recorded snapshots. Without checkpoints there are no
  // cursors.
  if (golden_ != nullptr) {
    spec.order_key = [this, draw](std::size_t trial) { return fork_point(draw(trial)); };
  }
  return spec;
}

CampaignSummary CampaignRunner::summary_from_cells(const std::vector<exp::CellResult>& cells) {
  CampaignSummary summary;
  for (const exp::CellResult& cell : cells) {
    support::check(cell.u64.size() == 1 && cell.u64[0] <= static_cast<std::uint64_t>(Outcome::kHang),
                   "campaign cell does not carry an outcome code");
    summary.add(static_cast<Outcome>(cell.u64[0]));
  }
  return summary;
}

CampaignSummary CampaignRunner::run_random(FaultSite site, unsigned bits, unsigned trials,
                                           std::uint64_t seed, unsigned jobs) {
  return summary_from_cells(exp::run_all(sweep(site, bits, trials, seed), jobs));
}

}  // namespace cicmon::fault
