#include "cpu/cpu.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/bitops.h"
#include "support/error.h"

namespace cicmon::cpu {
namespace {

constexpr unsigned kV0 = 2;
constexpr unsigned kA0 = 4;
constexpr unsigned kA1 = 5;

std::size_t sp(uop::SpecialReg r) { return static_cast<std::size_t>(r); }

using isa::consumes_early;

// Structural check that the shared IF program is exactly the canonical
// Figure 1 shape (plus the Figure 3(b) monitoring tail when monitored).
// Checked once at construction; a match lets the fetch stage run as
// straight-line code with identical effects on temps and special registers.
bool is_canonical_fetch(const std::vector<uop::Uop>& fetch, bool monitored) {
  using K = uop::UopKind;
  using S = uop::SpecialReg;
  using G = uop::GuardKind;
  if (fetch.size() != (monitored ? 11U : 6U)) return false;
  const auto plain = [](const uop::Uop& op, K kind) {
    return op.kind == kind && op.stage == uop::Stage::kIF && op.guard == G::kAlways;
  };
  const uop::Uop* op = fetch.data();
  if (!(plain(op[0], K::kReadSpecial) && op[0].special == S::kCpc && op[0].dst == 0)) return false;
  if (!(plain(op[1], K::kFetchInstr) && op[1].dst == 1 && op[1].src_a == 0)) return false;
  if (!(plain(op[2], K::kWriteSpecial) && op[2].special == S::kIReg && op[2].src_a == 1)) return false;
  if (!(plain(op[3], K::kImm) && op[3].imm_kind == uop::ImmKind::kConst && op[3].literal == 4 &&
        op[3].dst == 2)) return false;
  if (!(plain(op[4], K::kAlu) && op[4].alu == uop::AluOp::kAdd && op[4].src_a == 0 &&
        op[4].src_b == 2 && op[4].dst == 3)) return false;
  if (!(plain(op[5], K::kWriteSpecial) && op[5].special == S::kCpc && op[5].src_a == 3)) return false;
  if (!monitored) return true;
  using MT = uop::MonitorTemps;
  if (!(plain(op[6], K::kReadSpecial) && op[6].special == S::kSta && op[6].dst == MT::kStartIf))
    return false;
  if (!(op[7].kind == K::kWriteSpecial && op[7].special == S::kSta && op[7].src_a == 0 &&
        op[7].guard == G::kIfZero && op[7].guard_tmp == MT::kStartIf)) return false;
  if (!(plain(op[8], K::kReadSpecial) && op[8].special == S::kRhash && op[8].dst == MT::kOldHash))
    return false;
  if (!(plain(op[9], K::kHashStep) && op[9].dst == MT::kNewHash && op[9].src_a == MT::kOldHash &&
        op[9].src_b == 1)) return false;
  if (!(plain(op[10], K::kWriteSpecial) && op[10].special == S::kRhash &&
        op[10].src_a == MT::kNewHash)) return false;
  return true;
}

}  // namespace

std::string_view engine_name(Engine engine) {
  return engine == Engine::kThreaded ? "threaded" : "switch";
}

std::string_view exit_reason_name(ExitReason reason) {
  switch (reason) {
    case ExitReason::kExit: return "exit";
    case ExitReason::kMonitorTerminated: return "monitor-terminated";
    case ExitReason::kIllegalInstruction: return "illegal-instruction";
    case ExitReason::kWildPc: return "wild-pc";
    case ExitReason::kSelfCheckFailed: return "self-check-failed";
    case ExitReason::kWatchdog: return "watchdog";
  }
  return "?";
}

Cpu::Cpu(const CpuConfig& config, const casm_::Image& image)
    : Cpu(config, image, nullptr) {}

Cpu::Cpu(const CpuConfig& config, const casm_::Image& image, const LoadedImage* loaded)
    : config_(config), memory_(), fetch_(&memory_, config.icache) {
  if (loaded != nullptr) {
    // Preloaded path: share the spec, read memory through the frozen page
    // base (copy-on-write), and copy the already-recovered FHT — no loader,
    // no hash recomputation. Bit-identical to the loading path below.
    attach_loaded(*loaded);
  } else {
    auto spec = std::make_shared<uop::IsaUopSpec>(uop::build_isa_uops());
    if (config_.monitoring) {
      uop::embed_monitoring(spec.get());
      cic_.emplace(config_.cic);
      os::LoadedProgram program = os::os_load(image, &memory_, cic_->hash_unit());
      os_.emplace(config_.os, std::move(program.fht));
      special_[sp(uop::SpecialReg::kRhash)] = cic_->rhash_init();
    } else {
      memory_.load_image(image);
    }
    spec_ = std::move(spec);
  }
  special_[sp(uop::SpecialReg::kCpc)] = image.entry;
  gpr_[isa::kSp] = casm_::kStackTop;
  gpr_[isa::kGp] = image.data_base;
  text_base_ = image.text_base;
  text_end_ = image.text_end();
  predecode_.resize((text_end_ - text_base_) / 4);
  fast_fetch_ = is_canonical_fetch(spec_->fetch, spec_->monitoring_embedded);
  if (config_.engine == Engine::kThreaded && fast_fetch_) {
    if (!fused_) fused_ = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*spec_));
    tcache_ = std::make_unique<uop::TranslationCache>(text_base_, text_end_, true);
    threaded_ = true;
  }
}

Cpu::~Cpu() = default;

std::uint32_t Cpu::special(uop::SpecialReg reg) const { return special_[sp(reg)]; }

std::uint32_t Cpu::read_special(uop::SpecialReg r) { return special_[sp(r)]; }

void Cpu::write_special(uop::SpecialReg r, std::uint32_t value) { special_[sp(r)] = value; }

void Cpu::reset_special(uop::SpecialReg r) {
  // RHASH resets to the HASHFU's initial state (the per-process key for the
  // keyed unit); everything else resets to zero.
  special_[sp(r)] =
      (r == uop::SpecialReg::kRhash && cic_) ? cic_->rhash_init() : 0;
}

std::uint32_t Cpu::read_gpr(unsigned index) { return gpr_[index & 31U]; }

void Cpu::write_gpr(unsigned index, std::uint32_t value) {
  if ((index & 31U) == 0) return;  // r0 is hard-wired to zero
  gpr_[index & 31U] = value;
}

std::uint32_t Cpu::fetch_instr(std::uint32_t address) { return fetch_.fetch(address); }

void Cpu::watch_text(std::uint32_t address, uop::MemWidth width, bool store) {
  const unsigned bytes = width == uop::MemWidth::kByte ? 1 : width == uop::MemWidth::kHalf ? 2 : 4;
  if (address < text_end_ && std::uint64_t{address} + bytes > text_base_) {
    text_watch_->on_text_access(address, bytes, store);
  }
}

std::uint32_t Cpu::load(std::uint32_t address, uop::MemWidth width, bool sign) {
  if (text_watch_ != nullptr) watch_text(address, width, false);
  switch (width) {
    case uop::MemWidth::kByte: {
      const std::uint8_t v = memory_.read8(address);
      return sign ? static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(v)))
                  : v;
    }
    case uop::MemWidth::kHalf: {
      const std::uint16_t v = memory_.read16(address);
      return sign
                 ? static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(v)))
                 : v;
    }
    case uop::MemWidth::kWord:
      return memory_.read32(address);
  }
  return 0;
}

void Cpu::store(std::uint32_t address, uop::MemWidth width, std::uint32_t value) {
  if (text_watch_ != nullptr) watch_text(address, width, true);
  switch (width) {
    case uop::MemWidth::kByte:
      memory_.write8(address, static_cast<std::uint8_t>(value));
      break;
    case uop::MemWidth::kHalf:
      memory_.write16(address, static_cast<std::uint16_t>(value));
      break;
    case uop::MemWidth::kWord:
      memory_.write32(address, value);
      break;
  }
}

std::uint32_t Cpu::hash_step(std::uint32_t old_hash, std::uint32_t instr_word) {
  return cic_->hash_step(old_hash, instr_word);
}

uop::IhtLookupResult Cpu::iht_lookup(std::uint32_t start, std::uint32_t end,
                                     std::uint32_t hash) {
  if (observer_) observer_(start, end);
  return cic_->lookup(start, end, hash);
}

void Cpu::raise_monitor_exception(std::uint8_t code) { pending_exc_ = code; }

void Cpu::set_pc(std::uint32_t target) {
  special_[sp(uop::SpecialReg::kCpc)] = target;
  pc_redirected_ = true;
}

void Cpu::syscall() {
  const auto code = static_cast<casm_::Sys>(gpr_[kV0]);
  const std::uint32_t a0 = gpr_[kA0];
  const std::uint32_t a1 = gpr_[kA1];
  switch (code) {
    case casm_::Sys::kExit:
      terminate(ExitReason::kExit, a0);
      break;
    case casm_::Sys::kPutInt:
      result_.console += std::to_string(static_cast<std::int32_t>(a0));
      break;
    case casm_::Sys::kPutChar:
      result_.console += static_cast<char>(a0);
      break;
    case casm_::Sys::kCheck:
      if (a0 != a1) {
        result_.check_observed = a0;
        result_.check_expected = a1;
        terminate(ExitReason::kSelfCheckFailed, 1);
      }
      break;
  }
}

void Cpu::illegal_instruction() { terminate(ExitReason::kIllegalInstruction, 0); }

void Cpu::terminate(ExitReason reason, std::uint32_t code) {
  running_ = false;
  result_.reason = reason;
  result_.exit_code = code;
  if (cic_) result_.iht = cic_->iht().stats();
  if (os_) result_.os = os_->stats();
}

void Cpu::handle_pending_monitor_exception() {
  if (!pending_exc_.has_value()) return;
  const std::uint8_t code = *pending_exc_;
  pending_exc_.reset();
  const cic::LookupKey key = cic_->last_lookup();
  const os::ExceptionOutcome outcome = (code == uop::kExcHashMiss)
                                           ? os_->handle_hash_miss(key, &cic_->iht())
                                           : os_->handle_hash_mismatch(key);
  result_.cycles += outcome.cycles;
  result_.monitor_cycles += outcome.cycles;
  if (outcome.terminate) {
    result_.monitor_cause = outcome.cause;
    terminate(ExitReason::kMonitorTerminated, 0);
  }
}

void Cpu::run_fetch_stage() {
  if (!fast_fetch_) {
    uop::execute_ops(std::span<const uop::Uop>(spec_->fetch), ctx_, *this);
    return;
  }
  // Straight-line equivalent of the canonical IF program, verified against
  // the spec at construction. Effects (temps written, special-register
  // traffic, fetch and hash calls) match the interpreter bit for bit.
  auto& t = ctx_.temps;
  const std::uint32_t pc = special_[sp(uop::SpecialReg::kCpc)];
  t[0] = pc;                                     // current_pc = CPC.read()
  const std::uint32_t word = fetch_.fetch(pc);   // instr = IMAU.read(current_pc)
  t[1] = word;
  special_[sp(uop::SpecialReg::kIReg)] = word;   // IReg.write(instr)
  t[2] = 4;
  const std::uint32_t next_pc = pc + 4;
  t[3] = next_pc;
  special_[sp(uop::SpecialReg::kCpc)] = next_pc;  // CPC.inc()
  if (spec_->monitoring_embedded) {
    // Figure 3(b): latch the block start, fold the word into the hash.
    const std::uint32_t start = special_[sp(uop::SpecialReg::kSta)];
    t[uop::MonitorTemps::kStartIf] = start;
    if (start == 0) special_[sp(uop::SpecialReg::kSta)] = pc;
    const std::uint32_t old_hash = special_[sp(uop::SpecialReg::kRhash)];
    t[uop::MonitorTemps::kOldHash] = old_hash;
    const std::uint32_t new_hash = cic_->hash_step(old_hash, word);
    t[uop::MonitorTemps::kNewHash] = new_hash;
    special_[sp(uop::SpecialReg::kRhash)] = new_hash;
  }
}

void Cpu::account_hazards(const isa::Instruction& instr) {
  // Redirect bubble: the front end refetches after a control transfer
  // resolves in ID.
  if (pc_redirected_ && config_.timing.frontend_stages > 1) {
    const std::uint64_t bubble = config_.timing.frontend_stages - 1;
    result_.cycles += bubble;
    result_.branch_bubbles += bubble;
  }

  // Load-use: the previous instruction was a load whose destination this
  // instruction consumes in ID/EX.
  if (prev_load_dst_ != 0 && consumes_early(instr, prev_load_dst_)) {
    result_.cycles += config_.timing.load_use_stall;
    result_.load_use_stalls += config_.timing.load_use_stall;
  }
  prev_load_dst_ = 0;
  if (instr.valid()) {
    const isa::InstrClass cls = instr.info().cls;
    if (cls == isa::InstrClass::kLoad) prev_load_dst_ = instr.rt;
    if (cls == isa::InstrClass::kMulDiv) {
      const bool is_div =
          instr.mnemonic == isa::Mnemonic::kDiv || instr.mnemonic == isa::Mnemonic::kDivu;
      hilo_ready_cycle_ =
          result_.cycles + (is_div ? config_.timing.div_latency : config_.timing.mult_latency);
    }
    if ((instr.mnemonic == isa::Mnemonic::kMfhi || instr.mnemonic == isa::Mnemonic::kMflo) &&
        result_.cycles < hilo_ready_cycle_) {
      const std::uint64_t stall = hilo_ready_cycle_ - result_.cycles;
      result_.cycles += stall;
      result_.muldiv_stalls += stall;
    }
  }
}

template <uop::FusedKind K, bool kBatched>
void Cpu::account_hazards_entry(const uop::TransEntry& e) {
  // account_hazards against the metadata precomputed at translation time,
  // after entry `e` retired. Fused kinds always carry a valid instruction,
  // so the valid() branch of the generic version is folded into the
  // precompute (invalid words travel through the interpreter as kGeneric /
  // kIllegal). A batched entry charges its stalls to batch_extra_ and runs
  // the latency model on batched_cycles (== what result_.cycles would be
  // here unbatched); the breakdown counters are exact either way.
  using FK = uop::FusedKind;
  std::uint64_t& stall_clock = kBatched ? batch_extra_ : result_.cycles;
  if constexpr (!kBatched) {
    // Straight-line kinds never redirect, and a batched prologue leaves
    // pc_redirected_ as the previous block's terminator set it.
    if (pc_redirected_ && config_.timing.frontend_stages > 1) {
      const std::uint64_t bubble = config_.timing.frontend_stages - 1;
      stall_clock += bubble;
      result_.branch_bubbles += bubble;
    }
  }
  if (prev_load_dst_ != 0 &&
      (prev_load_dst_ == e.early_a || prev_load_dst_ == e.early_b)) {
    stall_clock += config_.timing.load_use_stall;
    result_.load_use_stalls += config_.timing.load_use_stall;
  }
  prev_load_dst_ = e.load_dst;
  // make_entry derives muldiv_lat and is_mfhilo from the decoded mnemonic:
  // only mult/div entries (kMulDiv) carry a latency and only mfhi/mflo
  // entries (kHiLoRead) wait for it.
  if constexpr (K == FK::kMulDiv) {
    const std::uint64_t now = kBatched ? batched_cycles(&e) : result_.cycles;
    hilo_ready_cycle_ = now + (e.muldiv_lat == 2 ? config_.timing.div_latency
                                                 : config_.timing.mult_latency);
  }
  if constexpr (K == FK::kHiLoRead) {
    if (const std::uint64_t now = kBatched ? batched_cycles(&e) : result_.cycles;
        e.is_mfhilo && now < hilo_ready_cycle_) {
      const std::uint64_t stall = hilo_ready_cycle_ - now;
      stall_clock += stall;
      result_.muldiv_stalls += stall;
    }
  }
}

std::optional<RunResult> Cpu::step() {
  if (!running_) return finish_result();

  if (result_.instructions >= config_.max_instructions) {
    terminate(ExitReason::kWatchdog, 0);
    return finish_result();
  }
  return execute_next();
}

std::optional<RunResult> Cpu::execute_next() {
  const std::uint32_t addr = special_[sp(uop::SpecialReg::kCpc)];
  if (addr < text_base_ || addr >= text_end_ || (addr & 3U) != 0) {
    terminate(ExitReason::kWildPc, 0);
    return finish_result();
  }

  ctx_.instr_addr = addr;

  // --- IF: shared fetch program (hash step included when monitored) ---
  run_fetch_stage();
  const std::uint64_t icache_stall = fetch_.take_stall_cycles();
  result_.cycles += icache_stall;
  result_.icache_stall_cycles += icache_stall;

  std::uint32_t word = ctx_.temps[1];  // the fetched (possibly tampered) word
  if (post_id_fault_.has_value() && result_.instructions == post_id_fault_->index) {
    // The hash above saw the clean word; execution proceeds on the flipped
    // one — a fault in a latch downstream of the check point.
    word ^= post_id_fault_->xor_mask;
  }

  // Predecode cache: tagged by the word the pipeline actually carries, so
  // any tampered or refetched-differently word misses and decodes fresh.
  ++predecode_lookups_;
  Predecoded& slot = predecode_[(addr - text_base_) / 4];
  if (slot.program == nullptr || slot.word != word) {
    ++predecode_misses_;
    slot.word = word;
    slot.instr = isa::decode(word);
    slot.program = &spec_->program(slot.instr.mnemonic);
  }
  ctx_.instr = slot.instr;

  if (!exec_stages(slot.program)) return finish_result();
  return std::nullopt;
}

bool Cpu::exec_stages(const uop::InstrUops* program) {
  // PPC tracks the instruction occupying ID (Figure 4 reads the block's end
  // address from it).
  special_[sp(uop::SpecialReg::kPpc)] = ctx_.instr_addr;

  pc_redirected_ = false;

  uop::execute_ops(program->stage(uop::Stage::kID), ctx_, *this);
  if (pending_exc_.has_value()) handle_pending_monitor_exception();
  if (!running_) return false;

  uop::execute_ops(program->stage(uop::Stage::kEX), ctx_, *this);
  if (!running_) return false;
  if (const auto mem_ops = program->stage(uop::Stage::kMEM); !mem_ops.empty()) {
    uop::execute_ops(mem_ops, ctx_, *this);
  }
  if (const auto wb_ops = program->stage(uop::Stage::kWB); !wb_ops.empty()) {
    uop::execute_ops(wb_ops, ctx_, *this);
  }
  if (!running_) return false;

  ++result_.instructions;
  ++result_.cycles;
  account_hazards(ctx_.instr);
  return true;
}

RunResult Cpu::finish_result() {
  if (cic_) result_.iht = cic_->iht().stats();
  if (os_) result_.os = os_->stats();
  return result_;
}

void Cpu::publish_metrics() {
  static const obs::CounterId k_runs = obs::counter("engine.runs");
  static const obs::CounterId k_instructions = obs::counter("engine.instructions");
  static const std::array<obs::CounterId, kEngineCounters> k_ids = {
      obs::counter("engine.instructions.executed"),
      obs::counter("engine.instructions.restored"),
      obs::counter("engine.predecode.misses"),
      obs::counter("engine.predecode.hits"),
      obs::counter("engine.tcache.hits"),
      obs::counter("engine.tcache.translations"),
      obs::counter("engine.tcache.resets"),
      obs::counter("engine.tcache.mismatches"),
      obs::counter("engine.chain.follows"),
      obs::counter("engine.chain.breaks")};
  // Lookups are a plain member increment in step(); the obs registry only
  // sees the totals, as increments since the previous publish.
  const std::array<std::uint64_t, kEngineCounters> now = {
      instructions_executed(),
      instructions_restored(),
      predecode_misses_,
      predecode_lookups_ - predecode_misses_,
      tcache_hits_,
      tcache_ != nullptr ? tcache_->stats().translations : 0,
      tcache_resets_,
      tcache_mismatches_,
      chain_follows_,
      chain_breaks_};
  if (!published_once_) obs::bump(k_runs);
  published_once_ = true;
  obs::bump(k_instructions, now[0] + now[1] - published_[0] - published_[1]);
  for (std::size_t i = 0; i < kEngineCounters; ++i) obs::bump(k_ids[i], now[i] - published_[i]);
  published_ = now;
}

RunResult Cpu::run() { return *run_until(config_.max_instructions); }

std::optional<RunResult> Cpu::run_until(std::uint64_t instructions) {
  if (!running_) return finish_result();
  limit_ = std::min(instructions, config_.max_instructions);
  if (threaded_) return run_threaded();
  // limit_ stands in for step()'s watchdog compare.
  while (result_.instructions < limit_) {
    if (auto done = execute_next(); done.has_value()) return done;
  }
  return stop_at_limit();
}

std::optional<RunResult> Cpu::stop_at_limit() {
  if (result_.instructions < config_.max_instructions) return std::nullopt;  // paused
  terminate(ExitReason::kWatchdog, 0);
  return finish_result();
}

// --- Threaded engine -------------------------------------------------------
//
// One fused handler replaces the per-uop interpretation of one instruction.
// Every handler runs the same prologue as step() — watchdog, the real fetch
// path (hash step, bus, I-cache), stall accounting, post-ID fault — then
// compares the word the pipeline carries against the entry's translation
// tag. A mismatch means the word diverged from the translated text (bus
// tamper, cache-resident flip, memory rewrite, post-ID latch fault): the
// fetched word executes through the interpreter, so every fault path is
// bit-identical with the switch engine.

void Cpu::monitor_block_end() {
  // The Figure 4 monitoring head of a flow-control instruction, verified
  // structurally by the classifier against the embedding pass:
  //   <found, match> = IHTbb.lookup(<STA, PPC, RHASH>)
  //   exception0 = [found == 0]; exception1 = [found && !match]
  //   STA.reset(); RHASH.reset()
  const std::uint32_t start = special_[sp(uop::SpecialReg::kSta)];
  const std::uint32_t end = special_[sp(uop::SpecialReg::kPpc)];
  const std::uint32_t hash = special_[sp(uop::SpecialReg::kRhash)];
  const uop::IhtLookupResult lr = iht_lookup(start, end, hash);
  if (!lr.found) {
    pending_exc_ = uop::kExcHashMiss;
  } else if (!lr.match) {
    pending_exc_ = uop::kExcHashMismatch;
  }
  special_[sp(uop::SpecialReg::kSta)] = 0;
  special_[sp(uop::SpecialReg::kRhash)] = cic_->rhash_init();
}

void Cpu::stop_in_block(const uop::TransEntry& e) {
  if (result_.instructions >= config_.max_instructions) {
    terminate(ExitReason::kWatchdog, 0);
    return;
  }
  // A run_until pause; the block loop hands control back. Mid-block, the
  // previous instruction was entry e - 1 (straight-line code), which the
  // batched handlers retire without step()'s PPC and redirect-flag stores.
  // Set both as step() would have left them, so the paused state is the
  // one save_snapshot captures at this boundary.
  if (e.addr != cur_block_start_) {
    special_[sp(uop::SpecialReg::kPpc)] = e.addr - 4;
    pc_redirected_ = false;
  }
}

Cpu::FusedFlow Cpu::tampered_entry(const uop::TransEntry& e, std::uint32_t word) {
  // The fetched word diverged from the translation tag. Execute the word the
  // pipeline actually carries through the interpreter (its program carries
  // the monitoring extension, so flow control still checks the block), then
  // return to the block loop. A transient fault (bus, post-ID latch, I-cache)
  // leaves every translation valid; rewritten text may sit in any block, so
  // drop the cache (`e` with it) whole.
  ++tcache_mismatches_;
  ctx_.instr = isa::decode(word);
  const bool retired = exec_stages(&spec_->program(ctx_.instr.mnemonic));
  if (memory_.read32(e.addr) != e.word) {
    tcache_->clear();
    ++tcache_resets_;
  }
  return retired ? FusedFlow::kRestart : FusedFlow::kDone;
}

template <uop::FusedKind K, bool kBatched>
Cpu::FusedFlow Cpu::fused(const uop::TransEntry& e) {
  using FK = uop::FusedKind;
  static_assert(!kBatched || !uop::is_block_terminator(K));

  // Prologue: step()'s exact per-instruction order. Mid-block entries skip
  // the wild-PC check only — non-terminators never redirect, and translation
  // never crosses the text end, so e.addr is always a valid text address.
  // A batched entry skips the watchdog and post-ID checks: the per-block
  // precheck in run_threaded proved the watchdog (or a run_until pause)
  // cannot trip inside the straight-line run, and no post-ID fault lands on
  // one of its dynamic indices.
  if constexpr (!kBatched) {
    if (result_.instructions >= limit_) {
      stop_in_block(e);
      return FusedFlow::kDone;
    }
    ctx_.instr_addr = e.addr;
  }
  // IF: the real fetch path (bus, I-cache, hash step), exactly as step()
  // runs it. Fused kinds never read the IF temps, so the specialized path
  // keeps the fetched values in locals and skips the ctx_.temps stores;
  // kGeneric hands the entry to the interpreter, whose programs may read
  // them, so it runs the full shared fetch stage. e.addr == CPC here: the
  // block loop enters at CPC and every fall-through fetch set CPC = pc + 4.
  std::uint32_t word;
  [[maybe_unused]] std::uint32_t sta_before = 0, old_hash = 0, new_hash = 0;
  if constexpr (K == FK::kGeneric) {
    run_fetch_stage();
    word = ctx_.temps[1];
  } else {
    word = fetch_.fetch(e.addr);
    special_[sp(uop::SpecialReg::kIReg)] = word;
    special_[sp(uop::SpecialReg::kCpc)] = e.addr + 4;
    if (spec_->monitoring_embedded) {
      sta_before = special_[sp(uop::SpecialReg::kSta)];
      if (sta_before == 0) special_[sp(uop::SpecialReg::kSta)] = e.addr;
      old_hash = special_[sp(uop::SpecialReg::kRhash)];
      new_hash = cic_->hash_step(old_hash, word);
      special_[sp(uop::SpecialReg::kRhash)] = new_hash;
    }
  }
  if (const std::uint64_t icache_stall = fetch_.take_stall_cycles(); icache_stall != 0) {
    (kBatched ? batch_extra_ : result_.cycles) += icache_stall;
    result_.icache_stall_cycles += icache_stall;
  }

  [[maybe_unused]] const std::uint32_t clean_word = word;
  if constexpr (!kBatched) {
    if (post_id_fault_.has_value() && result_.instructions == post_id_fault_->index) {
      word ^= post_id_fault_->xor_mask;
    }
  }
  if (word != e.word) [[unlikely]] {
    if constexpr (K != FK::kGeneric) {
      // Rebuild the IF temps run_fetch_stage would have written — the
      // interpreter program the fallback runs may read them.
      auto& t = ctx_.temps;
      t[0] = e.addr;
      t[1] = clean_word;
      t[2] = 4;
      t[3] = e.addr + 4;
      if (spec_->monitoring_embedded) {
        t[uop::MonitorTemps::kStartIf] = sta_before;
        t[uop::MonitorTemps::kOldHash] = old_hash;
        t[uop::MonitorTemps::kNewHash] = new_hash;
      }
    }
    if constexpr (kBatched) {
      // Fold the batched prefix into result_ (this entry has not retired).
      ctx_.instr_addr = e.addr;
      flush_batch(&e);
    }
    return tampered_entry(e, word);
  }

  // Straight-line kinds never redirect, raise, or read PPC/instr_addr, so a
  // batched entry skips these stores; stop_in_block restores both when a
  // pause lands mid-block.
  if constexpr (!kBatched) {
    special_[sp(uop::SpecialReg::kPpc)] = e.addr;
    pc_redirected_ = false;
  }

  if constexpr (K == FK::kAluRR) {
    write_gpr(e.dst, uop::alu_eval(e.alu, gpr_[e.a], gpr_[e.b]));
  } else if constexpr (K == FK::kAluRI) {
    write_gpr(e.dst, uop::alu_eval(e.alu, gpr_[e.a], e.imm));
  } else if constexpr (K == FK::kImmWrite) {
    write_gpr(e.dst, e.imm);
  } else if constexpr (K == FK::kLoad) {
    write_gpr(e.dst, load(gpr_[e.a] + e.imm, e.width, e.sign_extend));
  } else if constexpr (K == FK::kStore) {
    store(gpr_[e.a] + e.imm, e.width, gpr_[e.b]);
  } else if constexpr (K == FK::kMulDiv) {
    const uop::HiLo r = uop::muldiv_eval(e.muldiv, gpr_[e.a], gpr_[e.b]);
    special_[sp(uop::SpecialReg::kHi)] = r.hi;
    special_[sp(uop::SpecialReg::kLo)] = r.lo;
  } else if constexpr (K == FK::kHiLoRead) {
    write_gpr(e.dst, special_[e.hilo]);
  } else if constexpr (K == FK::kHiLoWrite) {
    special_[e.hilo] = gpr_[e.a];
  } else if constexpr (K == FK::kBranch2 || K == FK::kBranch1 || K == FK::kJump ||
                       K == FK::kJumpReg) {
    // Flow control: the monitoring head runs first (ID order), then the
    // transfer, then the pending exception resolves before any link write —
    // exactly the interpreter's stage order, so a terminated block never
    // observes the link register update.
    if (spec_->monitoring_embedded) monitor_block_end();
    if constexpr (K == FK::kBranch2) {
      if (uop::alu_eval(e.alu, gpr_[e.a], gpr_[e.b]) != 0) set_pc(e.imm);
    } else if constexpr (K == FK::kBranch1) {
      if (uop::alu_eval(e.alu, gpr_[e.a], 0) != 0) set_pc(e.imm);
    } else if constexpr (K == FK::kJump) {
      set_pc(e.imm);
    } else {
      set_pc(gpr_[e.a]);  // target read before the link write: jalr $r, $r
    }
    if (pending_exc_.has_value()) handle_pending_monitor_exception();
    if (!running_) return FusedFlow::kDone;
    if (e.link) write_gpr(e.dst, e.addr + 4);
    ++result_.instructions;
    ++result_.cycles;
    account_hazards_entry<K, false>(e);
    // Direct edges report which way the block exited so the block loop can
    // follow (or install) the matching chain link; the indirect jump-register
    // edge always returns to the loop for a fresh lookup.
    if constexpr (K == FK::kBranch2 || K == FK::kBranch1) {
      return pc_redirected_ ? FusedFlow::kTaken : FusedFlow::kFall;
    } else if constexpr (K == FK::kJump) {
      return FusedFlow::kTaken;
    } else {
      return FusedFlow::kRestart;
    }
  } else if constexpr (K == FK::kSyscall) {
    syscall();
    if (!running_) return FusedFlow::kDone;
    ++result_.instructions;
    ++result_.cycles;
    account_hazards_entry<K, false>(e);
    return FusedFlow::kRestart;
  } else if constexpr (K == FK::kIllegal) {
    illegal_instruction();
    return FusedFlow::kDone;
  } else {
    static_assert(K == FK::kGeneric);
    // Unmatched program shape (or a force-terminated block tail): run the
    // instruction through the interpreter, sharing exec_stages with step().
    // A retire without a PC redirect is a fall-through to the next word —
    // the chainable edge resolve_edges precomputed for generic terminators.
    ctx_.instr = e.instr;
    if (!exec_stages(e.program)) return FusedFlow::kDone;
    return pc_redirected_ ? FusedFlow::kRestart : FusedFlow::kFall;
  }

  // Straight-line kinds retire here and fall through to the next entry; a
  // batched entry leaves its retire and base cycle to flush_batch.
  if constexpr (!kBatched) {
    ++result_.instructions;
    ++result_.cycles;
  }
  account_hazards_entry<K, kBatched>(e);
  return FusedFlow::kNext;
}

void Cpu::flush_batch(const uop::TransEntry* next) {
  // Entries [batch_base_, next) retired through the batched handlers: one
  // instruction and one base cycle each, plus the dynamic stalls (I-cache,
  // load-use, muldiv) accumulated in batch_extra_. The stat breakdown
  // counters (icache_stall_cycles, load_use_stalls, muldiv_stalls) were
  // bumped as they happened — only the aggregates were deferred.
  const std::uint64_t retired = static_cast<std::uint64_t>(next - batch_base_);
  result_.instructions += retired;
  result_.cycles += retired + batch_extra_;
  batch_base_ = next;
  batch_extra_ = 0;
}

std::uint64_t Cpu::batched_cycles(const uop::TransEntry* e) const {
  // The cycle count the unbatched handler would show right after entry `e`
  // retires (base cycle per batched entry, dynamic stalls in batch_extra_) —
  // the clock the muldiv latency model runs on.
  return result_.cycles + static_cast<std::uint64_t>(e - batch_base_ + 1) + batch_extra_;
}

std::optional<RunResult> Cpu::run_threaded() {
  // A direct-edge block exit whose successor was not yet linked: the link is
  // installed right after the next lookup/translate produces that successor.
  const uop::TranslatedBlock* link_from = nullptr;
  bool link_taken = false;
  while (running_) {
    if (result_.instructions >= limit_) return stop_at_limit();
    const std::uint32_t addr = special_[sp(uop::SpecialReg::kCpc)];
    if (addr < text_base_ || addr >= text_end_ || (addr & 3U) != 0) {
      terminate(ExitReason::kWildPc, 0);
      break;
    }

    const uop::TranslatedBlock* block = tcache_->lookup(addr);
    if (block != nullptr) {
      ++tcache_hits_;
    } else {
      // Translation peeks words straight out of memory: no bus traffic, no
      // I-cache fills, no hash folding. All architectural fetch effects
      // happen per entry inside the fused handlers, through the real fetch
      // path.
      block = tcache_->translate(
          addr, *spec_, *fused_, [this](std::uint32_t a) { return memory_.read32(a); });
    }
    if (link_from != nullptr) {
      // chain() links two live blocks, this one at the recorded edge target.
      tcache_->chain(link_from, link_taken, block);
      link_from = nullptr;
    }

    FusedFlow flow = FusedFlow::kRestart;
    const uop::TransEntry* e;
    bool use_batched;
  enter_block:
    cur_block_start_ = block->start;
    e = block->entries.data();
    // Batched accounting is only valid when nothing can interrupt the
    // straight-line prefix: the watchdog (or a run_until pause) must not
    // trip inside it, and no post-ID fault may land on one of its dynamic
    // indices. The terminator always runs its unbatched handler, which
    // re-checks everything against the flushed counters.
    use_batched = result_.instructions + block->straight_len <= limit_ &&
                  (!post_id_fault_.has_value() ||
                   post_id_fault_->index < result_.instructions ||
                   post_id_fault_->index >= result_.instructions + block->straight_len);
    batch_base_ = e;

    {
      // Handler-table dispatch, indexed by FusedKind. Blocks always end in a
      // terminator entry (the translator force-converts capped tails to
      // kGeneric), so ++e never runs off the end.
      using Handler = FusedFlow (Cpu::*)(const uop::TransEntry&);
      static constexpr Handler kHandlers[uop::kNumFusedKinds] = {
          &Cpu::fused<uop::FusedKind::kAluRR, false>,
          &Cpu::fused<uop::FusedKind::kAluRI, false>,
          &Cpu::fused<uop::FusedKind::kImmWrite, false>,
          &Cpu::fused<uop::FusedKind::kLoad, false>,
          &Cpu::fused<uop::FusedKind::kStore, false>,
          &Cpu::fused<uop::FusedKind::kMulDiv, false>,
          &Cpu::fused<uop::FusedKind::kHiLoRead, false>,
          &Cpu::fused<uop::FusedKind::kHiLoWrite, false>,
          &Cpu::fused<uop::FusedKind::kBranch2, false>,
          &Cpu::fused<uop::FusedKind::kBranch1, false>,
          &Cpu::fused<uop::FusedKind::kJump, false>,
          &Cpu::fused<uop::FusedKind::kJumpReg, false>,
          &Cpu::fused<uop::FusedKind::kSyscall, false>,
          &Cpu::fused<uop::FusedKind::kIllegal, false>,
          &Cpu::fused<uop::FusedKind::kGeneric, false>};
      // Batched handlers cover only the eight straight-line kinds
      // (enumerator indices 0..7); terminators flush the batch and run
      // unbatched.
      static constexpr Handler kBatchedHandlers[8] = {
          &Cpu::fused<uop::FusedKind::kAluRR, true>,
          &Cpu::fused<uop::FusedKind::kAluRI, true>,
          &Cpu::fused<uop::FusedKind::kImmWrite, true>,
          &Cpu::fused<uop::FusedKind::kLoad, true>,
          &Cpu::fused<uop::FusedKind::kStore, true>,
          &Cpu::fused<uop::FusedKind::kMulDiv, true>,
          &Cpu::fused<uop::FusedKind::kHiLoRead, true>,
          &Cpu::fused<uop::FusedKind::kHiLoWrite, true>};
      for (;;) {
        const auto kind = static_cast<unsigned>(e->kind);
        if (use_batched) {
          if (uop::is_block_terminator(e->kind)) {
            flush_batch(e);
            flow = (this->*kHandlers[kind])(*e);
          } else {
            flow = (this->*kBatchedHandlers[kind])(*e);
          }
        } else {
          flow = (this->*kHandlers[kind])(*e);
        }
        if (flow != FusedFlow::kNext) break;
        ++e;
      }
    }

    if (flow == FusedFlow::kTaken || flow == FusedFlow::kFall) {
      const bool taken = flow == FusedFlow::kTaken;
      const uop::TranslatedBlock* next = taken ? block->taken : block->fall;
      if (next != nullptr) {
        // Chain follow: flow straight into the successor. The watchdog is
        // covered by the per-block precheck plus the unbatched terminator
        // handlers, and the link target was verified to be a text address
        // when the edge was resolved — the outer loop's checks are
        // subsumed, not skipped.
        ++chain_follows_;
        block = next;
        goto enter_block;
      }
      ++chain_breaks_;
      if (taken ? block->has_taken : block->has_fall) {
        link_from = block;
        link_taken = taken;
      }
    }
  }
  return finish_result();
}

}  // namespace cicmon::cpu
