// In-order single-issue CPU executing through microoperation programs.
//
// The simulator is timing-directed functional: instructions execute in
// program order, each running the IF..WB slices of its microoperation
// program against the Datapath, while a cycle model layers pipeline timing
// on top (branch redirect bubbles, load-use stalls, multi-cycle multiply/
// divide, I-cache refills, and OS monitoring-exception costs).
//
// Stage slices execute oldest-instruction-first, which encodes the hardware
// ordering the monitor relies on: the ID-stage lookup/reset microoperations
// of a flow-control instruction complete before the IF-stage hash step of
// the next fetched instruction, so RHASH covers exactly one check region.
// (A pipelined implementation achieves the same with same-cycle forwarding
// of the reset; the paper's Figure 4 presumes it.)
//
// Monitoring is enabled by constructing the CPU with CpuConfig::monitoring
// set: the ISA microoperation spec is passed through the embedding pass of
// Section 5, a CodeIntegrityChecker is instantiated, and an OsMonitor is
// attached to service its exceptions. The *binary is identical* in both
// configurations — the scheme's central claim.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "casm/builder.h"
#include "casm/image.h"
#include "isa/registers.h"
#include "cic/checker.h"
#include "mem/fetch_path.h"
#include "mem/memory.h"
#include "os/loader.h"
#include "os/monitor_os.h"
#include "uop/interp.h"
#include "uop/monitor_pass.h"
#include "uop/threaded.h"
#include "uop/translate_cache.h"
#include "uop/uop.h"

// Once-per-dynamic-instruction helpers are forced inline into the engine
// loops: GCC declines them at -O2 because they are called from every fused
// handler instantiation, but the call overhead is the hot path.
#if defined(__GNUC__)
#define CICMON_HOT_INLINE __attribute__((always_inline)) inline
#else
#define CICMON_HOT_INLINE inline
#endif

namespace cicmon::cpu {

// Execution engine. kSwitch is the predecode interpreter (per-uop dispatch
// through execute_ops) and the reference oracle; kThreaded runs fused
// superinstruction handlers over translated blocks, dispatched through a
// handler table, with blocks cached, chained along verified direct edges and
// retired with batched accounting. Both engines produce byte-identical
// results — the engine is a pure execution strategy, like the job count.
enum class Engine : std::uint8_t { kSwitch, kThreaded };

std::string_view engine_name(Engine engine);

// Pipeline timing parameters (single-issue, in-order; the paper's baseline
// is a 6-stage PISA pipeline — `frontend_stages` sets the fetch depth that
// determines the redirect bubble).
struct TimingConfig {
  unsigned frontend_stages = 2;      // IF stages before ID; redirect bubble = this value - 1
  unsigned load_use_stall = 1;       // bubble when a load's value is consumed next
  unsigned mult_latency = 4;         // cycles until HI/LO is readable after mult
  unsigned div_latency = 12;         // cycles until HI/LO is readable after div
};

struct CpuConfig {
  bool monitoring = false;
  cic::CicConfig cic;
  os::OsConfig os;
  mem::ICacheConfig icache;          // disabled by default
  TimingConfig timing;
  std::uint64_t max_instructions = 200'000'000;  // watchdog for fault campaigns
  Engine engine = Engine::kThreaded;
};

enum class ExitReason : std::uint8_t {
  kExit,                // program ran sys_exit
  kMonitorTerminated,   // OS killed it on a monitoring exception
  kIllegalInstruction,  // baseline decode trap (invalid opcode)
  kWildPc,              // fetch left the text section (baseline crash)
  kSelfCheckFailed,     // workload's check_eq observed a wrong value
  kWatchdog,            // max_instructions exceeded
};

std::string_view exit_reason_name(ExitReason reason);

struct RunResult {
  bool operator==(const RunResult&) const = default;

  ExitReason reason = ExitReason::kExit;
  std::uint32_t exit_code = 0;
  os::TerminationCause monitor_cause = os::TerminationCause::kNone;

  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;          // total, including monitor exception cost
  std::uint64_t monitor_cycles = 0;  // portion charged by OS exception handling
  std::uint64_t branch_bubbles = 0;
  std::uint64_t load_use_stalls = 0;
  std::uint64_t muldiv_stalls = 0;
  std::uint64_t icache_stall_cycles = 0;

  cic::IhtStats iht;                 // zero when monitoring is off
  os::OsMonitorStats os;

  std::string console;               // syscall output
  std::uint32_t check_observed = 0;  // valid when reason == kSelfCheckFailed
  std::uint32_t check_expected = 0;

  // Cycles attributable to the application alone (what the "No CIC" baseline
  // of Table 1 reports when monitoring is off).
  std::uint64_t app_cycles() const { return cycles - monitor_cycles; }
};

// Post-decode fault: at dynamic instruction `index` (0-based), the pipeline
// latch downstream of ID XORs `xor_mask` into the instruction word —
// execution semantics change, but the IF-stage hash saw the clean word.
// Models the §3.2 limitation.
struct PostIdFault {
  std::uint64_t index = 0;
  std::uint32_t xor_mask = 1;
};

// Shared immutable artifacts of loading one image under one configuration
// (cpu/snapshot.h): the post-loader memory as a copy-on-write base, the
// monitoring-embedded microoperation spec, and the recovered FHT. Built once
// per campaign, shared read-only by every trial's Cpu.
struct LoadedImage;

// Complete determinism surface of a running Cpu at an instruction boundary
// (cpu/snapshot.h); save_snapshot/restore_snapshot fast-forward fault trials.
struct Snapshot;

// Observer of the loads and stores that touch the text section (fault
// campaigns date each text word's first read or write).
class TextWatch {
 public:
  virtual ~TextWatch() = default;
  // `bytes` bytes at `address` were loaded, or stored when `store` is set.
  virtual void on_text_access(std::uint32_t address, unsigned bytes, bool store) = 0;
};

class Cpu final : private uop::Datapath {
 public:
  // Loads `image` (text, data, attached FHT if present) and prepares the
  // configured machine. The image is not modified.
  Cpu(const CpuConfig& config, const casm_::Image& image);

  // As above, but skips the loader: memory reads through `loaded`'s frozen
  // page base (copy-on-write), the uop spec is shared, and the FHT is copied
  // instead of recomputed. `loaded` must have been built by preload_image
  // with a monitoring/cic configuration equivalent to `config`, and must
  // outlive the Cpu. Behaviour is bit-identical to the loading constructor.
  Cpu(const CpuConfig& config, const casm_::Image& image, const LoadedImage* loaded);
  ~Cpu() override;

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // Runs to completion (or termination / watchdog). Resumes a Cpu that
  // run_until paused or step() advanced; on a finished Cpu it returns the
  // final result again.
  RunResult run();

  // Runs until the program ends or `instructions` have retired in total,
  // whichever comes first. Returns the final result if the program ended,
  // nullopt if it paused with instructions_retired() == instructions (the
  // state save_snapshot would capture at that boundary; a Cpu already past
  // that count pauses where it is). run_until, run() and step() all resume
  // a paused Cpu. The pause shares the engines' watchdog compare, so it
  // costs nothing per instruction.
  std::optional<RunResult> run_until(std::uint64_t instructions);

  // Single-step interface for tests: executes one instruction. Returns
  // nullopt while the program is still running.
  std::optional<RunResult> step();
  RunResult finish_result();  // result so far (after a terminal step)

  // --- Snapshots (cpu/snapshot.cc) ---
  //
  // Capture/restore the complete determinism surface at an instruction
  // boundary. The predecode and translation caches are deliberately excluded:
  // both are tamper-safe (tagged by the fetched word), so a cold cache
  // rebuilds to bit-identical results. Restore requires a Cpu constructed
  // from the same LoadedImage and configuration as the one that saved (the
  // memory delta is relative to the shared page base).
  void save_snapshot(Snapshot* snapshot) const;
  void restore_snapshot(const Snapshot& snapshot);
  // As above, taking the snapshot's memory delta instead of copying it.
  void restore_snapshot(Snapshot&& snapshot);

  // True when this running Cpu's state equals what restore_snapshot would
  // install, so running on behaves exactly as the run that saved `snapshot`
  // ran on. The console is left to the caller (console()): output so far
  // never feeds back into execution. Compares in place — scalars first,
  // memory pages last — without copying any state. Same preconditions as
  // restore_snapshot.
  bool matches_snapshot(const Snapshot& snapshot) const;
  const std::string& console() const { return result_.console; }

  std::uint64_t instructions_retired() const { return result_.instructions; }
  // How this Cpu came by its retired instructions, summed over its life:
  // prefixes installed by restore_snapshot, and instructions it executed
  // itself. A Cpu restored once and run on retires the sum of the two.
  std::uint64_t instructions_restored() const { return restored_instructions_; }
  std::uint64_t instructions_executed() const {
    return result_.instructions + discarded_instructions_ - restored_instructions_;
  }

  // --- Fault-injection and observation hooks ---
  mem::Memory& memory() { return memory_; }
  mem::FetchPath& fetch_path() { return fetch_; }
  // Arms the post-ID latch fault; nullopt disarms it.
  void set_post_id_fault(std::optional<PostIdFault> fault) { post_id_fault_ = fault; }
  // Invoked at every IHT lookup with (start, end) — the dynamic block trace.
  using LookupObserver = std::function<void(std::uint32_t, std::uint32_t)>;
  void set_lookup_observer(LookupObserver observer) { observer_ = std::move(observer); }
  // True while a mult/div result is still outstanding: an mfhi/mflo issued
  // now would stall. Exact inside the lookup observer, where both engines
  // hold the current cycle count.
  bool hilo_pending() const { return result_.cycles < hilo_ready_cycle_; }
  // Reports every load and store that touches the text section, on either
  // engine. Null (the default) turns the watch off, at the cost of one null
  // test per load or store.
  void set_text_watch(TextWatch* watch) { text_watch_ = watch; }

  // --- State inspection for tests ---
  std::uint32_t gpr(unsigned index) const { return gpr_[index]; }
  std::uint32_t special(uop::SpecialReg reg) const;
  const cic::CodeIntegrityChecker* checker() const { return cic_ ? &*cic_ : nullptr; }
  const os::OsMonitor* os_monitor() const { return os_ ? &*os_ : nullptr; }
  bool running() const { return running_; }
  // The block translation cache: null unless the threaded engine is active.
  const uop::TranslationCache* translation_cache() const { return tcache_.get(); }
  // Predecode-cache probes and fills (cold slots or tag-mismatch redecodes).
  // Only the interpreter path — the switch engine's run/run_until, and
  // step() on either engine — consults the cache; hits are lookups minus
  // misses.
  std::uint64_t predecode_lookups() const { return predecode_lookups_; }
  std::uint64_t predecode_misses() const { return predecode_misses_; }
  // Translation-tag mismatches the threaded engine replayed via interpreter.
  std::uint64_t tcache_mismatches() const { return tcache_mismatches_; }
  // Lookups the translation cache served, and mismatches on rewritten text
  // (each cleared the cache whole).
  std::uint64_t tcache_hits() const { return tcache_hits_; }
  std::uint64_t tcache_resets() const { return tcache_resets_; }
  // Block transitions that flowed through a cached chain link, and direct-edge
  // block exits that returned to the dispatch loop instead (unlinked edge).
  std::uint64_t chain_follows() const { return chain_follows_; }
  std::uint64_t chain_breaks() const { return chain_breaks_; }
  // Folds this Cpu's engine counters (engine.* names) into the obs registry:
  // what accrued since its previous publish. Experiment runs and campaign
  // trials publish once per finished run; a campaign's golden cursors, which
  // live across many trials, publish after each walk.
  void publish_metrics();

 private:
  // The devirtualized interpreter drives the Datapath members below through
  // a concrete Cpu& (the class is final, so the calls statically bind and
  // inline into the dispatch switch).
  template <typename DP>
  friend void uop::execute_op(const uop::Uop& op, uop::ExecContext& ctx, DP& dp);

  // uop::Datapath implementation.
  std::uint32_t read_special(uop::SpecialReg r) override;
  void write_special(uop::SpecialReg r, std::uint32_t value) override;
  void reset_special(uop::SpecialReg r) override;
  std::uint32_t read_gpr(unsigned index) override;
  void write_gpr(unsigned index, std::uint32_t value) override;
  std::uint32_t fetch_instr(std::uint32_t address) override;
  std::uint32_t load(std::uint32_t address, uop::MemWidth width, bool sign) override;
  void store(std::uint32_t address, uop::MemWidth width, std::uint32_t value) override;
  std::uint32_t hash_step(std::uint32_t old_hash, std::uint32_t instr_word) override;
  uop::IhtLookupResult iht_lookup(std::uint32_t start, std::uint32_t end,
                                  std::uint32_t hash) override;
  void raise_monitor_exception(std::uint8_t code) override;
  void set_pc(std::uint32_t target) override;
  void syscall() override;
  void illegal_instruction() override;

  // Constructor tail for the LoadedImage path (cpu/snapshot.cc — the only
  // translation unit that sees the LoadedImage definition).
  void attach_loaded(const LoadedImage& loaded);
  // restore_snapshot but for the memory overlay (cpu/snapshot.cc).
  void restore_registers(const Snapshot& snapshot);

  void terminate(ExitReason reason, std::uint32_t code);
  // Forwards a load or store to text_watch_ when it touches the text.
  void watch_text(std::uint32_t address, uop::MemWidth width, bool store);
  // step() past its terminated/watchdog checks: one instruction from CPC.
  std::optional<RunResult> execute_next();
  // The engines reached limit_: the watchdog if it is max_instructions
  // (terminates and returns the result), a run_until pause otherwise.
  std::optional<RunResult> stop_at_limit();
  CICMON_HOT_INLINE void run_fetch_stage();
  CICMON_HOT_INLINE void account_hazards(const isa::Instruction& instr);
  template <uop::FusedKind K, bool kBatched>
  CICMON_HOT_INLINE void account_hazards_entry(const uop::TransEntry& entry);
  void handle_pending_monitor_exception();

  // Shared post-fetch tail of one dynamic instruction (ID..WB stages, pending
  // monitor exception, retirement) — the single definition both step() and
  // the threaded engine's interpreter fallback execute through, so the two
  // engines cannot drift. Requires ctx_.instr / ctx_.instr_addr to be set.
  // Returns true when the instruction retired, false when it terminated.
  bool exec_stages(const uop::InstrUops* program);

  // --- Threaded engine (fused superinstruction handlers) ---
  // What the block driver does after one fused entry: fall through to the
  // next entry, leave the block along its taken or fall-through edge (the
  // chain-follow candidates), return to the block loop (indirect edge, PC
  // redirect by a generic program, or tag mismatch handled), or stop
  // (program terminated).
  enum class FusedFlow : std::uint8_t { kNext, kTaken, kFall, kRestart, kDone };
  // One dynamic instruction of kind K. The batched instantiation (straight-
  // line kinds only) skips the per-entry watchdog and post-ID checks
  // (proven impossible by the per-block precheck in run_threaded) and the
  // PPC/redirect-flag stores, and defers the retire/cycle bump to
  // flush_batch. The real fetch path and the tag compare are NOT skipped —
  // tamper safety stays per dynamic instruction.
  template <uop::FusedKind K, bool kBatched>
  FusedFlow fused(const uop::TransEntry& entry);
  // Folds the batched straight-line prefix ending just before `next` into
  // result_ (one retired instruction and one base cycle per entry, plus the
  // accumulated dynamic stalls in batch_extra_).
  CICMON_HOT_INLINE void flush_batch(const uop::TransEntry* next);
  // True cycle count after entry `e` retires, while its batch is unflushed.
  CICMON_HOT_INLINE std::uint64_t batched_cycles(const uop::TransEntry* e) const;
  FusedFlow tampered_entry(const uop::TransEntry& e, std::uint32_t word);
  // An unbatched handler reached limit_ before entry `e`: watchdog or
  // run_until pause.
  void stop_in_block(const uop::TransEntry& e);
  void monitor_block_end();
  std::optional<RunResult> run_threaded();

  CpuConfig config_;
  // Immutable after construction; shared across trial Cpus when constructed
  // from a LoadedImage (building + monitoring-embedding the spec per Cpu is
  // measurable at campaign trial rates).
  std::shared_ptr<const uop::IsaUopSpec> spec_;
  mem::Memory memory_;
  mem::FetchPath fetch_;
  std::optional<cic::CodeIntegrityChecker> cic_;
  std::optional<os::OsMonitor> os_;
  LookupObserver observer_;
  TextWatch* text_watch_ = nullptr;

  // Reused across instructions: validate_spec guarantees def-before-use
  // within each dynamic instruction, so the temp file is never re-zeroed.
  uop::ExecContext ctx_;

  // Predecode cache, one slot per text word, tagged by the raw fetched word
  // (program == nullptr marks an empty slot). A tag match reuses the cached
  // decode; any divergence of the fetched word (bus tamper, cache-resident
  // flips, memory rewrites, post-ID faults) misses the tag and decodes the
  // word the pipeline actually carries.
  struct Predecoded {
    std::uint32_t word = 0;
    const uop::InstrUops* program = nullptr;
    isa::Instruction instr;
  };
  std::vector<Predecoded> predecode_;
  std::uint64_t predecode_lookups_ = 0;
  std::uint64_t predecode_misses_ = 0;
  std::uint64_t tcache_mismatches_ = 0;
  std::uint64_t tcache_hits_ = 0;
  std::uint64_t tcache_resets_ = 0;
  // Snapshot prefixes restored, and the retired counts those restores
  // overwrote (instructions_executed() is their difference plus the present
  // count).
  std::uint64_t restored_instructions_ = 0;
  std::uint64_t discarded_instructions_ = 0;
  // The engine counters as of the previous publish_metrics(), in its order.
  static constexpr std::size_t kEngineCounters = 10;
  std::array<std::uint64_t, kEngineCounters> published_{};
  bool published_once_ = false;

  // True when the shared IF program structurally matches the canonical
  // Figure 1 shape (plus the Figure 3(b) monitoring tail when monitoring is
  // embedded), letting run_fetch_stage() execute it as straight-line code
  // instead of interpreting six-to-eleven microoperations per fetch. Any
  // other shape falls back to the interpreter, so the uop spec stays the
  // source of truth for machine behaviour.
  bool fast_fetch_ = false;

  // Threaded engine state: the per-mnemonic fused classification, the block
  // translation cache, and the start address of the block being executed. The
  // engine only activates when the IF program is canonical (fast_fetch_): a
  // reshaped fetch program must run through the interpreter.
  std::shared_ptr<const uop::FusedTable> fused_;
  std::unique_ptr<uop::TranslationCache> tcache_;
  bool threaded_ = false;
  std::uint32_t cur_block_start_ = 0;
  // Batched accounting state: start of the unflushed straight-line run and
  // the dynamic stall cycles (I-cache, load-use, muldiv) it accumulated.
  const uop::TransEntry* batch_base_ = nullptr;
  std::uint64_t batch_extra_ = 0;
  // Chain telemetry: block transitions that flowed through a cached link vs
  // direct-edge exits that had to return to the dispatch loop.
  std::uint64_t chain_follows_ = 0;
  std::uint64_t chain_breaks_ = 0;

  std::array<std::uint32_t, isa::kNumGpr> gpr_{};
  std::array<std::uint32_t, 7> special_{};  // indexed by SpecialReg

  RunResult result_;
  // Retired-instruction count at which the engines stop: the smaller of
  // config_.max_instructions (the watchdog) and the current run_until pause.
  std::uint64_t limit_ = 0;
  bool running_ = true;
  bool pc_redirected_ = false;               // set_pc ran this instruction
  std::optional<std::uint8_t> pending_exc_;  // monitor exception raised in ID
  std::optional<PostIdFault> post_id_fault_;
  std::uint64_t hilo_ready_cycle_ = 0;
  // Destination GPR of the immediately preceding load, for load-use stalls
  // (0 = none; register 0 can never be a true dependency).
  unsigned prev_load_dst_ = 0;
  std::uint32_t text_base_ = 0;
  std::uint32_t text_end_ = 0;
};

}  // namespace cicmon::cpu
