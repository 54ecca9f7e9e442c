// Microoperation-layer tests: canonical programs, the monitoring-embedding
// pass (Figures 3 and 4), paper-notation rendering, and the interpreter.
#include <gtest/gtest.h>

#include <vector>

#include "casm/builder.h"
#include "cpu/cpu.h"
#include "isa/instruction.h"
#include "mem/fetch_path.h"
#include "support/error.h"
#include "support/rng.h"
#include "uop/interp.h"
#include "uop/monitor_pass.h"
#include "uop/threaded.h"
#include "uop/translate_cache.h"
#include "uop/uop.h"

namespace cicmon::uop {
namespace {

unsigned count_kind(const std::vector<Uop>& ops, UopKind kind) {
  unsigned n = 0;
  for (const Uop& op : ops) n += op.kind == kind ? 1 : 0;
  return n;
}

TEST(UopBuild, FetchProgramMatchesFigure1) {
  const IsaUopSpec spec = build_isa_uops();
  // CPC.read, IMAU.read, IReg.write, const4, add, CPC.write.
  ASSERT_EQ(spec.fetch.size(), 6U);
  EXPECT_EQ(spec.fetch[0].kind, UopKind::kReadSpecial);
  EXPECT_EQ(spec.fetch[0].special, SpecialReg::kCpc);
  EXPECT_EQ(spec.fetch[1].kind, UopKind::kFetchInstr);
  EXPECT_EQ(spec.fetch[2].kind, UopKind::kWriteSpecial);
  EXPECT_EQ(spec.fetch[2].special, SpecialReg::kIReg);
  EXPECT_FALSE(spec.monitoring_embedded);
}

TEST(UopBuild, EveryInstructionHasAProgram) {
  const IsaUopSpec spec = build_isa_uops();
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
    EXPECT_FALSE(spec.program(row.mnemonic).ops.empty()) << row.name;
  }
}

TEST(UopBuild, FlowControlEndsWithSetPc) {
  const IsaUopSpec spec = build_isa_uops();
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid || !isa::is_flow_control(row.cls)) continue;
    EXPECT_EQ(count_kind(spec.program(row.mnemonic).ops, UopKind::kSetPc), 1U) << row.name;
  }
}

TEST(MonitorPass, ExtendsFetchWithFigure3b) {
  IsaUopSpec spec = build_isa_uops();
  const std::size_t before = spec.fetch.size();
  embed_monitoring(&spec);
  EXPECT_TRUE(spec.monitoring_embedded);
  ASSERT_EQ(spec.fetch.size(), before + 5);  // STA.read, guarded STA.write, RHASH.read, hash, RHASH.write
  EXPECT_EQ(count_kind(spec.fetch, UopKind::kHashStep), 1U);
  // The STA write must be guarded on start==0 (conditional microoperation).
  bool guarded_sta_write = false;
  for (const Uop& op : spec.fetch) {
    if (op.kind == UopKind::kWriteSpecial && op.special == SpecialReg::kSta) {
      guarded_sta_write = op.guard == GuardKind::kIfZero;
    }
  }
  EXPECT_TRUE(guarded_sta_write);
}

TEST(MonitorPass, OnlyFlowControlIdExtended) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
    const unsigned lookups = count_kind(spec.program(row.mnemonic).ops, UopKind::kIhtLookup);
    const unsigned excs = count_kind(spec.program(row.mnemonic).ops, UopKind::kRaiseExc);
    if (isa::is_flow_control(row.cls)) {
      EXPECT_EQ(lookups, 1U) << row.name;
      EXPECT_EQ(excs, 2U) << row.name;  // exception0 and exception1
    } else {
      EXPECT_EQ(lookups, 0U) << row.name;
      EXPECT_EQ(excs, 0U) << row.name;
    }
  }
}

TEST(MonitorPass, MonitoringOpsAreTagged) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  unsigned tagged = 0;
  for (const Uop& op : spec.fetch) tagged += op.monitoring ? 1 : 0;
  EXPECT_EQ(tagged, 5U);
}

TEST(MonitorPass, RejectsDoubleEmbedding) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  EXPECT_THROW(embed_monitoring(&spec), support::CicError);
  EXPECT_THROW(embed_monitoring(nullptr), support::CicError);
}

TEST(MonitorPass, IdExtensionPrependsBeforeSetPc) {
  // Figure 4: the lookup/reset run before the control transfer executes.
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const auto& ops = spec.program(isa::Mnemonic::kJr).ops;
  std::size_t lookup_at = ops.size(), setpc_at = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == UopKind::kIhtLookup) lookup_at = i;
    if (ops[i].kind == UopKind::kSetPc) setpc_at = i;
  }
  EXPECT_LT(lookup_at, setpc_at);
}

TEST(UopBuild, StageSlicesPartitionEveryProgram) {
  // The slices must cover the stage-sorted ops vector exactly, and every op
  // must sit in the slice of its own stage tag — for both the canonical and
  // the monitored spec.
  for (const bool monitored : {false, true}) {
    IsaUopSpec spec = build_isa_uops();
    if (monitored) embed_monitoring(&spec);
    for (const isa::OpcodeInfo& row : isa::opcode_table()) {
      const InstrUops& prog = spec.program(row.mnemonic);
      std::size_t covered = 0;
      for (unsigned s = 0; s < kNumStages; ++s) {
        for (const Uop& op : prog.stage(static_cast<Stage>(s))) {
          EXPECT_EQ(op.stage, static_cast<Stage>(s)) << row.name;
          ++covered;
        }
      }
      EXPECT_EQ(covered, prog.ops.size()) << row.name;
    }
  }
}

TEST(UopBuild, StageSliceMatchesStageFilter) {
  // The contiguous slice and the old stage-tag filter must agree on both
  // membership and order (the execution-order contract of the refactor).
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    const InstrUops& prog = spec.program(row.mnemonic);
    for (unsigned s = 0; s < kNumStages; ++s) {
      std::vector<UopKind> filtered;
      for (const Uop& op : prog.ops) {
        if (op.stage == static_cast<Stage>(s)) filtered.push_back(op.kind);
      }
      std::vector<UopKind> sliced;
      for (const Uop& op : prog.stage(static_cast<Stage>(s))) sliced.push_back(op.kind);
      EXPECT_EQ(filtered, sliced) << row.name << " stage " << s;
    }
  }
}

TEST(UopBuild, IhtLookupUsesSrcC) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const Uop& op : spec.program(isa::Mnemonic::kJr).ops) {
    if (op.kind != UopKind::kIhtLookup) continue;
    EXPECT_NE(op.src_c, kNoTemp);
    EXPECT_EQ(op.src_c, MonitorTemps::kHashV);
    return;
  }
  FAIL() << "jr has no IHT lookup after embedding";
}

InstrUops malformed_single(Uop op) {
  InstrUops prog;
  prog.ops.push_back(op);
  finalize_program(&prog);
  return prog;
}

TEST(UopValidate, RejectsGuardWithoutGuardTmp) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kRaiseExc;
  op.stage = Stage::kID;
  op.guard = GuardKind::kIfZero;  // guard_tmp left at kNoTemp
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsOutOfRangeTempIndex) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kAlu;
  op.stage = Stage::kEX;
  op.dst = kMaxTemps;  // one past the temp file
  op.src_a = 0;        // defined by the fetch program
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsTempReadBeforeWritten) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kWriteGpr;
  op.stage = Stage::kWB;
  op.sel = GprSel::kRd;
  op.src_a = 12;  // never written by fetch or this program
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsMissingRequiredOperand) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kLoad;  // needs dst and src_a, has neither
  op.stage = Stage::kMEM;
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, AcceptsCanonicalAndMonitoredSpecs) {
  IsaUopSpec spec = build_isa_uops();
  EXPECT_NO_THROW(validate_spec(spec));
  embed_monitoring(&spec);
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(UopPrint, PaperNotation) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const std::string fetch_text = dump_stage(spec.fetch, Stage::kIF);
  // The paper's conditional-microoperation syntax of Figure 3(b).
  EXPECT_NE(fetch_text.find("[start==0]"), std::string::npos) << fetch_text;
  EXPECT_NE(fetch_text.find("HASHFU"), std::string::npos);
  EXPECT_NE(fetch_text.find("RHASH"), std::string::npos);
}

TEST(Interp, AluEvalBasics) {
  EXPECT_EQ(alu_eval(AluOp::kAdd, 2, 3), 5U);
  EXPECT_EQ(alu_eval(AluOp::kSub, 2, 3), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kSra, 0x80000000, 31), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kSrl, 0x80000000, 31), 1U);
  EXPECT_EQ(alu_eval(AluOp::kSltSigned, 0xFFFFFFFF, 0), 1U);   // -1 < 0
  EXPECT_EQ(alu_eval(AluOp::kSltUnsigned, 0xFFFFFFFF, 0), 0U); // big > 0
  EXPECT_EQ(alu_eval(AluOp::kNor, 0, 0), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kCmpLtZ, 0x80000000, 0), 1U);
  EXPECT_EQ(alu_eval(AluOp::kCmpGeZ, 0, 0), 1U);
}

TEST(Interp, MulDivEval) {
  HiLo r = muldiv_eval(MulDivOp::kMult, 0xFFFFFFFF, 2);  // -1 * 2
  EXPECT_EQ(r.lo, 0xFFFFFFFEU);
  EXPECT_EQ(r.hi, 0xFFFFFFFFU);
  r = muldiv_eval(MulDivOp::kMultu, 0xFFFFFFFF, 2);
  EXPECT_EQ(r.lo, 0xFFFFFFFEU);
  EXPECT_EQ(r.hi, 1U);
  r = muldiv_eval(MulDivOp::kDiv, 7, static_cast<std::uint32_t>(-2));
  EXPECT_EQ(static_cast<std::int32_t>(r.lo), -3);
  EXPECT_EQ(static_cast<std::int32_t>(r.hi), 1);
  r = muldiv_eval(MulDivOp::kDivu, 7, 2);
  EXPECT_EQ(r.lo, 3U);
  EXPECT_EQ(r.hi, 1U);
}

TEST(Interp, DivByZeroIsDeterministic) {
  const HiLo r = muldiv_eval(MulDivOp::kDivu, 42, 0);
  EXPECT_EQ(r.lo, 0xFFFFFFFFU);
  EXPECT_EQ(r.hi, 42U);
  const HiLo s = muldiv_eval(MulDivOp::kDiv, 42, 0);
  EXPECT_EQ(s.lo, 0xFFFFFFFFU);
  EXPECT_EQ(s.hi, 42U);
}

TEST(Interp, DivOverflowWraps) {
  const HiLo r = muldiv_eval(MulDivOp::kDiv, 0x80000000, static_cast<std::uint32_t>(-1));
  EXPECT_EQ(r.lo, 0x80000000U);
  EXPECT_EQ(r.hi, 0U);
}

// Minimal datapath that records microoperation effects.
class RecordingDatapath : public Datapath {
 public:
  std::uint32_t read_special(SpecialReg r) override {
    return specials[static_cast<int>(r)];
  }
  void write_special(SpecialReg r, std::uint32_t v) override {
    specials[static_cast<int>(r)] = v;
  }
  std::uint32_t read_gpr(unsigned i) override { return gpr[i]; }
  void write_gpr(unsigned i, std::uint32_t v) override { gpr[i] = v; }
  std::uint32_t fetch_instr(std::uint32_t) override { return fetched_word; }
  std::uint32_t load(std::uint32_t, MemWidth, bool) override { return 0; }
  void store(std::uint32_t, MemWidth, std::uint32_t) override {}
  std::uint32_t hash_step(std::uint32_t h, std::uint32_t w) override { return h ^ w; }
  IhtLookupResult iht_lookup(std::uint32_t, std::uint32_t, std::uint32_t) override {
    ++lookups;
    return lookup_result;
  }
  void raise_monitor_exception(std::uint8_t code) override { exceptions.push_back(code); }
  void set_pc(std::uint32_t t) override { specials[static_cast<int>(SpecialReg::kCpc)] = t; }
  void syscall() override {}
  void illegal_instruction() override { ++illegals; }

  std::uint32_t specials[8]{};
  std::uint32_t gpr[32]{};
  std::uint32_t fetched_word = 0;
  IhtLookupResult lookup_result;
  std::vector<std::uint8_t> exceptions;
  unsigned lookups = 0;
  unsigned illegals = 0;
};

TEST(Interp, MonitoredFetchAccumulatesHash) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kCpc)] = 0x00400000;
  dp.fetched_word = 0xAAAA5555;

  ExecContext ctx;
  ctx.instr_addr = 0x00400000;
  execute_stage(spec.fetch, Stage::kIF, ctx, dp);

  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0x00400000U);  // latched
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0xAAAA5555U);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kCpc)], 0x00400004U);

  // Second fetch: STA stays (guard fails), hash folds.
  dp.fetched_word = 0x0000FFFF;
  ExecContext ctx2;
  ctx2.instr_addr = 0x00400004;
  execute_stage(spec.fetch, Stage::kIF, ctx2, dp);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0x00400000U);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0xAAAA5555U ^ 0x0000FFFFU);
}

TEST(Interp, IdExtensionRaisesMissAndResets) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kSta)] = 0x00400000;
  dp.specials[static_cast<int>(SpecialReg::kPpc)] = 0x00400010;
  dp.specials[static_cast<int>(SpecialReg::kRhash)] = 0x12345678;
  dp.lookup_result = {false, false};

  ExecContext ctx;
  ctx.instr = isa::decode(isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0));
  ctx.instr_addr = 0x00400010;
  execute_stage(spec.program(isa::Mnemonic::kJr).ops, Stage::kID, ctx, dp);

  EXPECT_EQ(dp.lookups, 1U);
  ASSERT_EQ(dp.exceptions.size(), 1U);
  EXPECT_EQ(dp.exceptions[0], kExcHashMiss);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0U);    // reset
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0U);  // reset
}

TEST(Interp, IdExtensionRaisesMismatchOnlyWhenFoundAndHashDiffers) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const bool match : {true, false}) {
    RecordingDatapath dp;
    dp.lookup_result = {true, match};
    ExecContext ctx;
    ctx.instr = isa::decode(isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0));
    execute_stage(spec.program(isa::Mnemonic::kJr).ops, Stage::kID, ctx, dp);
    if (match) {
      EXPECT_TRUE(dp.exceptions.empty());
    } else {
      ASSERT_EQ(dp.exceptions.size(), 1U);
      EXPECT_EQ(dp.exceptions[0], kExcHashMismatch);
    }
  }
}

TEST(Interp, UnmonitoredSpecNeverTouchesMonitorPorts) {
  const IsaUopSpec spec = build_isa_uops();
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kCpc)] = 0x00400000;
  ExecContext ctx;
  execute_stage(spec.fetch, Stage::kIF, ctx, dp);
  ctx.instr = isa::decode(isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 4));
  for (Stage s : {Stage::kID, Stage::kEX, Stage::kMEM, Stage::kWB}) {
    execute_stage(spec.program(ctx.instr.mnemonic).ops, s, ctx, dp);
  }
  EXPECT_EQ(dp.lookups, 0U);
  EXPECT_TRUE(dp.exceptions.empty());
}

// --- Threaded engine: fused classification --------------------------------

TEST(FusedClassifier, EveryMnemonicFusesNonGeneric) {
  // Every canonical builder program — monitored or not — must match a fused
  // shape: a kGeneric here means the classifier and the builder drifted apart
  // and the threaded engine silently forfeits its speedup for that mnemonic.
  for (const bool monitored : {false, true}) {
    IsaUopSpec spec = build_isa_uops();
    if (monitored) embed_monitoring(&spec);
    const FusedTable table = build_fused_table(spec);
    for (const isa::OpcodeInfo& row : isa::opcode_table()) {
      if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
      EXPECT_NE(table[static_cast<std::size_t>(row.mnemonic)].kind, FusedKind::kGeneric)
          << row.name << (monitored ? " (monitored)" : " (unmonitored)");
    }
    // The illegal-trap program of the invalid word terminates blocks.
    EXPECT_EQ(table[static_cast<std::size_t>(isa::Mnemonic::kInvalid)].kind,
              FusedKind::kIllegal);
  }
}

TEST(FusedClassifier, MonitorHeadRecognizedExactly) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const auto id = spec.program(isa::Mnemonic::kJ).stage(Stage::kID);
  ASSERT_GE(id.size(), 11U);
  EXPECT_TRUE(is_monitor_head(id.first(11)));
  EXPECT_FALSE(is_monitor_head(id.first(10)));   // truncated head
  EXPECT_FALSE(is_monitor_head(id.subspan(1)));  // misaligned head
}

TEST(FusedClassifier, FlowControlWithoutMonitoringHeadIsGeneric) {
  // When monitoring is embedded, a flow-control program that lacks the
  // Figure-4 head must not fuse: the handler would skip the block-end check.
  const IsaUopSpec plain = build_isa_uops();
  const FusedOp op = classify_program(plain.program(isa::Mnemonic::kJ),
                                      isa::info(isa::Mnemonic::kJ).cls,
                                      /*monitoring_embedded=*/true);
  EXPECT_EQ(op.kind, FusedKind::kGeneric);
}

TEST(FusedClassifier, MutatedProgramFallsBackToGeneric) {
  // Any deviation from the verified canonical shape — here an extra ID-stage
  // microoperation — must classify kGeneric and run through the interpreter.
  const IsaUopSpec spec = build_isa_uops();
  InstrUops prog = spec.program(isa::Mnemonic::kAddu);
  Uop extra;
  extra.kind = UopKind::kReadSpecial;
  extra.special = SpecialReg::kCpc;
  extra.stage = Stage::kID;
  extra.dst = 4;
  prog.ops.push_back(extra);
  finalize_program(&prog);
  const FusedOp op = classify_program(prog, isa::info(isa::Mnemonic::kAddu).cls,
                                      /*monitoring_embedded=*/false);
  EXPECT_EQ(op.kind, FusedKind::kGeneric);
}

// --- Threaded engine: translation-cache tamper safety ----------------------
//
// The block-level translation cache is keyed by per-entry word tags, so any
// divergence between the translated word and the word the pipeline actually
// carries (bus tamper, memory rewrite, post-ID latch fault) must fall back
// to the interpreter for that instruction and leave every observable result
// bit-identical with the switch engine — whose predecode cache is keyed the
// same way, so each comparison also checks that a diverging word misses its
// predecode tag. Only a rewritten text word resets the cache.

casm_::Image checked_sum_loop() {
  casm_::Asm a;
  a.func("main");
  a.li(isa::kT0, 20);
  a.li(isa::kT1, 0);
  casm_::Label loop = a.bound_label();
  a.addu(isa::kT1, isa::kT1, isa::kT0);
  a.addiu(isa::kT0, isa::kT0, -1);
  a.bnez(isa::kT0, loop);
  a.check_eq(isa::kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

cpu::CpuConfig engine_config(cpu::Engine engine) {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  config.engine = engine;
  return config;
}

// Every observable field the experiment layers consume.
void expect_runs_identical(const cpu::RunResult& a, const cpu::RunResult& b) {
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.monitor_cause, b.monitor_cause);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.monitor_cycles, b.monitor_cycles);
  EXPECT_EQ(a.branch_bubbles, b.branch_bubbles);
  EXPECT_EQ(a.load_use_stalls, b.load_use_stalls);
  EXPECT_EQ(a.muldiv_stalls, b.muldiv_stalls);
  EXPECT_EQ(a.icache_stall_cycles, b.icache_stall_cycles);
  EXPECT_EQ(a.iht.lookups, b.iht.lookups);
  EXPECT_EQ(a.iht.hits, b.iht.hits);
  EXPECT_EQ(a.iht.misses, b.iht.misses);
  EXPECT_EQ(a.iht.mismatches, b.iht.mismatches);
  EXPECT_EQ(a.os.miss_exceptions, b.os.miss_exceptions);
  EXPECT_EQ(a.os.mismatch_exceptions, b.os.mismatch_exceptions);
  EXPECT_EQ(a.os.refills, b.os.refills);
  EXPECT_EQ(a.os.records_loaded, b.os.records_loaded);
  EXPECT_EQ(a.os.fht_probes, b.os.fht_probes);
  EXPECT_EQ(a.os.cycles_charged, b.os.cycles_charged);
  EXPECT_EQ(a.console, b.console);
  EXPECT_EQ(a.check_observed, b.check_observed);
  EXPECT_EQ(a.check_expected, b.check_expected);
}

// Bus tamper that corrupts one specific dynamic fetch — the translated
// block (and any cache-resident copy) saw the clean word.
class OneShotTamper : public mem::BusTamper {
 public:
  OneShotTamper(std::uint64_t trigger, std::uint32_t mask)
      : trigger_(trigger), mask_(mask) {}
  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    return transfers_++ == trigger_ ? word ^ mask_ : word;
  }

 private:
  std::uint64_t transfers_ = 0;
  std::uint64_t trigger_;
  std::uint32_t mask_;
};

TEST(TranslationCache, CleanRunIdenticalAcrossEngines) {
  const casm_::Image image = checked_sum_loop();
  cpu::Cpu interp(engine_config(cpu::Engine::kSwitch), image);
  cpu::Cpu cached(engine_config(cpu::Engine::kThreaded), image);
  expect_runs_identical(interp.run(), cached.run());
  // The loop re-enters its block: it translates once and is reached through
  // the cache (a lookup hit or a chain link) thereafter.
  ASSERT_NE(cached.translation_cache(), nullptr);
  EXPECT_GT(cached.translation_cache()->stats().translations, 0U);
  EXPECT_GT(cached.tcache_hits(), 0U);
  EXPECT_EQ(cached.tcache_mismatches(), 0U);
  EXPECT_EQ(cached.tcache_resets(), 0U);
  EXPECT_EQ(interp.translation_cache(), nullptr);
}

TEST(TranslationCache, BusTamperMidRunReplaysWithoutResetAndMatchesInterpreter) {
  // The tampered word arrives at an address whose translated block already
  // carries the clean tag: the mismatch must execute the corrupted word
  // through the interpreter and be detected exactly as on the switch
  // engine. Memory still holds the tag, so no translation is dropped.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::Engine engines[2] = {cpu::Engine::kSwitch, cpu::Engine::kThreaded};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(engine_config(engines[i]), image);
    OneShotTamper tamper(/*trigger=*/9, /*mask=*/1U << 11);  // mid-loop fetch
    cpu.fetch_path().set_bus_tamper(&tamper);
    results[i] = cpu.run();
    if (cpu.translation_cache() != nullptr) {
      EXPECT_GE(cpu.tcache_mismatches(), 1U);
      EXPECT_EQ(cpu.tcache_resets(), 0U);
    }
  }
  EXPECT_EQ(results[0].reason, cpu::ExitReason::kMonitorTerminated);
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, TextRewriteDetectionIdenticalAcrossEngines) {
  // A rewritten text word: translation picks up the corrupted word (the tag
  // matches what the pipeline fetches), and the monitored detection — the
  // hash mismatch at block end — lands exactly like the interpreter's.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::Engine engines[2] = {cpu::Engine::kSwitch, cpu::Engine::kThreaded};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(engine_config(engines[i]), image);
    const std::uint32_t addr = casm_::kTextBase + 8;
    cpu.memory().write32(addr, cpu.memory().read32(addr) ^ (1U << 11));
    results[i] = cpu.run();
  }
  EXPECT_EQ(results[0].reason, cpu::ExitReason::kMonitorTerminated);
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, ICacheResidentFlipMidRunIdenticalAcrossEngines) {
  // Warm the I-cache with a few interpreter steps, flip resident bits with a
  // fixed-seed RNG (same cache state in every configuration, so the same
  // bits flip), then hand the rest of the run to the configured engine: the
  // poisoned line's words diverge from the translation tags at fetch time
  // and must be handled exactly like the interpreter handles them.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::Engine engines[2] = {cpu::Engine::kSwitch, cpu::Engine::kThreaded};
  for (int i = 0; i < 2; ++i) {
    cpu::CpuConfig config = engine_config(engines[i]);
    config.icache.enabled = true;
    cpu::Cpu cpu(config, image);
    for (int s = 0; s < 8; ++s) cpu.step();
    ASSERT_NE(cpu.fetch_path().icache(), nullptr);
    support::Rng rng(99);
    for (int flip = 0; flip < 3; ++flip) {
      cpu.fetch_path().icache()->flip_random_resident_bit(rng);
    }
    results[i] = cpu.run();
  }
  EXPECT_NE(results[0].reason, cpu::ExitReason::kExit);  // the flips bite
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, PostIdFaultIdenticalAcrossEngines) {
  // The post-ID XOR rewrites the word after the hash saw it. The translated
  // tag holds the clean word, so the fused handler must miss, fall back, and
  // reproduce the (undetected) wrong-output outcome of §3.2 bit for bit.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::Engine engines[2] = {cpu::Engine::kSwitch, cpu::Engine::kThreaded};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(engine_config(engines[i]), image);
    cpu.set_post_id_fault(cpu::PostIdFault{4, 1U << 16});
    results[i] = cpu.run();
    if (cpu.translation_cache() != nullptr) {
      EXPECT_GE(cpu.tcache_mismatches(), 1U);
      EXPECT_EQ(cpu.tcache_resets(), 0U);  // the latch fault left the text intact
    }
  }
  EXPECT_EQ(results[0].iht.mismatches, 0U);  // escaped the monitor (§3.2)
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, TextRewriteResetsTheCacheOnce) {
  // A loop word rewritten mid-run, after the threaded engine translated its
  // block from the clean word, discards the whole translation cache exactly
  // once, and the rest of the run still equals the switch engine's under the
  // same rewrite.
  const casm_::Image image = checked_sum_loop();
  const std::uint32_t loop_word = casm_::kTextBase + 8;  // addu in the loop body
  cpu::RunResult results[2];
  const cpu::Engine engines[2] = {cpu::Engine::kSwitch, cpu::Engine::kThreaded};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(engine_config(engines[i]), image);
    ASSERT_FALSE(cpu.run_until(30).has_value());
    if (engines[i] == cpu::Engine::kThreaded) {
      EXPECT_GT(cpu.translation_cache()->stats().translations, 0U);
      EXPECT_EQ(cpu.tcache_resets(), 0U);
    }
    cpu.memory().write32(loop_word, cpu.memory().read32(loop_word) ^ (1U << 11));
    results[i] = cpu.run();
    if (engines[i] == cpu::Engine::kThreaded) {
      EXPECT_EQ(cpu.tcache_resets(), 1U);
    }
  }
  EXPECT_EQ(results[0].reason, cpu::ExitReason::kMonitorTerminated);
  expect_runs_identical(results[0], results[1]);
}

// --- Superblock chaining ----------------------------------------------------

TEST(TranslationCache, ChainedRunMatchesInterpreterAndFollowsLinks) {
  // Chaining is a pure execution strategy: the loop's bnez links to its own
  // block once and every later iteration flows straight through, without a
  // dispatch-loop round trip, byte-identical with the interpreter.
  const casm_::Image image = checked_sum_loop();
  cpu::Cpu interp(engine_config(cpu::Engine::kSwitch), image);
  cpu::Cpu chained(engine_config(cpu::Engine::kThreaded), image);
  expect_runs_identical(interp.run(), chained.run());
  EXPECT_GT(chained.chain_follows(), 0U);
}

TEST(TranslationCache, ChainLinksOnlyLiveBlocksOfThisCache) {
  // The link invariant: a link joins two live blocks of one cache, the
  // target at the verified edge address. chain() refuses anything else — a
  // block of another cache (another Cpu's, say) at either end, or a live
  // block that is not at the edge target. Links die with clear().
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const std::uint32_t base = 0x00400000;
  const std::uint32_t words[3] = {
      isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 1),   // taken base+8, fall base+4
      isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0),   // indirect: no static edges
      isa::encode_r(isa::Mnemonic::kAddu, 9, 9, 8),  // forced-generic text tail
  };
  const auto peek = [&](std::uint32_t a) { return words[(a - base) / 4]; };
  TranslationCache tc(base, base + 12, /*cache=*/true);
  TranslationCache other(base, base + 12, /*cache=*/true);
  const TranslatedBlock* branch = tc.translate(base, spec, fused, peek);
  const TranslatedBlock* target = tc.translate(base + 8, spec, fused, peek);
  const TranslatedBlock* skipped = tc.translate(base + 4, spec, fused, peek);
  const TranslatedBlock* foreign = other.translate(base + 8, spec, fused, peek);
  const TranslatedBlock* foreign_branch = other.translate(base, spec, fused, peek);
  ASSERT_TRUE(branch->has_taken);
  EXPECT_EQ(branch->taken_target, base + 8);
  ASSERT_TRUE(branch->has_fall);
  EXPECT_EQ(branch->fall_target, base + 4);
  EXPECT_FALSE(skipped->has_taken);  // jr is indirect, never chained
  EXPECT_FALSE(skipped->has_fall);
  EXPECT_FALSE(target->has_fall);  // its fall-through would leave text

  tc.chain(branch, /*taken_edge=*/true, foreign);  // the edge target, another cache
  EXPECT_EQ(branch->taken, nullptr);
  tc.chain(foreign_branch, /*taken_edge=*/true, target);  // source of another cache
  EXPECT_EQ(foreign_branch->taken, nullptr);
  tc.chain(branch, /*taken_edge=*/true, skipped);  // live, but not at the target
  EXPECT_EQ(branch->taken, nullptr);
  tc.chain(branch, /*taken_edge=*/true, target);
  tc.chain(branch, /*taken_edge=*/false, skipped);
  EXPECT_EQ(branch->taken, target);
  EXPECT_EQ(branch->fall, skipped);

  tc.clear();
  for (const std::uint32_t start : {base, base + 4, base + 8}) {
    EXPECT_EQ(tc.lookup(start), nullptr);
  }
  const TranslatedBlock* fresh = tc.translate(base, spec, fused, peek);
  EXPECT_EQ(fresh->taken, nullptr);
  EXPECT_EQ(other.lookup(base + 8), foreign);  // another cache is untouched
}

TEST(TranslationCache, TranslateIntoOccupiedSlotThrows) {
  // Blocks are never replaced one at a time: a second translation of a live
  // block start is a bug, not a refresh.
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const std::uint32_t base = 0x00400000;
  const std::uint32_t word =
      isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 0xFFFF);  // beq $0, $0, .
  const auto peek = [&](std::uint32_t) { return word; };
  TranslationCache tc(base, base + 8, /*cache=*/true);
  const TranslatedBlock* loop = tc.translate(base, spec, fused, peek);
  tc.chain(loop, /*taken_edge=*/true, loop);  // a self-loop is a legal link
  EXPECT_EQ(loop->taken, loop);
  EXPECT_THROW(tc.translate(base, spec, fused, peek), support::CicError);
  EXPECT_EQ(tc.lookup(base), loop);
  EXPECT_EQ(tc.stats().translations, 1U);
}

TEST(TranslationCache, HasNoUncachedMode) {
  EXPECT_THROW(TranslationCache(0x00400000, 0x00400008, /*cache=*/false), support::CicError);
}

}  // namespace
}  // namespace cicmon::uop
