// Canonical microoperation programs for every instruction in the ISA.
//
// Temporary-slot convention (per dynamic instruction):
//   0..3   fetch program (current_pc, instr, const4, next_pc)
//   4..7   reserved for the IF-stage monitoring extension (Figure 3(b))
//   8..15  per-instruction ID/EX/MEM/WB temporaries
//   16..23 reserved for the ID-stage monitoring extension (Figure 4)
#include "uop/uop.h"

#include <algorithm>
#include <string>

#include "support/error.h"

namespace cicmon::uop {

namespace {

using isa::Mnemonic;

// Temp-slot names used by the canonical fetch program.
constexpr std::uint8_t kTmpCurrentPc = 0;
constexpr std::uint8_t kTmpInstr = 1;
constexpr std::uint8_t kTmpConst4 = 2;
constexpr std::uint8_t kTmpNextPc = 3;
constexpr std::uint8_t kInstrTempBase = 8;

class ProgramBuilder {
 public:
  explicit ProgramBuilder(Stage stage) : stage_(stage) {}

  void set_stage(Stage stage) { stage_ = stage; }

  std::uint8_t temp() {
    support::check(next_temp_ < 16, "per-instruction temp budget exceeded");
    return next_temp_++;
  }

  Uop& push(UopKind kind) {
    Uop op;
    op.kind = kind;
    op.stage = stage_;
    ops_.push_back(op);
    return ops_.back();
  }

  std::uint8_t read_gpr(GprSel sel) {
    const std::uint8_t t = temp();
    Uop& op = push(UopKind::kReadGpr);
    op.dst = t;
    op.sel = sel;
    return t;
  }

  std::uint8_t imm(ImmKind kind, std::uint32_t literal = 0) {
    const std::uint8_t t = temp();
    Uop& op = push(UopKind::kImm);
    op.dst = t;
    op.imm_kind = kind;
    op.literal = literal;
    return t;
  }

  std::uint8_t alu(AluOp a, std::uint8_t lhs, std::uint8_t rhs = kNoTemp) {
    const std::uint8_t t = temp();
    Uop& op = push(UopKind::kAlu);
    op.dst = t;
    op.alu = a;
    op.src_a = lhs;
    op.src_b = rhs;
    return t;
  }

  void write_gpr(GprSel sel, std::uint8_t src) {
    Uop& op = push(UopKind::kWriteGpr);
    op.sel = sel;
    op.src_a = src;
  }

  void set_pc(std::uint8_t target, GuardKind guard = GuardKind::kAlways,
              std::uint8_t guard_tmp = kNoTemp) {
    Uop& op = push(UopKind::kSetPc);
    op.src_a = target;
    op.guard = guard;
    op.guard_tmp = guard_tmp;
  }

  InstrUops finish() {
    InstrUops out;
    out.ops = std::move(ops_);
    finalize_program(&out);
    return out;
  }

 private:
  Stage stage_;
  std::vector<Uop> ops_;
  std::uint8_t next_temp_ = kInstrTempBase;
};

// R-type three-register ALU op: ID reads, EX computes, WB writes rd.
InstrUops alu_rrr(AluOp op) {
  ProgramBuilder b(Stage::kID);
  const auto a = b.read_gpr(GprSel::kRs);
  const auto c = b.read_gpr(GprSel::kRt);
  b.set_stage(Stage::kEX);
  const auto r = b.alu(op, a, c);
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRd, r);
  return b.finish();
}

// Immediate-shift: sll/srl/sra rd, rt, shamt.
InstrUops shift_imm(AluOp op) {
  ProgramBuilder b(Stage::kID);
  const auto v = b.read_gpr(GprSel::kRt);
  const auto s = b.imm(ImmKind::kShamt);
  b.set_stage(Stage::kEX);
  const auto r = b.alu(op, v, s);
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRd, r);
  return b.finish();
}

// Variable shift: sllv/srlv/srav rd, rt, rs.
InstrUops shift_var(AluOp op) {
  ProgramBuilder b(Stage::kID);
  const auto v = b.read_gpr(GprSel::kRt);
  const auto s = b.read_gpr(GprSel::kRs);
  b.set_stage(Stage::kEX);
  const auto r = b.alu(op, v, s);
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRd, r);
  return b.finish();
}

// I-type ALU op: addi/slti/andi/... rt, rs, imm.
InstrUops alu_imm(AluOp op, ImmKind imm_kind) {
  ProgramBuilder b(Stage::kID);
  const auto a = b.read_gpr(GprSel::kRs);
  const auto i = b.imm(imm_kind);
  b.set_stage(Stage::kEX);
  const auto r = b.alu(op, a, i);
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRt, r);
  return b.finish();
}

InstrUops lui_program() {
  ProgramBuilder b(Stage::kID);
  const auto i = b.imm(ImmKind::kZeroImm);
  const auto s = b.imm(ImmKind::kConst, 16);
  b.set_stage(Stage::kEX);
  const auto r = b.alu(AluOp::kSll, i, s);
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRt, r);
  return b.finish();
}

InstrUops load_program(MemWidth width, bool sign) {
  ProgramBuilder b(Stage::kID);
  const auto base = b.read_gpr(GprSel::kRs);
  const auto off = b.imm(ImmKind::kSignedImm);
  b.set_stage(Stage::kEX);
  const auto addr = b.alu(AluOp::kAdd, base, off);
  b.set_stage(Stage::kMEM);
  const auto val = b.temp();
  {
    Uop& op = b.push(UopKind::kLoad);
    op.dst = val;
    op.src_a = addr;
    op.width = width;
    op.sign_extend = sign;
  }
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRt, val);
  return b.finish();
}

InstrUops store_program(MemWidth width) {
  ProgramBuilder b(Stage::kID);
  const auto base = b.read_gpr(GprSel::kRs);
  const auto off = b.imm(ImmKind::kSignedImm);
  const auto val = b.read_gpr(GprSel::kRt);
  b.set_stage(Stage::kEX);
  const auto addr = b.alu(AluOp::kAdd, base, off);
  b.set_stage(Stage::kMEM);
  {
    Uop& op = b.push(UopKind::kStore);
    op.src_a = addr;
    op.src_b = val;
    op.width = width;
  }
  return b.finish();
}

// Two-operand conditional branch (beq/bne). Resolved in ID, matching the
// paper's placement of end-of-basic-block processing in the ID stage.
InstrUops branch2(AluOp cmp) {
  ProgramBuilder b(Stage::kID);
  const auto a = b.read_gpr(GprSel::kRs);
  const auto c = b.read_gpr(GprSel::kRt);
  const auto cond = b.alu(cmp, a, c);
  const auto tgt = b.imm(ImmKind::kBranchTarget);
  b.set_pc(tgt, GuardKind::kIfNonZero, cond);
  return b.finish();
}

// One-operand conditional branch (blez/bgtz/bltz/bgez).
InstrUops branch1(AluOp cmp) {
  ProgramBuilder b(Stage::kID);
  const auto a = b.read_gpr(GprSel::kRs);
  const auto cond = b.alu(cmp, a);
  const auto tgt = b.imm(ImmKind::kBranchTarget);
  b.set_pc(tgt, GuardKind::kIfNonZero, cond);
  return b.finish();
}

InstrUops jump_program(bool link) {
  ProgramBuilder b(Stage::kID);
  const auto tgt = b.imm(ImmKind::kJumpTarget);
  std::uint8_t ret = kNoTemp;
  if (link) ret = b.imm(ImmKind::kLinkAddr);
  b.set_pc(tgt);
  if (link) {
    b.set_stage(Stage::kWB);
    b.write_gpr(GprSel::kRa31, ret);
  }
  return b.finish();
}

InstrUops jump_reg_program(bool link) {
  // Figure 4's tail: "target = GPR.read(rs); null = CPC.write(target)".
  ProgramBuilder b(Stage::kID);
  const auto tgt = b.read_gpr(GprSel::kRs);
  std::uint8_t ret = kNoTemp;
  if (link) ret = b.imm(ImmKind::kLinkAddr);
  b.set_pc(tgt);
  if (link) {
    b.set_stage(Stage::kWB);
    b.write_gpr(GprSel::kRd, ret);
  }
  return b.finish();
}

InstrUops muldiv_program(MulDivOp op) {
  ProgramBuilder b(Stage::kID);
  const auto a = b.read_gpr(GprSel::kRs);
  const auto c = b.read_gpr(GprSel::kRt);
  b.set_stage(Stage::kEX);
  Uop& md = b.push(UopKind::kMulDiv);
  md.muldiv = op;
  md.src_a = a;
  md.src_b = c;
  return b.finish();
}

InstrUops hilo_read(SpecialReg which) {
  ProgramBuilder b(Stage::kEX);
  const auto t = b.temp();
  Uop& rd = b.push(UopKind::kReadSpecial);
  rd.dst = t;
  rd.special = which;
  b.set_stage(Stage::kWB);
  b.write_gpr(GprSel::kRd, t);
  return b.finish();
}

InstrUops hilo_write(SpecialReg which) {
  ProgramBuilder b(Stage::kID);
  const auto t = b.read_gpr(GprSel::kRs);
  b.set_stage(Stage::kEX);
  Uop& wr = b.push(UopKind::kWriteSpecial);
  wr.special = which;
  wr.src_a = t;
  return b.finish();
}

InstrUops simple(UopKind kind, Stage stage) {
  ProgramBuilder b(stage);
  b.push(kind);
  return b.finish();
}

// --- Stage slicing and build-time validation -------------------------------

// Temps an op reads (kNoTemp entries are "no operand"). src_b of kAlu is
// genuinely optional (one-operand comparisons); everything else listed here
// is required and checked by validate_spec.
struct OperandUse {
  std::uint8_t reads[4] = {kNoTemp, kNoTemp, kNoTemp, kNoTemp};
  std::uint8_t writes[2] = {kNoTemp, kNoTemp};
  bool src_b_optional = false;
};

OperandUse operand_use(const Uop& op) {
  OperandUse use;
  switch (op.kind) {
    case UopKind::kReadSpecial:
    case UopKind::kReadGpr:
      use.writes[0] = op.dst;
      break;
    case UopKind::kImm:
      use.writes[0] = op.dst;
      break;
    case UopKind::kWriteSpecial:
    case UopKind::kWriteGpr:
    case UopKind::kSetPc:
      use.reads[0] = op.src_a;
      break;
    case UopKind::kAlu:
      use.reads[0] = op.src_a;
      use.reads[1] = op.src_b;
      use.writes[0] = op.dst;
      use.src_b_optional = true;
      break;
    case UopKind::kMulDiv:
    case UopKind::kStore:
      use.reads[0] = op.src_a;
      use.reads[1] = op.src_b;
      break;
    case UopKind::kFetchInstr:
    case UopKind::kLoad:
      use.reads[0] = op.src_a;
      use.writes[0] = op.dst;
      break;
    case UopKind::kHashStep:
      use.reads[0] = op.src_a;
      use.reads[1] = op.src_b;
      use.writes[0] = op.dst;
      break;
    case UopKind::kIhtLookup:
      use.reads[0] = op.src_a;
      use.reads[1] = op.src_b;
      use.reads[2] = op.src_c;
      use.writes[0] = op.dst;
      use.writes[1] = op.dst2;
      break;
    case UopKind::kResetSpecial:
    case UopKind::kRaiseExc:
    case UopKind::kSyscall:
    case UopKind::kIllegal:
      break;
  }
  if (op.guard != GuardKind::kAlways) use.reads[3] = op.guard_tmp;
  return use;
}

std::uint8_t max_temp_plus_one(const Uop& op) {
  std::uint8_t highest = 0;
  for (const std::uint8_t t :
       {op.dst, op.dst2, op.src_a, op.src_b, op.src_c, op.guard_tmp}) {
    if (t != kNoTemp) highest = std::max<std::uint8_t>(highest, t + 1);
  }
  return highest;
}

// Throws CicError("<where> op <i>: <what>") when `ok` is false, building the
// message only then: every Cpu construction validates its spec.
void require_op(bool ok, const std::string& where, std::size_t i, const char* what) {
  if (!ok) throw support::CicError(where + " op " + std::to_string(i) + ": " + what);
}

// Bounds and def-before-use checks over one program, updating the running
// set of defined temps (`defined` is a bitmask over the kMaxTemps file).
void validate_ops(std::span<const Uop> ops, std::uint32_t* defined, const std::string& where) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Uop& op = ops[i];
    const auto require = [&](bool ok, const char* what) { require_op(ok, where, i, what); };
    require(op.guard == GuardKind::kAlways || op.guard_tmp != kNoTemp,
            "guarded microoperation without guard_tmp");
    const OperandUse use = operand_use(op);
    for (const std::uint8_t t : use.reads) {
      if (t == kNoTemp) continue;
      require(t < kMaxTemps, "source temp index out of range");
      require((*defined >> t) & 1U, "temp read before written");
    }
    for (const std::uint8_t t : use.writes) {
      if (t == kNoTemp) continue;
      require(t < kMaxTemps, "destination temp index out of range");
      // A guard-skipped write leaves the temp holding whatever the previous
      // dynamic instruction left there (the temp file is not re-zeroed), so
      // only unconditional writes may satisfy later reads.
      if (op.guard == GuardKind::kAlways) *defined |= 1U << t;
    }
  }
}

// Required-operand check separated from the def-before-use walk so the error
// messages stay precise.
void validate_required(std::span<const Uop> ops, const std::string& where) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Uop& op = ops[i];
    const auto require = [&](bool ok, const char* what) { require_op(ok, where, i, what); };
    switch (op.kind) {
      case UopKind::kReadSpecial:
      case UopKind::kReadGpr:
      case UopKind::kImm:
        require(op.dst != kNoTemp, "missing destination temp");
        break;
      case UopKind::kWriteSpecial:
      case UopKind::kWriteGpr:
      case UopKind::kSetPc:
        require(op.src_a != kNoTemp, "missing src_a");
        break;
      case UopKind::kAlu:
      case UopKind::kFetchInstr:
      case UopKind::kLoad:
        require(op.dst != kNoTemp, "missing destination temp");
        require(op.src_a != kNoTemp, "missing src_a");
        break;
      case UopKind::kMulDiv:
      case UopKind::kStore:
        require(op.src_a != kNoTemp && op.src_b != kNoTemp, "missing src_a/src_b");
        break;
      case UopKind::kHashStep:
        require(op.dst != kNoTemp, "missing destination temp");
        require(op.src_a != kNoTemp && op.src_b != kNoTemp, "missing src_a/src_b");
        break;
      case UopKind::kIhtLookup:
        require(op.src_a != kNoTemp && op.src_b != kNoTemp && op.src_c != kNoTemp,
                "IHT lookup needs src_a/src_b/src_c");
        require(op.dst != kNoTemp && op.dst2 != kNoTemp, "IHT lookup needs dst and dst2");
        break;
      case UopKind::kResetSpecial:
      case UopKind::kRaiseExc:
      case UopKind::kSyscall:
      case UopKind::kIllegal:
        break;
    }
  }
}

}  // namespace

void finalize_program(InstrUops* prog) {
  support::check(prog != nullptr, "finalize_program: null program");
  support::check(prog->ops.size() <= 0xFF, "finalize_program: program too long");
  std::stable_sort(prog->ops.begin(), prog->ops.end(), [](const Uop& a, const Uop& b) {
    return static_cast<unsigned>(a.stage) < static_cast<unsigned>(b.stage);
  });
  std::size_t next = 0;
  std::uint8_t num_temps = 0;
  for (unsigned s = 0; s < kNumStages; ++s) {
    prog->stage_begin[s] = static_cast<std::uint8_t>(next);
    while (next < prog->ops.size() &&
           static_cast<unsigned>(prog->ops[next].stage) == s) {
      num_temps = std::max(num_temps, max_temp_plus_one(prog->ops[next]));
      ++next;
    }
  }
  prog->stage_begin[kNumStages] = static_cast<std::uint8_t>(next);
  prog->num_temps = num_temps;
}

void validate_spec(const IsaUopSpec& spec) {
  // Fetch program: IF-only, defines its temps from scratch.
  std::uint32_t fetch_defined = 0;
  for (const Uop& op : spec.fetch) {
    support::check(op.stage == Stage::kIF, "fetch program: non-IF microoperation");
  }
  validate_required(spec.fetch, "fetch");
  validate_ops(spec.fetch, &fetch_defined, "fetch");

  for (std::size_t m = 0; m < spec.per_instr.size(); ++m) {
    const InstrUops& prog = spec.per_instr[m];
    const std::string name(isa::info(static_cast<isa::Mnemonic>(m)).name);
    const auto require = [&](bool ok, const char* what) {
      if (!ok) throw support::CicError(name + ": " + what);
    };
    // Slice offsets must partition the stage-sorted ops vector.
    require(prog.stage_begin[0] == 0 && prog.stage_begin[kNumStages] == prog.ops.size(),
            "stage slices do not cover the program");
    for (unsigned s = 0; s < kNumStages; ++s) {
      require(prog.stage_begin[s] <= prog.stage_begin[s + 1], "stage slice offsets not monotone");
      for (const Uop& op : prog.stage(static_cast<Stage>(s))) {
        require(op.stage == static_cast<Stage>(s), "op filed under the wrong stage slice");
      }
    }
    require(prog.num_temps <= kMaxTemps, "temp file overflow");
    validate_required(prog.ops, name);
    // The IF program runs first every dynamic instruction, so its defs are
    // live when the per-instruction stages execute.
    std::uint32_t defined = fetch_defined;
    validate_ops(prog.ops, &defined, name);
  }
}

IsaUopSpec build_isa_uops() {
  IsaUopSpec spec;

  // --- Common IF program (Figure 1) ---
  //   current_pc = CPC.read();
  //   instr = IMAU.read(current_pc);
  //   null = IReg.write(instr);
  //   null = CPC.inc();
  {
    Uop op;
    op.stage = Stage::kIF;

    op.kind = UopKind::kReadSpecial;
    op.special = SpecialReg::kCpc;
    op.dst = kTmpCurrentPc;
    spec.fetch.push_back(op);

    op = Uop{};
    op.stage = Stage::kIF;
    op.kind = UopKind::kFetchInstr;
    op.dst = kTmpInstr;
    op.src_a = kTmpCurrentPc;
    spec.fetch.push_back(op);

    op = Uop{};
    op.stage = Stage::kIF;
    op.kind = UopKind::kWriteSpecial;
    op.special = SpecialReg::kIReg;
    op.src_a = kTmpInstr;
    spec.fetch.push_back(op);

    // CPC.inc() expressed as const-4 add, the way a datapath would implement it.
    op = Uop{};
    op.stage = Stage::kIF;
    op.kind = UopKind::kImm;
    op.imm_kind = ImmKind::kConst;
    op.literal = 4;
    op.dst = kTmpConst4;
    spec.fetch.push_back(op);

    op = Uop{};
    op.stage = Stage::kIF;
    op.kind = UopKind::kAlu;
    op.alu = AluOp::kAdd;
    op.src_a = kTmpCurrentPc;
    op.src_b = kTmpConst4;
    op.dst = kTmpNextPc;
    spec.fetch.push_back(op);

    op = Uop{};
    op.stage = Stage::kIF;
    op.kind = UopKind::kWriteSpecial;
    op.special = SpecialReg::kCpc;
    op.src_a = kTmpNextPc;
    spec.fetch.push_back(op);

    spec.fetch_temps = 4;
  }

  // --- Per-instruction programs ---
  const auto count = static_cast<std::size_t>(Mnemonic::kInvalid) + 1;
  spec.per_instr.resize(count);
  auto set = [&spec](Mnemonic m, InstrUops prog) {
    spec.per_instr[static_cast<std::size_t>(m)] = std::move(prog);
  };

  set(Mnemonic::kSll, shift_imm(AluOp::kSll));
  set(Mnemonic::kSrl, shift_imm(AluOp::kSrl));
  set(Mnemonic::kSra, shift_imm(AluOp::kSra));
  set(Mnemonic::kSllv, shift_var(AluOp::kSll));
  set(Mnemonic::kSrlv, shift_var(AluOp::kSrl));
  set(Mnemonic::kSrav, shift_var(AluOp::kSra));
  set(Mnemonic::kJr, jump_reg_program(/*link=*/false));
  set(Mnemonic::kJalr, jump_reg_program(/*link=*/true));
  set(Mnemonic::kSyscall, simple(UopKind::kSyscall, Stage::kEX));
  set(Mnemonic::kBreak, simple(UopKind::kIllegal, Stage::kID));
  set(Mnemonic::kMfhi, hilo_read(SpecialReg::kHi));
  set(Mnemonic::kMthi, hilo_write(SpecialReg::kHi));
  set(Mnemonic::kMflo, hilo_read(SpecialReg::kLo));
  set(Mnemonic::kMtlo, hilo_write(SpecialReg::kLo));
  set(Mnemonic::kMult, muldiv_program(MulDivOp::kMult));
  set(Mnemonic::kMultu, muldiv_program(MulDivOp::kMultu));
  set(Mnemonic::kDiv, muldiv_program(MulDivOp::kDiv));
  set(Mnemonic::kDivu, muldiv_program(MulDivOp::kDivu));
  set(Mnemonic::kAdd, alu_rrr(AluOp::kAdd));
  set(Mnemonic::kAddu, alu_rrr(AluOp::kAdd));
  set(Mnemonic::kSub, alu_rrr(AluOp::kSub));
  set(Mnemonic::kSubu, alu_rrr(AluOp::kSub));
  set(Mnemonic::kAnd, alu_rrr(AluOp::kAnd));
  set(Mnemonic::kOr, alu_rrr(AluOp::kOr));
  set(Mnemonic::kXor, alu_rrr(AluOp::kXor));
  set(Mnemonic::kNor, alu_rrr(AluOp::kNor));
  set(Mnemonic::kSlt, alu_rrr(AluOp::kSltSigned));
  set(Mnemonic::kSltu, alu_rrr(AluOp::kSltUnsigned));
  set(Mnemonic::kBltz, branch1(AluOp::kCmpLtZ));
  set(Mnemonic::kBgez, branch1(AluOp::kCmpGeZ));
  set(Mnemonic::kBeq, branch2(AluOp::kCmpEq));
  set(Mnemonic::kBne, branch2(AluOp::kCmpNe));
  set(Mnemonic::kBlez, branch1(AluOp::kCmpLeZ));
  set(Mnemonic::kBgtz, branch1(AluOp::kCmpGtZ));
  set(Mnemonic::kAddi, alu_imm(AluOp::kAdd, ImmKind::kSignedImm));
  set(Mnemonic::kAddiu, alu_imm(AluOp::kAdd, ImmKind::kSignedImm));
  set(Mnemonic::kSlti, alu_imm(AluOp::kSltSigned, ImmKind::kSignedImm));
  set(Mnemonic::kSltiu, alu_imm(AluOp::kSltUnsigned, ImmKind::kSignedImm));
  set(Mnemonic::kAndi, alu_imm(AluOp::kAnd, ImmKind::kZeroImm));
  set(Mnemonic::kOri, alu_imm(AluOp::kOr, ImmKind::kZeroImm));
  set(Mnemonic::kXori, alu_imm(AluOp::kXor, ImmKind::kZeroImm));
  set(Mnemonic::kLui, lui_program());
  set(Mnemonic::kLb, load_program(MemWidth::kByte, true));
  set(Mnemonic::kLh, load_program(MemWidth::kHalf, true));
  set(Mnemonic::kLw, load_program(MemWidth::kWord, false));
  set(Mnemonic::kLbu, load_program(MemWidth::kByte, false));
  set(Mnemonic::kLhu, load_program(MemWidth::kHalf, false));
  set(Mnemonic::kSb, store_program(MemWidth::kByte));
  set(Mnemonic::kSh, store_program(MemWidth::kHalf));
  set(Mnemonic::kSw, store_program(MemWidth::kWord));
  set(Mnemonic::kJ, jump_program(/*link=*/false));
  set(Mnemonic::kJal, jump_program(/*link=*/true));
  set(Mnemonic::kInvalid, simple(UopKind::kIllegal, Stage::kID));

  validate_spec(spec);
  return spec;
}

}  // namespace cicmon::uop
