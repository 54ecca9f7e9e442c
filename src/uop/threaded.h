// Fused superinstruction classification for the threaded execution engine.
//
// The predecode engine (PR 2) removed the per-instruction decode; every
// microoperation still round-trips through the central dispatch switch of
// execute_ops<DP>. The threaded engine collapses each instruction's whole
// stage-sliced program into one fused handler — but only after *structurally
// verifying* that the program matches the canonical builder shape the handler
// implements (exact microoperation sequence, temp numbers, guards, stages,
// plus the Figure-4 monitoring head for flow control when the CIC pass is
// embedded). The uop spec stays the source of truth for machine behaviour:
// any program this classifier does not recognise — a mutated spec, a future
// instruction with a new shape — executes through the interpreter (kGeneric),
// never through a handler whose semantics were not proven to match.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "isa/opcodes.h"
#include "uop/uop.h"

namespace cicmon::uop {

// One handler per shape, not per mnemonic: the canonical builders of
// uop_build.cc produce a handful of shapes parameterized by ALU op, operand
// selectors, and widths, and the fused handlers carry those parameters.
//
// The enumerator order is load-bearing: the threaded engine's handler tables
// are indexed by this value, and the batched table covers only the eight
// straight-line kinds that come first.
enum class FusedKind : std::uint8_t {
  kAluRR,      // GPR[dst] <- alu(GPR[a], GPR[b])        (alu_rrr, shift_var)
  kAluRI,      // GPR[dst] <- alu(GPR[a], imm)           (alu_imm, shift_imm)
  kImmWrite,   // GPR[dst] <- imm                        (lui)
  kLoad,       // GPR[dst] <- mem[GPR[a] + off]
  kStore,      // mem[GPR[a] + off] <- GPR[b]
  kMulDiv,     // HI/LO <- muldiv(GPR[a], GPR[b])
  kHiLoRead,   // GPR[dst] <- HI or LO
  kHiLoWrite,  // HI or LO <- GPR[a]
  kBranch2,    // if alu(GPR[a], GPR[b]) then CPC <- target
  kBranch1,    // if alu(GPR[a]) then CPC <- target
  kJump,       // CPC <- target [, GPR[dst] <- link]
  kJumpReg,    // CPC <- GPR[a] [, GPR[dst] <- link]
  kSyscall,
  kIllegal,
  kGeneric,    // unmatched shape: full interpreter fallback
};
inline constexpr unsigned kNumFusedKinds = 15;

// Kinds that end a translated block. Flow control ends the basic block (the
// paper's check-region boundary); syscall/illegal/generic can terminate the
// run or redirect the PC, so the engine returns to the block loop after them.
inline constexpr bool is_block_terminator(FusedKind kind) {
  switch (kind) {
    case FusedKind::kBranch2:
    case FusedKind::kBranch1:
    case FusedKind::kJump:
    case FusedKind::kJumpReg:
    case FusedKind::kSyscall:
    case FusedKind::kIllegal:
    case FusedKind::kGeneric:
      return true;
    case FusedKind::kAluRR:
    case FusedKind::kAluRI:
    case FusedKind::kImmWrite:
    case FusedKind::kLoad:
    case FusedKind::kStore:
    case FusedKind::kMulDiv:
    case FusedKind::kHiLoRead:
    case FusedKind::kHiLoWrite:
      return false;
  }
  return true;
}

// Per-mnemonic classification result: the shape plus the parameters the
// fused handler needs. Operand selectors are kept symbolic (GprSel) — the
// translator resolves them against each decoded word.
struct FusedOp {
  FusedKind kind = FusedKind::kGeneric;
  AluOp alu = AluOp::kAdd;
  MulDivOp muldiv = MulDivOp::kMult;
  ImmKind imm_kind = ImmKind::kConst;  // kAluRI immediate source
  MemWidth width = MemWidth::kWord;
  bool sign_extend = false;
  bool link = false;                   // jal / jalr write a link register
  SpecialReg hilo = SpecialReg::kHi;   // kHiLoRead / kHiLoWrite
  GprSel a_sel = GprSel::kRs;
  GprSel b_sel = GprSel::kRt;
  GprSel dst_sel = GprSel::kRd;
};

using FusedTable =
    std::array<FusedOp, static_cast<std::size_t>(isa::Mnemonic::kInvalid) + 1>;

// True if `ops` is exactly the Figure-4 monitoring head the CIC pass prepends
// to flow-control ID programs (eleven microoperations: the three special
// reads, the IHT lookup, both guarded exceptions, and the STA/RHASH resets).
bool is_monitor_head(std::span<const Uop> ops);

// Structurally matches `prog` against the canonical shapes. `cls` supplies
// the flow-control property: when `monitoring_embedded` is set, flow-control
// programs must carry the verified monitoring head ahead of their own ID
// operations, and the fused handler re-creates its effects; any other
// divergence from the canonical shape yields kGeneric.
FusedOp classify_program(const InstrUops& prog, isa::InstrClass cls,
                         bool monitoring_embedded);

// Classifies every mnemonic of `spec` (including kInvalid, whose illegal-trap
// program terminates blocks).
FusedTable build_fused_table(const IsaUopSpec& spec);

}  // namespace cicmon::uop
