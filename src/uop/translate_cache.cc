#include "uop/translate_cache.h"

namespace cicmon::uop {
namespace {

std::uint8_t resolve(GprSel sel, const isa::Instruction& instr) {
  switch (sel) {
    case GprSel::kRs: return instr.rs;
    case GprSel::kRt: return instr.rt;
    case GprSel::kRd: return instr.rd;
    case GprSel::kRa31: return 31;
  }
  return 0;
}

}  // namespace

TransEntry make_entry(std::uint32_t addr, std::uint32_t word, const IsaUopSpec& spec,
                      const FusedTable& fused) {
  TransEntry e;
  e.addr = addr;
  e.word = word;
  e.instr = isa::decode(word);
  e.program = &spec.program(e.instr.mnemonic);

  const FusedOp& op = fused[static_cast<std::size_t>(e.instr.mnemonic)];
  e.kind = op.kind;
  e.alu = op.alu;
  e.muldiv = op.muldiv;
  e.width = op.width;
  e.sign_extend = op.sign_extend;
  e.link = op.link;
  e.hilo = static_cast<std::uint8_t>(op.hilo);
  e.a = resolve(op.a_sel, e.instr);
  e.b = resolve(op.b_sel, e.instr);
  e.dst = resolve(op.dst_sel, e.instr);

  // Hazard metadata for the fused retire path. consumes_early only ever
  // matches rs or rt, so probing those two covers every operand pattern;
  // register 0 can never be a true dependency, so 0 doubles as "none".
  if (e.instr.valid()) {
    e.early_a = isa::consumes_early(e.instr, e.instr.rs) ? e.instr.rs : 0;
    e.early_b = isa::consumes_early(e.instr, e.instr.rt) ? e.instr.rt : 0;
    const isa::InstrClass cls = e.instr.info().cls;
    if (cls == isa::InstrClass::kLoad) e.load_dst = e.instr.rt;
    if (cls == isa::InstrClass::kMulDiv) {
      const bool is_div = e.instr.mnemonic == isa::Mnemonic::kDiv ||
                          e.instr.mnemonic == isa::Mnemonic::kDivu;
      e.muldiv_lat = is_div ? 2 : 1;
    }
    e.is_mfhilo = e.instr.mnemonic == isa::Mnemonic::kMfhi ||
                  e.instr.mnemonic == isa::Mnemonic::kMflo;
  }

  switch (op.kind) {
    case FusedKind::kAluRI:
      switch (op.imm_kind) {
        case ImmKind::kSignedImm: e.imm = static_cast<std::uint32_t>(e.instr.simm()); break;
        case ImmKind::kZeroImm: e.imm = e.instr.uimm(); break;
        case ImmKind::kShamt: e.imm = e.instr.shamt; break;
        default: break;  // classifier admits only the three kinds above
      }
      break;
    case FusedKind::kImmWrite:
      e.imm = e.instr.uimm() << 16;  // lui: the verified const-16 shift
      break;
    case FusedKind::kLoad:
    case FusedKind::kStore:
      e.imm = static_cast<std::uint32_t>(e.instr.simm());
      break;
    case FusedKind::kBranch2:
    case FusedKind::kBranch1:
      e.imm = e.instr.branch_target(addr);
      break;
    case FusedKind::kJump:
      e.imm = e.instr.jump_target(addr);
      break;
    default:
      break;
  }
  return e;
}

void TranslationCache::resolve_edges(TranslatedBlock* block) const {
  const auto in_text = [this](std::uint32_t t) {
    return t >= text_base_ && t < text_end_ && (t & 3U) == 0;
  };
  const TransEntry& last = block->entries.back();
  switch (last.kind) {
    case FusedKind::kBranch2:
    case FusedKind::kBranch1:
      // Direct conditional branch: both edges are static.
      block->has_taken = in_text(last.imm);
      block->taken_target = last.imm;
      block->has_fall = in_text(last.addr + 4);
      block->fall_target = last.addr + 4;
      break;
    case FusedKind::kJump:
      block->has_taken = in_text(last.imm);
      block->taken_target = last.imm;
      break;
    case FusedKind::kGeneric:
      // Force-split tails and unmatched shapes execute through the
      // interpreter; when they retire without redirecting the PC, the
      // successor is the next word. (A redirecting generic returns to the
      // dispatch loop instead — the engine reports kRestart, not kFall.)
      block->has_fall = in_text(last.addr + 4);
      block->fall_target = last.addr + 4;
      break;
    case FusedKind::kJumpReg:
    case FusedKind::kSyscall:
    case FusedKind::kIllegal:
    default:
      break;  // indirect or terminating: no static successor
  }
}

void TranslationCache::chain(const TranslatedBlock* from, bool taken_edge,
                             const TranslatedBlock* to) {
  TranslatedBlock* live = slots_[index(from->start)].get();
  if (live != from || lookup(to->start) != to) return;  // not both live here
  if (taken_edge) {
    if (!live->has_taken || live->taken != nullptr || to->start != live->taken_target) return;
    live->taken = to;
  } else {
    if (!live->has_fall || live->fall != nullptr || to->start != live->fall_target) return;
    live->fall = to;
  }
}

}  // namespace cicmon::uop
