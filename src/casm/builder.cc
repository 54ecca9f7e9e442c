#include "casm/builder.h"

#include "support/error.h"
#include "support/strings.h"

namespace cicmon::casm_ {

using isa::Mnemonic;
using isa::encode_i;
using isa::encode_j;
using isa::encode_r;
using support::check;

namespace {

std::uint16_t imm16_signed(std::int32_t value) {
  check(value >= -32768 && value <= 32767, "signed 16-bit immediate out of range");
  return static_cast<std::uint16_t>(value);
}

std::uint16_t imm16_unsigned(std::uint32_t value) {
  check(value <= 0xFFFFU, "unsigned 16-bit immediate out of range");
  return static_cast<std::uint16_t>(value);
}

}  // namespace

Asm::Asm() = default;

Label Asm::label() {
  label_addr_.push_back(-1);
  return Label{static_cast<std::uint32_t>(label_addr_.size() - 1)};
}

void Asm::bind(Label l) {
  check(l.id < label_addr_.size(), "bind: unknown label");
  check(label_addr_[l.id] < 0, "bind: label already bound");
  label_addr_[l.id] = here();
}

Label Asm::bound_label() {
  Label l = label();
  bind(l);
  return l;
}

void Asm::func(const std::string& name) {
  Label l = func_label(name);
  bind(l);
  image_.symbols[name] = here();
}

std::uint32_t Asm::here() const {
  return image_.text_base + static_cast<std::uint32_t>(image_.text.size()) * 4;
}

void Asm::emit(std::uint32_t word) {
  check(!finalized_, "emit after finalize()");
  image_.text.push_back(word);
}

// --- R-type ---
void Asm::sll(unsigned rd, unsigned rt, unsigned shamt) { emit(encode_r(Mnemonic::kSll, rd, 0, rt, shamt)); }
void Asm::srl(unsigned rd, unsigned rt, unsigned shamt) { emit(encode_r(Mnemonic::kSrl, rd, 0, rt, shamt)); }
void Asm::sra(unsigned rd, unsigned rt, unsigned shamt) { emit(encode_r(Mnemonic::kSra, rd, 0, rt, shamt)); }
void Asm::sllv(unsigned rd, unsigned rt, unsigned rs) { emit(encode_r(Mnemonic::kSllv, rd, rs, rt)); }
void Asm::srlv(unsigned rd, unsigned rt, unsigned rs) { emit(encode_r(Mnemonic::kSrlv, rd, rs, rt)); }
void Asm::srav(unsigned rd, unsigned rt, unsigned rs) { emit(encode_r(Mnemonic::kSrav, rd, rs, rt)); }
void Asm::jr(unsigned rs) { emit(encode_r(Mnemonic::kJr, 0, rs, 0)); }
void Asm::jalr(unsigned rd, unsigned rs) { emit(encode_r(Mnemonic::kJalr, rd, rs, 0)); }
void Asm::syscall() { emit(encode_r(Mnemonic::kSyscall, 0, 0, 0)); }
void Asm::break_() { emit(encode_r(Mnemonic::kBreak, 0, 0, 0)); }
void Asm::mfhi(unsigned rd) { emit(encode_r(Mnemonic::kMfhi, rd, 0, 0)); }
void Asm::mthi(unsigned rs) { emit(encode_r(Mnemonic::kMthi, 0, rs, 0)); }
void Asm::mflo(unsigned rd) { emit(encode_r(Mnemonic::kMflo, rd, 0, 0)); }
void Asm::mtlo(unsigned rs) { emit(encode_r(Mnemonic::kMtlo, 0, rs, 0)); }
void Asm::mult(unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kMult, 0, rs, rt)); }
void Asm::multu(unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kMultu, 0, rs, rt)); }
void Asm::div(unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kDiv, 0, rs, rt)); }
void Asm::divu(unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kDivu, 0, rs, rt)); }
void Asm::addu(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kAddu, rd, rs, rt)); }
void Asm::subu(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kSubu, rd, rs, rt)); }
void Asm::and_(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kAnd, rd, rs, rt)); }
void Asm::or_(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kOr, rd, rs, rt)); }
void Asm::xor_(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kXor, rd, rs, rt)); }
void Asm::nor(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kNor, rd, rs, rt)); }
void Asm::slt(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kSlt, rd, rs, rt)); }
void Asm::sltu(unsigned rd, unsigned rs, unsigned rt) { emit(encode_r(Mnemonic::kSltu, rd, rs, rt)); }

// --- I-type ---
void Asm::addiu(unsigned rt, unsigned rs, std::int32_t imm) { emit(encode_i(Mnemonic::kAddiu, rt, rs, imm16_signed(imm))); }
void Asm::slti(unsigned rt, unsigned rs, std::int32_t imm) { emit(encode_i(Mnemonic::kSlti, rt, rs, imm16_signed(imm))); }
void Asm::sltiu(unsigned rt, unsigned rs, std::int32_t imm) { emit(encode_i(Mnemonic::kSltiu, rt, rs, imm16_signed(imm))); }
void Asm::andi(unsigned rt, unsigned rs, std::uint32_t imm) { emit(encode_i(Mnemonic::kAndi, rt, rs, imm16_unsigned(imm))); }
void Asm::ori(unsigned rt, unsigned rs, std::uint32_t imm) { emit(encode_i(Mnemonic::kOri, rt, rs, imm16_unsigned(imm))); }
void Asm::xori(unsigned rt, unsigned rs, std::uint32_t imm) { emit(encode_i(Mnemonic::kXori, rt, rs, imm16_unsigned(imm))); }
void Asm::lui(unsigned rt, std::uint32_t imm) { emit(encode_i(Mnemonic::kLui, rt, 0, imm16_unsigned(imm))); }
void Asm::lb(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kLb, rt, base, imm16_signed(offset))); }
void Asm::lbu(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kLbu, rt, base, imm16_signed(offset))); }
void Asm::lh(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kLh, rt, base, imm16_signed(offset))); }
void Asm::lhu(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kLhu, rt, base, imm16_signed(offset))); }
void Asm::lw(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kLw, rt, base, imm16_signed(offset))); }
void Asm::sb(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kSb, rt, base, imm16_signed(offset))); }
void Asm::sh(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kSh, rt, base, imm16_signed(offset))); }
void Asm::sw(unsigned rt, std::int32_t offset, unsigned base) { emit(encode_i(Mnemonic::kSw, rt, base, imm16_signed(offset))); }

namespace {
// Placeholder immediate patched by Asm::patch.
constexpr std::uint16_t kPending = 0;
}  // namespace

void Asm::beq(unsigned rs, unsigned rt, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBeq, rt, rs, kPending));
}
void Asm::bne(unsigned rs, unsigned rt, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBne, rt, rs, kPending));
}
void Asm::blez(unsigned rs, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBlez, 0, rs, kPending));
}
void Asm::bgtz(unsigned rs, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBgtz, 0, rs, kPending));
}
void Asm::bltz(unsigned rs, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBltz, 0, rs, kPending));
}
void Asm::bgez(unsigned rs, Label target) {
  fixups_.push_back({Fixup::Kind::kBranch, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_i(Mnemonic::kBgez, 0, rs, kPending));
}

void Asm::j(Label target) {
  fixups_.push_back({Fixup::Kind::kJump, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_j(Mnemonic::kJ, 0));
}
void Asm::jal(Label target) {
  fixups_.push_back({Fixup::Kind::kJump, static_cast<std::uint32_t>(image_.text.size()), target.id});
  emit(encode_j(Mnemonic::kJal, 0));
}
void Asm::jal(const std::string& function) { jal(func_label(function)); }

// --- Pseudo-instructions ---
void Asm::nop() { emit(0); }
void Asm::move(unsigned rd, unsigned rs) { addu(rd, rs, isa::kZero); }

void Asm::li(unsigned rt, std::uint32_t value) {
  const std::int32_t signed_value = static_cast<std::int32_t>(value);
  if (signed_value >= -32768 && signed_value <= 32767) {
    addiu(rt, isa::kZero, signed_value);
  } else if ((value & 0xFFFFU) == 0) {
    lui(rt, value >> 16);
  } else if (value <= 0xFFFFU) {
    ori(rt, isa::kZero, value);
  } else {
    lui(rt, value >> 16);
    ori(rt, rt, value & 0xFFFFU);
  }
}

void Asm::la(unsigned rt, const std::string& data_symbol) { li(rt, data_address(data_symbol)); }
void Asm::neg(unsigned rd, unsigned rs) { subu(rd, isa::kZero, rs); }
void Asm::not_(unsigned rd, unsigned rs) { nor(rd, rs, isa::kZero); }
void Asm::b(Label target) { beq(isa::kZero, isa::kZero, target); }
void Asm::beqz(unsigned rs, Label target) { beq(rs, isa::kZero, target); }
void Asm::bnez(unsigned rs, Label target) { bne(rs, isa::kZero, target); }

void Asm::blt(unsigned rs, unsigned rt, Label target) {
  slt(isa::kAt, rs, rt);
  bnez(isa::kAt, target);
}
void Asm::bge(unsigned rs, unsigned rt, Label target) {
  slt(isa::kAt, rs, rt);
  beqz(isa::kAt, target);
}
void Asm::bgt(unsigned rs, unsigned rt, Label target) { blt(rt, rs, target); }
void Asm::ble(unsigned rs, unsigned rt, Label target) { bge(rt, rs, target); }
void Asm::bltu(unsigned rs, unsigned rt, Label target) {
  sltu(isa::kAt, rs, rt);
  bnez(isa::kAt, target);
}
void Asm::bgeu(unsigned rs, unsigned rt, Label target) {
  sltu(isa::kAt, rs, rt);
  beqz(isa::kAt, target);
}

void Asm::push(unsigned reg) {
  addiu(isa::kSp, isa::kSp, -4);
  sw(reg, 0, isa::kSp);
}
void Asm::pop(unsigned reg) {
  lw(reg, 0, isa::kSp);
  addiu(isa::kSp, isa::kSp, 4);
}

// --- System calls ---
void Asm::sys(Sys code) {
  li(isa::kV0, static_cast<std::uint32_t>(code));
  syscall();
}
void Asm::sys_exit(std::uint32_t code) {
  li(isa::kA0, code);
  sys(Sys::kExit);
}
void Asm::sys_print_int(unsigned reg) {
  if (reg != isa::kA0) move(isa::kA0, reg);
  sys(Sys::kPutInt);
}
void Asm::sys_print_char(char c) {
  li(isa::kA0, static_cast<std::uint8_t>(c));
  sys(Sys::kPutChar);
}
void Asm::check_eq(unsigned reg, std::uint32_t expected) {
  if (reg != isa::kA0) move(isa::kA0, reg);
  li(isa::kA1, expected);
  sys(Sys::kCheck);
}

// --- Data section ---
std::uint32_t Asm::data_word(std::uint32_t value) { return data_words({&value, 1}); }

std::uint32_t Asm::data_words(std::span<const std::uint32_t> values) {
  // Word data is always word-aligned.
  while (image_.data.size() % 4 != 0) image_.data.push_back(0);
  const std::uint32_t address = image_.data_base + static_cast<std::uint32_t>(image_.data.size());
  for (std::uint32_t v : values) {
    image_.data.push_back(static_cast<std::uint8_t>(v));
    image_.data.push_back(static_cast<std::uint8_t>(v >> 8));
    image_.data.push_back(static_cast<std::uint8_t>(v >> 16));
    image_.data.push_back(static_cast<std::uint8_t>(v >> 24));
  }
  return address;
}

std::uint32_t Asm::data_words(std::initializer_list<std::uint32_t> values) {
  return data_words(std::span<const std::uint32_t>(values.begin(), values.size()));
}

std::uint32_t Asm::data_bytes(std::span<const std::uint8_t> bytes) {
  const std::uint32_t address = image_.data_base + static_cast<std::uint32_t>(image_.data.size());
  image_.data.insert(image_.data.end(), bytes.begin(), bytes.end());
  return address;
}

std::uint32_t Asm::data_asciiz(const std::string& text) {
  const std::uint32_t address = image_.data_base + static_cast<std::uint32_t>(image_.data.size());
  for (char c : text) image_.data.push_back(static_cast<std::uint8_t>(c));
  image_.data.push_back(0);
  return address;
}

std::uint32_t Asm::data_space(std::uint32_t size_bytes, std::uint8_t fill) {
  while (image_.data.size() % 4 != 0) image_.data.push_back(0);
  const std::uint32_t address = image_.data_base + static_cast<std::uint32_t>(image_.data.size());
  image_.data.insert(image_.data.end(), size_bytes, fill);
  return address;
}

void Asm::data_symbol(const std::string& name) {
  while (image_.data.size() % 4 != 0) image_.data.push_back(0);
  image_.symbols[name] = image_.data_base + static_cast<std::uint32_t>(image_.data.size());
}

std::uint32_t Asm::data_address(const std::string& name) const {
  auto it = image_.symbols.find(name);
  if (it == image_.symbols.end()) throw support::CicError("undefined data symbol: " + name);
  return it->second;
}

// --- Finalization ---
std::uint32_t Asm::addr_of(std::uint32_t text_index) const {
  return image_.text_base + text_index * 4;
}

Label Asm::func_label(const std::string& name) {
  auto it = func_labels_.find(name);
  if (it != func_labels_.end()) return it->second;
  Label l = label();
  func_labels_.emplace(name, l);
  return l;
}

void Asm::patch(const Fixup& fixup) {
  check(fixup.label_id < label_addr_.size(), "patch: unknown label");
  const std::int64_t target = label_addr_[fixup.label_id];
  if (target < 0) {
    throw support::CicError("unbound label referenced by instruction at " +
                            support::hex32(addr_of(fixup.text_index)));
  }
  std::uint32_t& word = image_.text[fixup.text_index];
  if (fixup.kind == Fixup::Kind::kBranch) {
    const std::int64_t offset_words =
        (target - static_cast<std::int64_t>(addr_of(fixup.text_index)) - 4) / 4;
    check(offset_words >= -32768 && offset_words <= 32767, "branch offset out of range");
    word = (word & 0xFFFF'0000U) | (static_cast<std::uint32_t>(offset_words) & 0xFFFFU);
  } else {
    const auto target_field = static_cast<std::uint32_t>(target) >> 2;
    check(target_field < (1U << 26), "jump target out of range");
    word = (word & 0xFC00'0000U) | target_field;
  }
}

Image Asm::finalize() {
  check(!finalized_, "finalize() called twice");
  for (const auto& [name, l] : func_labels_) {
    if (label_addr_[l.id] < 0) throw support::CicError("undefined function: " + name);
  }
  for (const Fixup& fixup : fixups_) patch(fixup);
  finalized_ = true;
  auto main_it = image_.symbols.find("main");
  image_.entry = main_it != image_.symbols.end() ? main_it->second : image_.text_base;
  return image_;
}

}  // namespace cicmon::casm_
