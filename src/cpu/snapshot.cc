#include "cpu/snapshot.h"

#include <utility>

#include "hash/hash_unit.h"
#include "os/loader.h"
#include "support/error.h"
#include "uop/monitor_pass.h"

namespace cicmon::cpu {

LoadedImage preload_image(const CpuConfig& config, const casm_::Image& image) {
  LoadedImage out;
  out.entry = image.entry;
  auto spec = std::make_shared<uop::IsaUopSpec>(uop::build_isa_uops());
  mem::Memory memory;
  if (config.monitoring) {
    uop::embed_monitoring(spec.get());
    const std::unique_ptr<hash::HashFunctionUnit> unit =
        hash::make_hash_unit(config.cic.hash_kind, config.cic.hash_key);
    os::LoadedProgram program = os::os_load(image, &memory, *unit);
    out.fht = std::move(program.fht);
    out.fht_was_attached = program.fht_was_attached;
  } else {
    memory.load_image(image);
  }
  out.spec = std::move(spec);
  out.pages = memory.freeze();
  return out;
}

void Cpu::attach_loaded(const LoadedImage& loaded) {
  support::check(loaded.pages != nullptr && loaded.spec != nullptr,
                 "Cpu: LoadedImage is not preloaded");
  support::check(loaded.spec->monitoring_embedded == config_.monitoring,
                 "Cpu: LoadedImage monitoring does not match the configuration");
  spec_ = loaded.spec;
  fused_ = loaded.fused;
  memory_.set_base(loaded.pages);
  if (config_.monitoring) {
    cic_.emplace(config_.cic);
    os_.emplace(config_.os, loaded.fht);
    special_[static_cast<std::size_t>(uop::SpecialReg::kRhash)] = cic_->rhash_init();
  }
}

void Cpu::save_snapshot(Snapshot* snapshot) const {
  support::check(snapshot != nullptr, "save_snapshot: null snapshot");
  snapshot->instructions = result_.instructions;
  snapshot->bus_transfers = fetch_.bus_transfers();
  snapshot->gpr = gpr_;
  snapshot->special = special_;
  snapshot->result = result_;
  snapshot->pc_redirected = pc_redirected_;
  snapshot->pending_exc = pending_exc_;
  snapshot->hilo_ready_cycle = hilo_ready_cycle_;
  snapshot->prev_load_dst = prev_load_dst_;
  snapshot->checker.reset();
  if (cic_) snapshot->checker = cic_->save_state();
  snapshot->os_stats.reset();
  if (os_) snapshot->os_stats = os_->stats();
  snapshot->icache.reset();
  if (const mem::ICache* icache = fetch_.icache()) snapshot->icache = icache->save_state();
  snapshot->pending_stall_cycles = fetch_.pending_stall_cycles();
  snapshot->memory_delta = memory_.delta_pages();
}

namespace {

// RunResult equality without the console (matches_snapshot leaves it to the
// caller), so it must name every other RunResult field. The iht/os copies
// are compared too: a running Cpu only refreshes them on termination, so
// mid-run they equal whatever the last restore set.
bool same_result_except_console(const RunResult& a, const RunResult& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.monitor_cycles == b.monitor_cycles && a.branch_bubbles == b.branch_bubbles &&
         a.load_use_stalls == b.load_use_stalls && a.muldiv_stalls == b.muldiv_stalls &&
         a.icache_stall_cycles == b.icache_stall_cycles && a.reason == b.reason &&
         a.exit_code == b.exit_code && a.monitor_cause == b.monitor_cause &&
         a.check_observed == b.check_observed && a.check_expected == b.check_expected &&
         a.iht == b.iht && a.os == b.os;
}

}  // namespace

bool Cpu::matches_snapshot(const Snapshot& snapshot) const {
  support::check(snapshot.checker.has_value() == cic_.has_value() &&
                     snapshot.os_stats.has_value() == os_.has_value() &&
                     snapshot.icache.has_value() == (fetch_.icache() != nullptr),
                 "matches_snapshot: configuration mismatch");
  // Every field save_snapshot captures, cheapest first; memory pages last.
  if (!running_ || result_.instructions != snapshot.instructions ||
      fetch_.bus_transfers() != snapshot.bus_transfers) {
    return false;
  }
  if (special_ != snapshot.special || gpr_ != snapshot.gpr) return false;
  if (pc_redirected_ != snapshot.pc_redirected || pending_exc_ != snapshot.pending_exc ||
      hilo_ready_cycle_ != snapshot.hilo_ready_cycle ||
      prev_load_dst_ != snapshot.prev_load_dst ||
      fetch_.pending_stall_cycles() != snapshot.pending_stall_cycles) {
    return false;
  }
  if (!same_result_except_console(result_, snapshot.result)) return false;
  if (os_ && os_->stats() != *snapshot.os_stats) return false;
  if (cic_ && !cic_->matches_state(*snapshot.checker)) return false;
  if (const mem::ICache* icache = fetch_.icache();
      icache != nullptr && !icache->matches_state(*snapshot.icache)) {
    return false;
  }
  return memory_.matches_delta(snapshot.memory_delta);
}

void Cpu::restore_snapshot(const Snapshot& snapshot) {
  restore_registers(snapshot);
  memory_.restore_pages(snapshot.memory_delta);
}

void Cpu::restore_snapshot(Snapshot&& snapshot) {
  restore_registers(snapshot);
  memory_.restore_pages(std::move(snapshot.memory_delta));
}

void Cpu::restore_registers(const Snapshot& snapshot) {
  support::check(snapshot.checker.has_value() == cic_.has_value() &&
                     snapshot.os_stats.has_value() == os_.has_value(),
                 "restore_snapshot: monitoring configuration mismatch");
  support::check(snapshot.icache.has_value() == (fetch_.icache() != nullptr),
                 "restore_snapshot: icache configuration mismatch");
  discarded_instructions_ += result_.instructions;
  restored_instructions_ += snapshot.instructions;
  gpr_ = snapshot.gpr;
  special_ = snapshot.special;
  result_ = snapshot.result;
  running_ = true;
  pc_redirected_ = snapshot.pc_redirected;
  pending_exc_ = snapshot.pending_exc;
  hilo_ready_cycle_ = snapshot.hilo_ready_cycle;
  prev_load_dst_ = snapshot.prev_load_dst;
  if (cic_) cic_->restore_state(*snapshot.checker);
  if (os_) os_->restore_stats(*snapshot.os_stats);
  if (mem::ICache* icache = fetch_.icache()) icache->restore_state(*snapshot.icache);
  fetch_.set_pending_stall_cycles(snapshot.pending_stall_cycles);
  fetch_.set_bus_transfers(snapshot.bus_transfers);
  // Predecode and translation caches are left as-is: both are tagged by the
  // fetched word, so stale entries miss and rebuild bit-identically.
}

}  // namespace cicmon::cpu
