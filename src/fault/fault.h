// Fault models and injection sites (§3.4, §6.3).
//
// The paper's error model is bit flips in program code; *where* the flip
// happens determines whether the monitor can see it (§3.2's location
// argument). Four sites are modelled, ordered by how far down the fetch
// path they strike:
//
//   kMemoryText     — the stored binary is corrupted before execution
//                     (attacker rewrites code in memory / soft error in DRAM)
//   kFetchBus       — a word is corrupted crossing the memory→processor bus
//   kFetchBusPaired — the same mask corrupts two consecutive fetches: the
//                     even-weight, same-bit-lane pattern that aliases under
//                     a plain XOR checksum (§6.3's blind spot)
//   kICacheLine     — a resident I-cache line flips (SRAM soft error)
//   kPostIdLatch    — the instruction word is corrupted downstream of the
//                     hash point (the latched copy feeding the rest of the
//                     pipeline); the paper concedes these escape the monitor
//
// The first four strike *before* the hash point, so the CIC must detect
// them (modulo hash aliasing for the paired site); the last strikes after
// and must escape (possibly caught by the baseline's decode traps instead).
#pragma once

#include <cstdint>
#include <string_view>

namespace cicmon::fault {

enum class FaultSite : std::uint8_t {
  kMemoryText,
  kFetchBus,
  kFetchBusPaired,
  kICacheLine,
  kPostIdLatch,
};

std::string_view fault_site_name(FaultSite site);

// One injection: XOR `xor_mask` into one instruction word at the given
// site. kMemoryText strikes the stored word as the program starts (after
// the loader computed the expected hashes — the paper's post-checkpoint
// attack window); kFetchBus and kPostIdLatch fire at dynamic instruction
// `trigger_index`; kICacheLine flips popcount(xor_mask) random resident
// cache bits when execution reaches `trigger_index`.
struct FaultSpec {
  FaultSite site = FaultSite::kMemoryText;
  std::uint32_t xor_mask = 1;
  std::uint64_t trigger_index = 0;   // dynamic instruction count
  std::uint32_t target_address = 0;  // text word address (kMemoryText)
};

// Seed of the RNG a kICacheLine fault draws its resident bits from (see
// mem::ICache::choose_flip), so the bits it flips depend only on the spec
// and on which lines are resident at its trigger.
constexpr std::uint64_t icache_flip_seed(const FaultSpec& spec) {
  return spec.trigger_index * 0x9E3779B97F4A7C15ULL + spec.xor_mask;
}

}  // namespace cicmon::fault
