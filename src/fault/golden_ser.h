// cicmon-golden-v4 — versioned, checksummed golden-state serialization.
//
// A campaign's golden state is everything a campaign computes before the
// first trial: the post-loader image (frozen copy-on-write page base +
// recovered FHT + entry point) and the checkpointed golden run (the snapshot
// schedule with COW page deltas, checker/IHT state, RNG state, and the
// instruction and bus-transfer counts, plus the final RunResult). Deriving
// it costs one full clean execution per process — the measured residual of
// the dispatch tax. This module serializes it once so the orchestrator can
// ship it to every worker over the session wire.
//
// Record layout (all integers little-endian):
//
//     "cicmon-golden-v4"        16-byte magic
//     key                       16-byte canonical golden key (hex digits)
//     image section             entry, fht_was_attached, FHT blob, pages
//     golden-run section        stride, snapshots[]
//     result section            the golden RunResult
//     checksum                  FNV-1a64 over every preceding byte
//
// Zero pages of the image base are elided (an unbacked base page reads as
// zero); snapshot memory deltas are NEVER elided — an absent delta page
// falls through to the possibly nonzero base page, so a zero delta page is
// load-bearing. Page maps are emitted in ascending key order, so encoding
// is deterministic: the same golden state always produces the same bytes
// (the byte-identity contract extends to the shipped blob itself).
//
// Deliberately NOT serialized: the uop spec (rebuilt from the config via
// build_isa_uops + embed_monitoring, bit-identical by construction), any
// translated block (each trial machine translates into its own cache, so the
// blob does not depend on the engine), and the lazy icache-golden recording
// (derived per process on the first icache-line trial; shipping it would
// double most blobs for a site few campaigns attack).
//
// decode_golden is strict: any truncation, trailing garbage, length
// overflow, checksum mismatch, or key skew throws CicError. The session
// layer maps that to "decline the shipment and derive locally" — corruption
// is a fallback trigger, never silent acceptance.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/snapshot.h"
#include "mem/memory.h"

namespace cicmon::fault {

// Leading magic of every cicmon-golden-v4 blob (exactly 16 bytes). A blob of
// another version fails this check, so the worker derives locally.
inline constexpr std::string_view kGoldenMagic = "cicmon-golden-v4";

// Everything a worker needs to skip its golden run. `snapshots` is empty
// and `stride` is 0 when the campaign runs with checkpoints off (the golden
// result alone still spares the clean execution).
struct GoldenState {
  // Post-loader image (cpu::LoadedImage minus the rebuildable uop spec).
  mem::Memory::PageMap image_pages;
  std::vector<std::uint8_t> fht_blob;  // cfg::FullHashTable::serialize()
  bool fht_was_attached = false;
  std::uint32_t entry = 0;

  // Checkpointed golden run.
  std::vector<cpu::Snapshot> snapshots;
  std::uint64_t stride = 0;

  // The golden run's final result.
  cpu::RunResult result;
};

// Canonical golden key: 16 lowercase hex digits of the FNV-1a64 hash over
// "name=value\n" lines in the given order. The caller lists exactly the
// fields the golden state depends on — workload identity and scale, the
// campaign's fault/seed parameters, the monitor configuration, and whether
// checkpoints are recorded — and nothing execution-strategy-shaped (engine,
// jobs), which never changes the state. Orchestrator and worker build the
// key from their own flags; a mismatch means config skew and downgrades
// shipping to local derivation.
std::string golden_key(const std::vector<std::pair<std::string, std::string>>& fields);

// Serializes `state` into a cicmon-golden-v4 blob carrying `key` (which must
// be a 16-character golden_key output).
std::string encode_golden(const GoldenState& state, std::string_view key);

// Parses a blob, verifying magic, whole-record checksum, structural sanity,
// and that the embedded key equals `expected_key`. Throws CicError on any
// violation. The snapshot schedule is checked by the runner that imports it
// (fault::CheckpointedGolden).
GoldenState decode_golden(std::string_view blob, std::string_view expected_key);

}  // namespace cicmon::fault
