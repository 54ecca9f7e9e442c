// Checkpointed golden run — the campaign accelerator's recording side.
//
// Runs the fault-free execution once per campaign, recording cpu::Snapshots
// on an instruction-count schedule (SimPoint/SMARTS-style fast-forward
// applied to fault injection). Trials fork from golden cursors that walk
// the golden run (fault/campaign.h); a cursor behind or past its trial's
// fork F first restores the nearest snapshot at or before F, and
// convergence early-exit compares trials against the snapshots.
//
// Snapshots are indexed on one monotone clock, retired instructions, in
// which every trial's fork is counted.
#pragma once

#include <cstdint>
#include <vector>

#include "casm/image.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"

namespace cicmon::fault {

class CheckpointedGolden {
 public:
  // Records the golden run of `config`/`image` through `loaded` (which must
  // have been preloaded for the same config). `stride` is the snapshot
  // spacing in retired instructions; 0 selects the automatic schedule, which
  // starts dense and doubles the stride (dropping every other snapshot)
  // whenever the count would exceed a fixed budget, so memory stays bounded
  // for arbitrarily long runs. Throws if the golden run does not exit
  // cleanly.
  CheckpointedGolden(const cpu::CpuConfig& config, const casm_::Image& image,
                     const cpu::LoadedImage& loaded, std::uint64_t stride);

  // Rebuilds a recording from deserialized state (fault/golden_ser.h)
  // instead of re-running the golden execution. `snapshots` must be the
  // schedule a recording constructor produced: non-empty, ascending,
  // snapshot 0 at the pre-execution state; `stride` is the resolved (possibly
  // auto-doubled) spacing it recorded at. Throws on a malformed schedule or a
  // non-clean result — the shipping layer treats that as "derive locally".
  CheckpointedGolden(std::vector<cpu::Snapshot> snapshots, cpu::RunResult result,
                     std::uint64_t stride);

  // The golden run's final result (this class doubles as THE golden run —
  // recording pauses the configured engine with run_until at each snapshot
  // boundary, and a pause leaves exactly the state an uninterrupted run has
  // there).
  const cpu::RunResult& result() const { return result_; }

  std::uint64_t stride() const { return stride_; }
  std::size_t snapshot_count() const { return snapshots_.size(); }

  // The full schedule, for serialization (fault/golden_ser.h).
  const std::vector<cpu::Snapshot>& snapshots() const { return snapshots_; }

  // Last snapshot with instructions <= n. Always defined: snapshot 0 is the
  // pre-execution state.
  const cpu::Snapshot& nearest_by_instructions(std::uint64_t n) const;

  // Index of the first snapshot with instructions > n; snapshot_count() when
  // there is none.
  std::size_t first_after_instructions(std::uint64_t n) const;

  static constexpr std::uint64_t kAutoInitialStride = 1024;
  static constexpr std::size_t kAutoMaxSnapshots = 128;

 private:
  std::vector<cpu::Snapshot> snapshots_;  // ascending in instructions
  cpu::RunResult result_;
  std::uint64_t stride_ = 0;
};

}  // namespace cicmon::fault
