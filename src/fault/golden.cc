#include "fault/golden.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace cicmon::fault {

CheckpointedGolden::CheckpointedGolden(const cpu::CpuConfig& config,
                                       const casm_::Image& image,
                                       const cpu::LoadedImage& loaded,
                                       std::uint64_t stride) {
  const bool auto_stride = stride == 0;
  stride_ = auto_stride ? kAutoInitialStride : stride;

  cpu::Cpu cpu(config, image, &loaded);
  snapshots_.emplace_back();
  cpu.save_snapshot(&snapshots_.back());  // snapshot 0: pre-execution state

  std::uint64_t next_due = stride_;
  std::optional<cpu::RunResult> done;
  while (!done.has_value()) {
    done = cpu.run_until(next_due);  // pauses exactly at next_due
    if (done.has_value()) break;
    if (auto_stride && snapshots_.size() >= kAutoMaxSnapshots) {
      // Budget reached: double the stride and thin to the surviving grid
      // (every other snapshot, starting at 0), exactly what recording at the
      // doubled stride from the start would have kept.
      stride_ *= 2;
      std::vector<cpu::Snapshot> kept;
      kept.reserve(snapshots_.size() / 2 + 1);
      for (std::size_t i = 0; i < snapshots_.size(); i += 2) {
        kept.push_back(std::move(snapshots_[i]));
      }
      snapshots_ = std::move(kept);
      next_due = snapshots_.back().instructions + stride_;
      if (cpu.instructions_retired() < next_due) continue;
    }
    snapshots_.emplace_back();
    cpu.save_snapshot(&snapshots_.back());
    next_due += stride_;
  }
  result_ = *done;
  support::check(result_.reason == cpu::ExitReason::kExit,
                 "campaign golden run did not exit cleanly");
}

CheckpointedGolden::CheckpointedGolden(std::vector<cpu::Snapshot> snapshots,
                                       cpu::RunResult result, std::uint64_t stride)
    : snapshots_(std::move(snapshots)), result_(std::move(result)), stride_(stride) {
  support::check(result_.reason == cpu::ExitReason::kExit,
                 "campaign golden run did not exit cleanly");
  support::check(!snapshots_.empty() && snapshots_.front().instructions == 0 &&
                     snapshots_.front().bus_transfers == 0,
                 "golden snapshot schedule does not start at the pre-execution state");
  for (std::size_t i = 1; i < snapshots_.size(); ++i) {
    support::check(snapshots_[i - 1].instructions < snapshots_[i].instructions &&
                       snapshots_[i - 1].bus_transfers <= snapshots_[i].bus_transfers,
                   "golden snapshot schedule is not ascending");
  }
  support::check(stride_ > 0, "golden snapshot schedule has no stride");
}

std::size_t CheckpointedGolden::first_after_instructions(std::uint64_t n) const {
  auto it = std::upper_bound(
      snapshots_.begin(), snapshots_.end(), n,
      [](std::uint64_t v, const cpu::Snapshot& s) { return v < s.instructions; });
  return static_cast<std::size_t>(it - snapshots_.begin());
}

// Snapshot 0 sits at instruction 0 <= any n, so the index is >= 1.
const cpu::Snapshot& CheckpointedGolden::nearest_by_instructions(std::uint64_t n) const {
  return snapshots_[first_after_instructions(n) - 1];
}

}  // namespace cicmon::fault
