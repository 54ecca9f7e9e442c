// Tests for cicmon-golden-v4 (fault/golden_ser.h): key canonicalization,
// the encode/decode round trip (re-encoding is byte-identical, an imported
// runner is behaviorally identical to a derived one), strict rejection of
// corruption — any flipped byte, truncation, trailing garbage, or key skew
// fails to decode, and a malformed snapshot schedule fails the import — and
// engine independence: a golden run recorded on the threaded engine encodes
// to the switch interpreter's exact bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "casm/builder.h"
#include "fault/campaign.h"
#include "fault/golden_ser.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace cicmon::fault {
namespace {

using namespace cicmon::isa;

// The same self-checked loop test_fault.cc attacks: small enough that the
// golden run (and therefore encode/decode) is cheap to repeat.
casm_::Image checked_loop_program() {
  casm_::Asm a;
  a.func("main");
  a.li(kT0, 20);
  a.li(kT1, 0);
  casm_::Label loop = a.bound_label();
  a.addu(kT1, kT1, kT0);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.check_eq(kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

cpu::CpuConfig monitored_config() {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  return config;
}

const std::string& test_key() {
  static const std::string key =
      golden_key({{"workload", "loop"}, {"trials", "48"}, {"seed", "9"}});
  return key;
}

// One derivation + encode, shared by every test below.
const std::string& golden_blob() {
  static const std::string blob = [] {
    CampaignRunner runner(checked_loop_program(), monitored_config());
    return encode_golden(runner.export_golden(), test_key());
  }();
  return blob;
}

TEST(GoldenKey, CanonicalDeterministicAndSensitiveToEveryField) {
  const std::string key = test_key();
  ASSERT_EQ(key.size(), 16U);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  // Same fields, same key; any value or name change, a different key.
  EXPECT_EQ(key, golden_key({{"workload", "loop"}, {"trials", "48"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "loop"}, {"trials", "49"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "dijkstra"}, {"trials", "48"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "loop"}, {"trials", "48"}}));
}

TEST(GoldenSer, RoundTripIsByteIdenticalAndImportsAnEquivalentRunner) {
  const std::string& blob = golden_blob();
  const GoldenState decoded = decode_golden(blob, test_key());
  // Deterministic encoding: decode -> encode reproduces the exact bytes,
  // which is what makes the shipped blob itself byte-diffable.
  EXPECT_EQ(encode_golden(decoded, test_key()), blob);

  // A runner rebuilt from the decoded state skips the golden run but must be
  // indistinguishable: same golden facts, same campaign summary.
  CampaignRunner derived(checked_loop_program(), monitored_config());
  CampaignRunner imported(checked_loop_program(), monitored_config(), {}, decoded);
  EXPECT_EQ(imported.golden_instructions(), derived.golden_instructions());
  EXPECT_EQ(imported.golden_console(), derived.golden_console());
  EXPECT_EQ(imported.snapshot_count(), derived.snapshot_count());
  EXPECT_EQ(imported.checkpoint_stride(), derived.checkpoint_stride());
  const CampaignSummary a = derived.run_random(FaultSite::kMemoryText, 1, 48, 9, 1);
  const CampaignSummary b = imported.run_random(FaultSite::kMemoryText, 1, 48, 9, 1);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.detected_mismatch, b.detected_mismatch);
  EXPECT_EQ(a.detected_miss, b.detected_miss);
  EXPECT_EQ(a.detected_baseline, b.detected_baseline);
  EXPECT_EQ(a.wrong_output, b.wrong_output);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.hang, b.hang);
}

TEST(GoldenSer, AnyFlippedByteFailsValidation) {
  const std::string& blob = golden_blob();
  // The trailing FNV-1a64 checksum covers every preceding byte and is itself
  // the last field, so a flip anywhere must invalidate the blob. Sweep the
  // whole record at a stride (plus both ends densely) to keep the test fast
  // without leaving an untested region.
  const std::size_t step = std::max<std::size_t>(1, blob.size() / 2048);
  auto expect_rejected = [&](std::size_t i) {
    std::string mutant = blob;
    mutant[i] ^= 0x40;
    EXPECT_THROW(decode_golden(mutant, test_key()), support::CicError) << "flip at byte " << i;
  };
  for (std::size_t i = 0; i < blob.size(); i += step) expect_rejected(i);
  for (std::size_t i = 0; i < 64 && i < blob.size(); ++i) {
    expect_rejected(i);                    // magic + key region
    expect_rejected(blob.size() - 1 - i);  // checksum region
  }
}

TEST(GoldenSer, TruncationTrailingGarbageAndKeySkewAreRejected) {
  const std::string& blob = golden_blob();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{15}, std::size_t{16},
                                 std::size_t{31}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_THROW(decode_golden(blob.substr(0, keep), test_key()), support::CicError) << keep;
  }
  EXPECT_THROW(decode_golden(blob + "x", test_key()), support::CicError);
  // The right bytes under the wrong key is config skew, not a valid blob.
  const std::string other = golden_key({{"workload", "loop"}, {"trials", "49"}});
  EXPECT_THROW(decode_golden(blob, other), support::CicError);
}

TEST(GoldenSer, MalformedScheduleFailsTheImport) {
  // The snapshot schedule arrives off the wire, and trials index it by
  // instruction count. A blob with a valid checksum whose schedule is empty,
  // does not start at instruction 0, has a pair out of order, or has no
  // stride decodes, but the shipped constructor must throw on its schedule
  // check, so the caller derives locally. A fixed stride gives the loop
  // several snapshots to disorder.
  const casm_::Image image = checked_loop_program();
  const CheckpointConfig checkpoints{true, 8};
  const GoldenState good = CampaignRunner(image, monitored_config(), checkpoints).export_golden();
  ASSERT_GE(good.snapshots.size(), 3U);
  std::vector<std::pair<const char*, GoldenState>> cases;
  cases.emplace_back("empty", good);
  cases.back().second.snapshots.clear();
  cases.emplace_back("not at instruction 0", good);
  cases.back().second.snapshots.erase(cases.back().second.snapshots.begin());
  cases.emplace_back("not ascending", good);
  std::swap(cases.back().second.snapshots[1], cases.back().second.snapshots[2]);
  cases.emplace_back("stride 0", good);
  cases.back().second.stride = 0;
  for (const auto& [what, state] : cases) {
    const GoldenState decoded = decode_golden(encode_golden(state, test_key()), test_key());
    ASSERT_EQ(decoded.snapshots.size(), state.snapshots.size()) << what;
    ASSERT_EQ(decoded.stride, state.stride) << what;
    try {
      const CampaignRunner imported(image, monitored_config(), checkpoints, decoded);
      ADD_FAILURE() << "schedule " << what << " was accepted";
    } catch (const support::CicError& error) {
      EXPECT_NE(std::string(error.what()).find("golden snapshot schedule"), std::string::npos)
          << what << ": " << error.what();
    }
  }
}

TEST(GoldenSer, RecordingIsByteIdenticalAcrossEngines) {
  // Golden recording pauses the configured engine at every snapshot
  // boundary, so a threaded pause must leave exactly the interpreter's state
  // there: snapshots (registers, memory deltas, checker/IHT state, both
  // clocks), the thinned auto-stride schedule (stringsearch outgrows the
  // snapshot budget) and the final result all encode to the same bytes. The
  // I-cache rows cover the recording that icache-line trials restore from,
  // which a runner records on first use and never ships, so they record it
  // directly.
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    const casm_::Image image = workloads::build_workload(info.name, {0.02, 42});
    for (const bool icache : {false, true}) {
      auto record = [&](cpu::Engine engine) {
        cpu::CpuConfig config;
        config.engine = engine;
        config.monitoring = true;
        config.cic.iht_entries = 16;
        config.icache.enabled = icache;
        GoldenState state;
        if (icache) {
          const cpu::LoadedImage loaded = cpu::preload_image(config, image);
          const CheckpointedGolden golden(config, image, loaded, 0);
          state.snapshots = golden.snapshots();
          state.stride = golden.stride();
          state.result = golden.result();
        } else {
          state = CampaignRunner(image, config).export_golden();
        }
        return encode_golden(state, test_key());
      };
      // EXPECT_TRUE, not EXPECT_EQ: a mismatch should name the kernel, not
      // print two blobs of binary.
      EXPECT_TRUE(record(cpu::Engine::kSwitch) == record(cpu::Engine::kThreaded))
          << info.name << (icache ? " (I-cache on)" : "");
    }
  }
}

}  // namespace
}  // namespace cicmon::fault
