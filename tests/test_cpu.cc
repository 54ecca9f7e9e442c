// CPU tests: instruction semantics through the microoperation programs,
// syscalls, the timing model, and the monitoring integration.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "casm/builder.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "obs/metrics.h"

namespace cicmon::cpu {
namespace {

using casm_::Asm;
using casm_::Label;
using namespace cicmon::isa;

RunResult run(Asm& a, const CpuConfig& config = {}) {
  const casm_::Image image = a.finalize();
  Cpu cpu(config, image);
  return cpu.run();
}

// Runs a fragment that leaves its result in $t0 and checks it.
void expect_t0(void (*body)(Asm&), std::uint32_t expected) {
  Asm a;
  a.func("main");
  body(a);
  a.check_eq(kT0, expected);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.reason, ExitReason::kExit)
      << "observed " << r.check_observed << " expected " << r.check_expected;
}

TEST(Semantics, AluImmediates) {
  expect_t0([](Asm& a) { a.li(kT0, 0); a.addiu(kT0, kT0, -5); }, 0xFFFFFFFB);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.andi(kT0, kT1, 0x3C); }, 0x30);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.ori(kT0, kT1, 0x0F); }, 0xFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.xori(kT0, kT1, 0x0F); }, 0xF0);
  expect_t0([](Asm& a) { a.lui(kT0, 0x1234); }, 0x12340000);
  expect_t0([](Asm& a) { a.li(kT1, 3); a.slti(kT0, kT1, 7); }, 1);
  expect_t0([](Asm& a) { a.li(kT1, static_cast<std::uint32_t>(-1)); a.sltiu(kT0, kT1, 7); }, 0);
}

TEST(Semantics, AluThreeRegister) {
  expect_t0([](Asm& a) { a.li(kT1, 7); a.li(kT2, 8); a.addu(kT0, kT1, kT2); }, 15);
  expect_t0([](Asm& a) { a.li(kT1, 7); a.li(kT2, 8); a.subu(kT0, kT1, kT2); }, 0xFFFFFFFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.li(kT2, 0x0F); a.and_(kT0, kT1, kT2); }, 0x0F);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.li(kT2, 0x0F); a.or_(kT0, kT1, kT2); }, 0xFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.li(kT2, 0xF0); a.xor_(kT0, kT1, kT2); }, 0x0F);
  expect_t0([](Asm& a) { a.li(kT1, 0); a.li(kT2, 0); a.nor(kT0, kT1, kT2); }, 0xFFFFFFFF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, static_cast<std::uint32_t>(-2));
        a.li(kT2, 1);
        a.slt(kT0, kT1, kT2);
      },
      1);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, static_cast<std::uint32_t>(-2));
        a.li(kT2, 1);
        a.sltu(kT0, kT1, kT2);
      },
      0);
}

TEST(Semantics, Shifts) {
  expect_t0([](Asm& a) { a.li(kT1, 1); a.sll(kT0, kT1, 31); }, 0x80000000);
  expect_t0([](Asm& a) { a.li(kT1, 0x80000000); a.srl(kT0, kT1, 31); }, 1);
  expect_t0([](Asm& a) { a.li(kT1, 0x80000000); a.sra(kT0, kT1, 31); }, 0xFFFFFFFF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 1);
        a.li(kT2, 4);
        a.sllv(kT0, kT1, kT2);
      },
      16);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80000000);
        a.li(kT2, 4);
        a.srav(kT0, kT1, kT2);
      },
      0xF8000000);
}

TEST(Semantics, MultiplyDivideHiLo) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 100000);
        a.li(kT2, 100000);
        a.multu(kT1, kT2);
        a.mfhi(kT0);
      },
      static_cast<std::uint32_t>((100000ULL * 100000ULL) >> 32));
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 47);
        a.li(kT2, 5);
        a.divu(kT1, kT2);
        a.mflo(kT0);
      },
      9);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 47);
        a.li(kT2, 5);
        a.divu(kT1, kT2);
        a.mfhi(kT0);
      },
      2);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x1234);
        a.mthi(kT1);
        a.mfhi(kT0);
      },
      0x1234);
}

TEST(Semantics, LoadsAndStores) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0xDEADBEEF);
        a.sw(kT1, -4, kSp);
        a.lw(kT0, -4, kSp);
      },
      0xDEADBEEF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80);
        a.sb(kT1, -8, kSp);
        a.lb(kT0, -8, kSp);  // sign-extends
      },
      0xFFFFFF80);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80);
        a.sb(kT1, -8, kSp);
        a.lbu(kT0, -8, kSp);
      },
      0x80);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x8001);
        a.sh(kT1, -12, kSp);
        a.lh(kT0, -12, kSp);
      },
      0xFFFF8001);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x8001);
        a.sh(kT1, -12, kSp);
        a.lhu(kT0, -12, kSp);
      },
      0x8001);
}

TEST(Semantics, RegisterZeroIsHardwired) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 99);
        a.addu(kZero, kT1, kT1);  // write attempt must be ignored
        a.move(kT0, kZero);
      },
      0);
}

TEST(Semantics, BranchesAndCalls) {
  Asm a;
  a.func("main");
  a.li(kT0, 0);
  a.li(kA0, 4);
  a.call("twice");
  a.move(kT0, kV0);
  a.check_eq(kT0, 8);
  a.sys_exit(0);
  a.func("twice");
  a.addu(kV0, kA0, kA0);
  a.ret();
  EXPECT_EQ(run(a).reason, ExitReason::kExit);
}

TEST(Semantics, JalLinksReturnAddress) {
  Asm a;
  a.func("main");
  a.call("probe");
  a.sys_exit(0);
  a.func("probe");
  // $ra must point at the instruction after the jal (main+4).
  a.move(kT0, kRa);
  a.check_eq(kT0, casm_::kTextBase + 4);
  a.ret();
  EXPECT_EQ(run(a).reason, ExitReason::kExit);
}

TEST(Syscalls, ConsoleOutput) {
  Asm a;
  a.func("main");
  a.li(kA0, 42);
  a.sys(casm_::Sys::kPutInt);
  a.sys_print_char('\n');
  a.li(kA0, static_cast<std::uint32_t>(-7));
  a.sys(casm_::Sys::kPutInt);
  a.sys_exit(3);
  const RunResult r = run(a);
  EXPECT_EQ(r.console, "42\n-7");
  EXPECT_EQ(r.exit_code, 3U);
}

TEST(Syscalls, CheckTrapRecordsValues) {
  Asm a;
  a.func("main");
  a.li(kT0, 5);
  a.check_eq(kT0, 6);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.reason, ExitReason::kSelfCheckFailed);
  EXPECT_EQ(r.check_observed, 5U);
  EXPECT_EQ(r.check_expected, 6U);
}

// One retired instruction, then `trap`: the trap ends the run without
// retiring, identically on both engines (the threaded engine reaches it
// through its kIllegal handler after a batched prefix) with the monitor off
// and on.
void expect_trap_after_one_instruction(void (*trap)(Asm&)) {
  Asm a;
  a.func("main");
  a.li(kT0, 7);
  trap(a);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  for (const bool monitoring : {false, true}) {
    CpuConfig config;
    config.monitoring = monitoring;
    config.engine = Engine::kSwitch;
    const RunResult reference = Cpu(config, image).run();
    EXPECT_EQ(reference.reason, ExitReason::kIllegalInstruction);
    EXPECT_EQ(reference.instructions, 1U);
    EXPECT_EQ(reference.cycles, 1U);
    config.engine = Engine::kThreaded;
    EXPECT_TRUE(Cpu(config, image).run() == reference) << "monitoring " << monitoring;
  }
}

TEST(Traps, IllegalInstruction) {
  expect_trap_after_one_instruction([](Asm& a) { a.emit(0xFFFFFFFF); });  // kInvalid
}

TEST(Traps, BreakIsIllegal) {
  expect_trap_after_one_instruction([](Asm& a) { a.break_(); });
}

TEST(Traps, WildPcOnJumpOutsideText) {
  Asm a;
  a.func("main");
  a.li(kT0, 0x10000000);  // data segment
  a.jr(kT0);
  EXPECT_EQ(run(a).reason, ExitReason::kWildPc);
}

TEST(Traps, WatchdogStopsInfiniteLoop) {
  Asm a;
  a.func("main");
  Label spin = a.bound_label();
  a.b(spin);
  CpuConfig config;
  config.max_instructions = 1000;
  EXPECT_EQ(run(a, config).reason, ExitReason::kWatchdog);
}

TEST(Timing, StraightLineCpiIsOne) {
  Asm a;
  a.func("main");
  for (int i = 0; i < 20; ++i) a.addiu(kT0, kT0, 1);
  a.sys_exit(0);
  const RunResult r = run(a);
  // No taken branches, no loads: cycles == instructions.
  EXPECT_EQ(r.cycles, r.instructions);
}

TEST(Timing, TakenBranchCostsBubble) {
  Asm a;
  a.func("main");
  Label target = a.label();
  a.b(target);
  a.bind(target);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.branch_bubbles, 1U);
  EXPECT_EQ(r.cycles, r.instructions + 1);
}

TEST(Timing, NotTakenBranchIsFree) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);
  Label skip = a.label();
  a.beqz(kT0, skip);  // not taken
  a.bind(skip);
  a.sys_exit(0);
  EXPECT_EQ(run(a).branch_bubbles, 0U);
}

TEST(Timing, LoadUseStalls) {
  Asm a;
  a.func("main");
  a.lw(kT0, -4, kSp);
  a.addu(kT1, kT0, kT0);  // consumes the load next cycle
  a.sys_exit(0);
  EXPECT_EQ(run(a).load_use_stalls, 1U);

  Asm b;
  b.func("main");
  b.lw(kT0, -4, kSp);
  b.addiu(kT5, kT5, 1);   // unrelated filler
  b.addu(kT1, kT0, kT0);
  b.sys_exit(0);
  EXPECT_EQ(run(b).load_use_stalls, 0U);
}

TEST(Timing, StoreDataDoesNotStall) {
  Asm a;
  a.func("main");
  a.lw(kT0, -4, kSp);
  a.sw(kT0, -8, kSp);  // store data forwards at MEM
  a.sys_exit(0);
  EXPECT_EQ(run(a).load_use_stalls, 0U);
}

TEST(Timing, MulDivLatencyStallsEarlyMfhi) {
  Asm a;
  a.func("main");
  a.li(kT1, 3);
  a.mult(kT1, kT1);
  a.mflo(kT0);  // immediately after: must stall
  a.sys_exit(0);
  EXPECT_GT(run(a).muldiv_stalls, 0U);

  Asm b;
  b.func("main");
  b.li(kT1, 3);
  b.mult(kT1, kT1);
  for (int i = 0; i < 8; ++i) b.addiu(kT5, kT5, 1);
  b.mflo(kT0);  // latency already covered
  b.sys_exit(0);
  EXPECT_EQ(run(b).muldiv_stalls, 0U);
}

TEST(Timing, ICacheStallsCharged) {
  Asm a;
  a.func("main");
  for (int i = 0; i < 32; ++i) a.addiu(kT0, kT0, 1);
  a.sys_exit(0);
  CpuConfig config;
  config.icache.enabled = true;
  config.icache.miss_penalty = 4;
  const RunResult r = run(a, config);
  EXPECT_GT(r.icache_stall_cycles, 0U);
  EXPECT_EQ(r.icache_stall_cycles % 4, 0U);
}

TEST(Monitoring, TransparentToProgramResults) {
  auto build = [] {
    Asm a;
    a.func("main");
    a.li(kT0, 6);
    a.li(kT1, 1);
    Label loop = a.bound_label();
    a.li(kT2, 3);
    a.multu(kT1, kT2);
    a.mflo(kT1);
    a.addiu(kT0, kT0, -1);
    a.bnez(kT0, loop);
    a.move(kA0, kT1);
    a.sys(casm_::Sys::kPutInt);
    a.sys_exit(0);
    return a.finalize();
  };
  const casm_::Image image = build();

  CpuConfig off;
  Cpu plain(off, image);
  const RunResult r_off = plain.run();

  CpuConfig on;
  on.monitoring = true;
  on.cic.iht_entries = 8;
  Cpu monitored(on, image);
  const RunResult r_on = monitored.run();

  EXPECT_EQ(r_off.console, r_on.console);
  EXPECT_EQ(r_off.instructions, r_on.instructions);  // same dynamic stream
  EXPECT_EQ(r_on.console, "729");                    // 3^6
  EXPECT_GT(r_on.iht.lookups, 0U);
  EXPECT_EQ(r_off.iht.lookups, 0U);
  // The only cycle difference is the OS exception handling.
  EXPECT_EQ(r_on.app_cycles(), r_off.cycles);
}

TEST(Monitoring, LookupKeysMatchBlockBoundaries) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);            // 0x400000
  Label skip = a.label();
  a.beqz(kZero, skip);     // 0x400004: taken branch ends block [0x400000, 0x400004]
  a.nop();                 // 0x400008: skipped
  a.bind(skip);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();

  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
  cpu.set_lookup_observer([&](std::uint32_t s, std::uint32_t e) { keys.emplace_back(s, e); });
  cpu.run();
  ASSERT_EQ(keys.size(), 1U);
  EXPECT_EQ(keys[0].first, casm_::kTextBase);
  EXPECT_EQ(keys[0].second, casm_::kTextBase + 4);
}

TEST(Monitoring, SpecialRegistersFollowFigure3) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  cpu.step();  // li expands to a single addiu; executes the first instruction
  EXPECT_EQ(cpu.special(uop::SpecialReg::kSta), casm_::kTextBase);
  EXPECT_EQ(cpu.special(uop::SpecialReg::kRhash), image.text[0]);  // XOR of one word
  EXPECT_EQ(cpu.special(uop::SpecialReg::kPpc), casm_::kTextBase);
}

TEST(Monitoring, PostIdFaultEscapesMonitor) {
  Asm a;
  a.func("main");
  a.li(kT0, 5);
  a.li(kT1, 5);   // dynamic index 1: will be corrupted post-ID
  a.addu(kT2, kT0, kT1);
  a.check_eq(kT2, 10);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();

  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  cpu.set_post_id_fault(PostIdFault{1, 1U << 16});  // flip an immediate bit after ID
  const RunResult r = cpu.run();
  // The monitor saw the clean word, so no mismatch: the corruption surfaces
  // as a wrong result instead (the §3.2 limitation).
  EXPECT_EQ(r.reason, ExitReason::kSelfCheckFailed);
  EXPECT_EQ(r.iht.mismatches, 0U);
}

TEST(Monitoring, GprAndMemoryInspection) {
  Asm a;
  a.func("main");
  a.li(kT3, 77);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  Cpu cpu(CpuConfig{}, image);
  cpu.run();
  EXPECT_EQ(cpu.gpr(kT3), 77U);
  EXPECT_FALSE(cpu.running());
}

// A program long enough to cut mid-stream, with memory writes (snapshot
// delta pages), console output and a self-check (both live in RunResult, so
// a restore that lost either would fail the equality below). The loop body
// is one straight-line run holding every straight-line fused kind, with
// mfhi/mflo issued before the mult/div latency elapses, so a cut inside it
// lands between batched entries whose stalls run on the batch-relative
// muldiv clock.
casm_::Image snapshot_program() {
  Asm a;
  a.data_symbol("acc");
  a.data_word(0);
  a.func("main");
  a.la(kT2, "acc");
  a.li(kT0, 30);
  Label loop = a.bound_label();
  a.lw(kT1, 0, kT2);
  a.addu(kT1, kT1, kT0);
  a.sw(kT1, 0, kT2);
  a.mult(kT0, kT0);
  a.mflo(kT3);  // t0 * t0, read before the mult latency elapses
  a.div(kT3, kT0);
  a.mfhi(kT4);  // remainder 0, read before the div latency elapses
  a.mthi(kT3);
  a.mtlo(kT4);
  a.lui(kT5, 0x1234);
  a.sll(kT5, kT5, 4);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.lw(kA0, 0, kT2);
  a.sys(casm_::Sys::kPutInt);
  a.check_eq(kA0, 465);
  a.sys_exit(0);
  return a.finalize();
}

TEST(Snapshot, RestoredRunMatchesUninterruptedRun) {
  // The checkpoint contract at CPU granularity: stepping K instructions,
  // saving a Snapshot, restoring it into a *fresh* CPU and running must
  // produce a RunResult bit-identical to the uninterrupted run — for every
  // engine, with and without the monitor, with and without the I-cache.
  const casm_::Image image = snapshot_program();
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    for (const bool monitoring : {false, true}) {
      for (const bool icache : {false, true}) {
        CpuConfig config;
        config.engine = engine;
        config.monitoring = monitoring;
        config.cic.iht_entries = 8;
        config.icache.enabled = icache;
        const LoadedImage loaded = preload_image(config, image);
        Cpu straight(config, image, &loaded);
        const RunResult want = straight.run();
        ASSERT_EQ(want.reason, ExitReason::kExit);
        ASSERT_EQ(want.console, "465");

        for (const std::uint64_t cut : {1, 17, 64, 140}) {
          Cpu prefix(config, image, &loaded);
          while (prefix.instructions_retired() < cut) {
            ASSERT_FALSE(prefix.step().has_value()) << "program shorter than cut " << cut;
          }
          Snapshot snapshot;
          prefix.save_snapshot(&snapshot);
          Cpu resumed(config, image, &loaded);
          resumed.restore_snapshot(snapshot);
          const RunResult got = resumed.run();
          EXPECT_TRUE(got == want)
              << "engine " << engine_name(engine) << ", monitor " << monitoring << ", icache "
              << icache << ", cut at " << cut << ": console '" << got.console << "' vs '"
              << want.console << "', " << got.instructions << " vs " << want.instructions
              << " instructions, " << got.cycles << " vs " << want.cycles << " cycles";
        }
      }
    }
  }
}

TEST(Snapshot, RetiredInstructionsSplitIntoExecutedAndRestored) {
  // A Cpu that walks, is restored onto an earlier snapshot and walks on — a
  // campaign's golden cursor — executed both walks and restored the prefix.
  // Each publish_metrics() adds only what accrued since the previous one,
  // counts the Cpu as one run, and keeps engine.instructions the sum of its
  // executed and restored halves.
  const casm_::Image image = snapshot_program();
  CpuConfig config;
  const LoadedImage loaded = preload_image(config, image);
  Cpu source(config, image, &loaded);
  ASSERT_FALSE(source.run_until(17).has_value());
  Snapshot at17;
  source.save_snapshot(&at17);

  Cpu cursor(config, image, &loaded);
  const auto published = [&cursor] {
    const std::vector<std::uint64_t> before = obs::counter_values();
    cursor.publish_metrics();
    std::vector<std::uint64_t> got(4, 0);
    for (const auto& [name, value] : obs::counter_delta(before)) {
      if (name == "engine.runs") got[0] = value;
      if (name == "engine.instructions") got[1] = value;
      if (name == "engine.instructions.executed") got[2] = value;
      if (name == "engine.instructions.restored") got[3] = value;
    }
    return got;
  };
  ASSERT_FALSE(cursor.run_until(64).has_value());
  EXPECT_EQ(published(), (std::vector<std::uint64_t>{1, 64, 64, 0}));
  cursor.restore_snapshot(at17);
  const RunResult result = cursor.run();
  ASSERT_EQ(result.reason, ExitReason::kExit);
  const std::uint64_t rest = result.instructions - 17;
  EXPECT_EQ(cursor.instructions_executed(), 64 + rest);
  EXPECT_EQ(cursor.instructions_restored(), 17U);
  EXPECT_EQ(published(), (std::vector<std::uint64_t>{0, rest + 17, rest, 17}));
  EXPECT_EQ(published(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(Snapshot, PreloadedImageMatchesFreshConstruction) {
  // Trials read the program through a shared immutable post-loader image;
  // that COW path must be invisible next to the classic per-CPU loader.
  const casm_::Image image = snapshot_program();
  for (const bool monitoring : {false, true}) {
    CpuConfig config;
    config.monitoring = monitoring;
    config.cic.iht_entries = 8;
    Cpu classic(config, image);
    const LoadedImage loaded = preload_image(config, image);
    Cpu shared_a(config, image, &loaded);
    Cpu shared_b(config, image, &loaded);  // the base serves many CPUs at once
    const RunResult want = classic.run();
    EXPECT_TRUE(shared_a.run() == want) << "monitor " << monitoring;
    EXPECT_TRUE(shared_b.run() == want) << "monitor " << monitoring;
  }
}

TEST(Snapshot, SnapshotZeroRestoresToFreshState) {
  // Snapshot 0 (taken before the first step) restored into a CPU that has
  // already diverged must bring it back to the clean start.
  const casm_::Image image = snapshot_program();
  CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  const LoadedImage loaded = preload_image(config, image);
  Cpu reference(config, image, &loaded);
  const RunResult want = reference.run();

  Cpu cpu(config, image, &loaded);
  Snapshot zero;
  cpu.save_snapshot(&zero);
  for (int i = 0; i < 25; ++i) ASSERT_FALSE(cpu.step().has_value());
  cpu.memory().write32(0x9000, 0xDEAD);  // dirty a page the program never uses
  cpu.restore_snapshot(zero);
  EXPECT_EQ(cpu.instructions_retired(), 0U);
  EXPECT_EQ(cpu.memory().read32(0x9000), 0U);
  EXPECT_TRUE(cpu.run() == want);
}

TEST(RunUntil, PausedRunResumesToTheUninterruptedResult) {
  // The convergence check's pause: cut a run at every instruction count —
  // mid-block, where the threaded engine retires a batched straight-line
  // prefix, included — and the paused state must be the one step() reaches
  // there (what golden snapshots record), and resuming must reproduce the
  // uninterrupted RunResult, on both engines.
  const casm_::Image image = snapshot_program();
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    for (const bool monitoring : {false, true}) {
      CpuConfig config;
      config.engine = engine;
      config.monitoring = monitoring;
      config.cic.iht_entries = 8;
      const LoadedImage loaded = preload_image(config, image);
      Cpu straight(config, image, &loaded);
      const RunResult want = straight.run();
      ASSERT_EQ(want.reason, ExitReason::kExit);

      Cpu stepped(config, image, &loaded);
      for (std::uint64_t cut = 1; cut < want.instructions; ++cut) {
        ASSERT_FALSE(stepped.step().has_value());
        Snapshot at_cut;
        stepped.save_snapshot(&at_cut);
        const std::string where = std::string(engine_name(engine)) + " monitor " +
                                  std::to_string(monitoring) + " cut " + std::to_string(cut);
        Cpu paused(config, image, &loaded);
        ASSERT_FALSE(paused.run_until(cut).has_value()) << where;
        ASSERT_EQ(paused.instructions_retired(), cut) << where;
        EXPECT_TRUE(paused.matches_snapshot(at_cut)) << where;
        EXPECT_EQ(paused.console(), at_cut.result.console) << where;
        // A second pause halfway to the end, then run on.
        ASSERT_FALSE(paused.run_until(cut + (want.instructions - cut) / 2).has_value()) << where;
        EXPECT_TRUE(paused.run() == want) << where;
      }
    }
  }
}

TEST(RunUntil, PauseSharesTheWatchdog) {
  // run_until folds into the watchdog compare: a pause at, or past,
  // max_instructions ends the run on the watchdog exactly as run() does, and
  // a finished Cpu keeps returning its final result.
  const casm_::Image image = snapshot_program();
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    for (const std::uint64_t watchdog : {40, 77, 101}) {
      CpuConfig config;
      config.engine = engine;
      config.monitoring = true;
      config.cic.iht_entries = 8;
      config.max_instructions = watchdog;
      const LoadedImage loaded = preload_image(config, image);
      Cpu straight(config, image, &loaded);
      const RunResult want = straight.run();
      ASSERT_EQ(want.reason, ExitReason::kWatchdog);
      ASSERT_EQ(want.instructions, watchdog);
      for (const std::uint64_t limit : {watchdog, watchdog + 1, watchdog * 10}) {
        Cpu cpu(config, image, &loaded);
        ASSERT_FALSE(cpu.run_until(watchdog - 3).has_value());
        const std::optional<RunResult> got = cpu.run_until(limit);
        ASSERT_TRUE(got.has_value()) << engine_name(engine) << " limit " << limit;
        EXPECT_TRUE(*got == want) << engine_name(engine) << " limit " << limit;
      }
      EXPECT_TRUE(straight.run() == want);
      EXPECT_TRUE(straight.run_until(5) == want);
    }
  }
}

TEST(MatchesSnapshot, PagesCompareByContentThroughTheSharedBase) {
  // Memory matches by what it reads, not by which overlay holds a page: a
  // private copy byte-equal to the base page matches an overlay without it
  // (on either side), and one differing byte does not.
  const casm_::Image image = snapshot_program();
  CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  const LoadedImage loaded = preload_image(config, image);
  const std::uint32_t data = image.data_base;

  Cpu clean(config, image, &loaded);
  Snapshot base_only;
  clean.save_snapshot(&base_only);
  ASSERT_TRUE(base_only.memory_delta.empty());

  Cpu copied(config, image, &loaded);
  copied.memory().write8(data, copied.memory().read8(data));  // COW copy, same bytes
  ASSERT_EQ(copied.memory().pages_allocated(), 1U);
  EXPECT_TRUE(copied.matches_snapshot(base_only));
  Snapshot with_copy;
  copied.save_snapshot(&with_copy);
  ASSERT_EQ(with_copy.memory_delta.size(), 1U);
  EXPECT_TRUE(clean.matches_snapshot(with_copy));

  copied.memory().write8(data + 100, copied.memory().read8(data + 100) ^ 1);
  EXPECT_FALSE(copied.matches_snapshot(base_only));
  with_copy.memory_delta.begin()->second[7] ^= 0x80;
  EXPECT_FALSE(clean.matches_snapshot(with_copy));

  // A page the base lacks reads as zeros on the other side.
  Cpu zeroed(config, image, &loaded);
  zeroed.memory().write32(0x9000, 0);
  EXPECT_TRUE(zeroed.matches_snapshot(base_only));
  zeroed.memory().write32(0x9000, 1);
  EXPECT_FALSE(zeroed.matches_snapshot(base_only));
}

TEST(PredecodeCache, LookupsCountEveryInterpretedFetch) {
  // engine.predecode.hits is lookups - misses, both counted in step(): a
  // switch run probes once per fetch (the exit syscall, which never retires,
  // included); the threaded engine never probes.
  const casm_::Image image = snapshot_program();
  CpuConfig config;
  config.engine = Engine::kSwitch;
  Cpu cpu(config, image);
  const RunResult result = cpu.run();
  EXPECT_EQ(cpu.predecode_lookups(), result.instructions + 1);
  EXPECT_GT(cpu.predecode_misses(), 0U);
  EXPECT_LT(cpu.predecode_misses(), cpu.predecode_lookups());
  const std::vector<std::uint64_t> before = obs::counter_values();
  cpu.publish_metrics();
  std::uint64_t hits = 0;
  for (const auto& [name, value] : obs::counter_delta(before)) {
    if (name == "engine.predecode.hits") hits = value;
  }
  EXPECT_EQ(hits, cpu.predecode_lookups() - cpu.predecode_misses());

  config.engine = Engine::kThreaded;
  Cpu threaded(config, image);
  threaded.run();
  EXPECT_EQ(threaded.predecode_lookups(), 0U);
}

}  // namespace
}  // namespace cicmon::cpu
