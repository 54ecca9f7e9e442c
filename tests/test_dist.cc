// Tests for the distributed campaign orchestrator: work-queue retry budgets,
// the subprocess helper, transport template expansion, and — through real
// worker subprocesses — the orchestrator's failure paths.
//
// The session tests run the real `cicmon worker` binary over pipes, plus sh
// saboteurs speaking just enough of the wire protocol to misbehave: the
// handshake rejects protocol/spec skew but only *downgrades* on golden-key
// skew, and every adversarial input — truncated frame, checksum mismatch,
// garbage line, oversized record, hung worker, acked invalid artifact,
// worker SIGKILLed mid-record or mid-golden-chunk — fails the attempt,
// retries the shard on a fresh session, and still merges to exactly the
// direct run's cells. An exhausted attempt budget is reported as a failure
// while completed shards stay resumable. The Cli.* tests run the real
// `cicmon dispatch` binary end to end and byte-diff its stdout against the
// direct run with golden shipping on (where the fleet's engine counters must
// also equal the direct run's), across engines, key-skewed, with malformed
// image starts, and sabotaged. (CI repeats that over a multi-host-style
// template transport.)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/orchestrator.h"
#include "dist/session.h"
#include "dist/transport.h"
#include "dist/work_queue.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "fault/golden_ser.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "support/json.h"
#include "support/strings.h"
#include "support/subprocess.h"
#include "support/wire.h"
#include "workloads/workloads.h"

#ifndef CICMON_CLI_PATH
#define CICMON_CLI_PATH "./cicmon"  // CMake injects the real binary location
#endif

namespace cicmon::dist {
namespace {

// Same cheap deterministic grid as test_exp.cc.
exp::SweepSpec synthetic_sweep(std::size_t cells) {
  exp::SweepSpec spec;
  spec.sweep = "synthetic";
  spec.params = {{"cells", std::to_string(cells)}};
  spec.cells = cells;
  spec.shape = {2, 1};
  spec.run_cell = [](std::size_t cell) {
    exp::CellResult result;
    result.u64 = {cell, cell * cell};
    result.f64 = {1.0 / static_cast<double>(cell + 1)};
    return result;
  };
  return spec;
}

// A fresh per-test directory (markers and artifacts from a previous run of
// the same test must not leak into this one).
std::string make_test_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "cicmon_dist_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

DispatchConfig test_config(const std::string& dir, unsigned workers, unsigned shards,
                           unsigned retries = 2) {
  DispatchConfig config;
  config.workers = workers;
  config.shards = shards;
  config.retries = retries;
  config.jobs_per_worker = 1;
  config.timeout_seconds = 60;
  config.artifact_dir = dir + "/artifacts";
  config.progress = false;
  return config;
}

// --- work queue ----------------------------------------------------------

TEST(WorkQueue, PullRetryAndBudgetExhaustion) {
  WorkQueue queue(/*max_attempts=*/2);
  queue.push(WorkItem{exp::Shard{1, 2}, "a.json", 0});
  queue.push(WorkItem{exp::Shard{2, 2}, "b.json", 0});
  EXPECT_EQ(queue.total(), 2U);

  WorkItem item;
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 1U);
  EXPECT_EQ(item.attempts, 1U);  // popping counts the attempt

  // First failure re-enqueues at the back; budget remains.
  EXPECT_TRUE(queue.retry(item, "worker died"));
  EXPECT_TRUE(queue.failures().empty());

  // The other item flows first (re-enqueue must not starve the queue).
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 2U);
  queue.complete(item);
  EXPECT_EQ(queue.done(), 1U);

  // Second pop of the retried item spends the last attempt.
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 1U);
  EXPECT_EQ(item.attempts, 2U);
  EXPECT_FALSE(queue.retry(item, "worker died again"));
  ASSERT_EQ(queue.failures().size(), 1U);
  EXPECT_EQ(queue.failures()[0].reason, "worker died again");
  EXPECT_EQ(queue.failures()[0].item.attempts, 2U);
  EXPECT_FALSE(queue.try_pop(&item));
}

// --- subprocess helper ---------------------------------------------------

TEST(Subprocess, SpawnReapAndDescribeExitStatuses) {
  int status = 0;
  EXPECT_EQ(support::spawn_process({"/bin/sh", "-c", "exit 0"}).wait() >> 8, 0);

  status = support::spawn_process({"/bin/sh", "-c", "exit 3"}).wait();
  EXPECT_FALSE(support::exit_ok(status));
  EXPECT_EQ(support::describe_exit(status), "exit code 3");

  // A command that cannot exec comes back as the shell's 127 convention.
  status = support::spawn_process({"/nonexistent/definitely-not-a-binary"}).wait();
  EXPECT_EQ(support::describe_exit(status), "exit code 127");

  // kill_hard produces a signal status; poll() eventually reaps it.
  support::ChildProcess child = support::spawn_process({"/bin/sh", "-c", "exec sleep 30"});
  child.kill_hard();
  status = child.wait();
  EXPECT_FALSE(support::exit_ok(status));
  EXPECT_TRUE(support::describe_exit(status).starts_with("signal 9"));

  EXPECT_THROW(support::spawn_process({}), support::CicError);
}

TEST(Subprocess, ShellQuoting) {
  EXPECT_EQ(support::shell_quote("plain-word_1.2/x"), "plain-word_1.2/x");
  EXPECT_EQ(support::shell_quote("two words"), "'two words'");
  EXPECT_EQ(support::shell_quote(""), "''");
  EXPECT_EQ(support::shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(support::shell_join({"a", "b c", "$d"}), "a 'b c' '$d'");
}

// --- transports ----------------------------------------------------------

TEST(Transport, TemplateExpansionAndValidation) {
  const std::vector<std::string> worker{"cicmon", "worker", "table1", "--dir", "out dir"};
  // No template: the worker argv itself, spawned with pipes.
  EXPECT_EQ(Transport().launch_argv(worker), worker);
  // Every {cmd} becomes the shell-quoted worker command; unknown
  // placeholders and stray braces pass through untouched.
  EXPECT_EQ(Transport("ssh host {cmd} # {what} { {cmd}").launch_argv(worker),
            (std::vector<std::string>{
                "/bin/sh", "-c",
                "ssh host cicmon worker table1 --dir 'out dir' # {what} { "
                "cicmon worker table1 --dir 'out dir'"}));
  EXPECT_THROW(Transport("ssh host run-it"), support::CicError);
  // One session serves many shards, so per-shard placeholders are rejected,
  // and the error names the one-shot route that still has them.
  for (const std::string per_shard : {"run {shard} {cmd}", "{cmd} --out {out}"}) {
    try {
      Transport transport(per_shard);
      ADD_FAILURE() << "accepted " << per_shard;
    } catch (const support::CicError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("--shard I/N --out"), std::string::npos) << what;
      EXPECT_NE(what.find("cicmon merge"), std::string::npos) << what;
    }
  }
}

// --- persistent worker sessions -----------------------------------------

TEST(Session, MessagesRoundTripThroughEncodeDecode) {
  exp::SweepSpec spec;
  spec.sweep = "table1";
  spec.params = {{"scale", "0.5"}, {"seed", "7"}};
  spec.cells = 27;
  const SessionMessage hello =
      decode_session_message(encode_hello("table1", "00deadbeef00face"));
  EXPECT_EQ(hello.type, SessionMessage::Type::kHello);
  EXPECT_EQ(hello.protocol, kSessionProtocolVersion);
  EXPECT_EQ(hello.sweep, "table1");
  EXPECT_EQ(hello.golden_key, "00deadbeef00face");
  EXPECT_TRUE(hello_mismatch(hello, spec).empty());

  const SessionMessage offer =
      decode_session_message(encode_golden_offer("00deadbeef00face", 3'000'000, 3));
  EXPECT_EQ(offer.type, SessionMessage::Type::kGoldenOffer);
  EXPECT_EQ(offer.offer_key, "00deadbeef00face");
  EXPECT_EQ(offer.golden_bytes, 3'000'000U);
  EXPECT_EQ(offer.golden_chunks, 3U);
  // The empty offer ("nothing to ship") is a valid record too.
  EXPECT_EQ(decode_session_message(encode_golden_offer("", 0, 0)).golden_chunks, 0U);

  const SessionMessage ready = decode_session_message(encode_ready(spec, "shipped"));
  EXPECT_EQ(ready.type, SessionMessage::Type::kReady);
  EXPECT_EQ(ready.sweep, "table1");
  EXPECT_EQ(ready.cells, 27U);
  EXPECT_EQ(ready.params, spec.params);
  EXPECT_EQ(ready.golden_source, "shipped");
  EXPECT_TRUE(ready_mismatch(ready, spec).empty());

  const SessionMessage assign =
      decode_session_message(encode_assign(exp::Shard{2, 5}, "out dir/a.json", true));
  EXPECT_EQ(assign.type, SessionMessage::Type::kAssign);
  EXPECT_EQ(assign.shard.index, 2U);
  EXPECT_EQ(assign.shard.count, 5U);
  EXPECT_EQ(assign.artifact_path, "out dir/a.json");
  EXPECT_TRUE(assign.force);

  const SessionMessage done =
      decode_session_message(encode_done(exp::Shard{5, 5}, "a.json", true, 321));
  EXPECT_EQ(done.type, SessionMessage::Type::kDone);
  EXPECT_TRUE(done.reused);
  EXPECT_EQ(done.wall_ms, 321U);
  EXPECT_TRUE(done.metrics.empty());  // no metrics argument -> field elided

  // The additive metrics field round-trips name/value pairs exactly.
  const SessionMessage done_metrics = decode_session_message(encode_done(
      exp::Shard{1, 3}, "b.json", false, 12,
      {{"engine.runs", 7}, {"campaign.trials", 250}}));
  EXPECT_EQ(done_metrics.type, SessionMessage::Type::kDone);
  ASSERT_EQ(done_metrics.metrics.size(), 2U);
  EXPECT_EQ(done_metrics.metrics[0].first, "engine.runs");
  EXPECT_EQ(done_metrics.metrics[0].second, 7U);
  EXPECT_EQ(done_metrics.metrics[1].first, "campaign.trials");
  EXPECT_EQ(done_metrics.metrics[1].second, 250U);

  // A done record from a pre-telemetry peer (no metrics key) still decodes.
  const SessionMessage old_done = decode_session_message(
      "{\"type\": \"done\", \"shard\": 1, \"shard_count\": 2, "
      "\"out\": \"x\", \"reused\": false, \"wall_ms\": 5}");
  EXPECT_EQ(old_done.type, SessionMessage::Type::kDone);
  EXPECT_TRUE(old_done.metrics.empty());

  const SessionMessage error =
      decode_session_message(encode_session_error(exp::Shard{1, 2}, "disk full"));
  EXPECT_EQ(error.type, SessionMessage::Type::kError);
  EXPECT_EQ(error.message, "disk full");

  EXPECT_EQ(decode_session_message(encode_shutdown()).type, SessionMessage::Type::kShutdown);

  EXPECT_THROW(decode_session_message("not json"), support::CicError);
  EXPECT_THROW(decode_session_message("{\"type\": \"launch-missiles\"}"), support::CicError);
  // Out-of-range shard coordinates are a structural violation, and so are
  // coordinates past 2^32 - 1 that would narrow to a valid 2/3.
  for (const char* coordinates : {"\"shard\": 9, \"shard_count\": 5",
                                  "\"shard\": 4294967298, \"shard_count\": 4294967299",
                                  "\"shard\": 2, \"shard_count\": 4294967299"}) {
    EXPECT_THROW(decode_session_message(std::string("{\"type\": \"done\", ") + coordinates +
                                        ", \"out\": \"x\", \"reused\": false, "
                                        "\"wall_ms\": 0}"),
                 support::CicError)
        << coordinates;
  }
  // A golden offer whose key and chunk count disagree is structurally bogus:
  // "something to ship" needs both, "nothing" needs neither.
  EXPECT_THROW(decode_session_message(
                   "{\"type\": \"golden_offer\", \"key\": \"\", \"bytes\": 0, "
                   "\"chunks\": 3}"),
               support::CicError);
  EXPECT_THROW(decode_session_message(
                   "{\"type\": \"golden_offer\", \"key\": \"00deadbeef00face\", "
                   "\"bytes\": 9, \"chunks\": 0}"),
               support::CicError);
}

TEST(Session, HelloMismatchCatchesProtocolAndSweepButNotGoldenKeySkew) {
  exp::SweepSpec spec;
  spec.sweep = "fig6";
  spec.params = {{"scale", "1"}};
  spec.cells = 9;
  SessionMessage hello = decode_session_message(encode_hello("fig6", "1111111111111111"));
  EXPECT_TRUE(hello_mismatch(hello, spec).empty());
  SessionMessage skew = hello;
  skew.protocol = 99;
  EXPECT_NE(hello_mismatch(skew, spec).find("protocol"), std::string::npos);
  skew = hello;
  skew.sweep = "table1";
  EXPECT_FALSE(hello_mismatch(skew, spec).empty());
  // Golden-key skew downgrades shipping; it must never reject the worker.
  skew = hello;
  skew.golden_key = "2222222222222222";
  EXPECT_TRUE(hello_mismatch(skew, spec).empty());
}

TEST(Session, ReadyMismatchCatchesSweepCellsAndParams) {
  exp::SweepSpec spec;
  spec.sweep = "fig6";
  spec.params = {{"scale", "1"}};
  spec.cells = 9;
  SessionMessage ready = decode_session_message(encode_ready(spec, "derived"));
  EXPECT_TRUE(ready_mismatch(ready, spec).empty());
  SessionMessage skew = ready;
  skew.sweep = "table1";
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
  skew = ready;
  skew.cells = 10;
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
  skew = ready;
  skew.params = {{"scale", "2"}};
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
}

// The persistent-session integration tests run the REAL `cicmon worker`
// binary against a real (tiny) table1 sweep — the parent derives the same
// spec the worker will, exactly as `cicmon dispatch` does.
constexpr double kSessionScale = 0.02;

exp::SweepSpec session_sweep() { return sim::table1_sweep(kSessionScale); }

const exp::Cells& session_direct_cells() {
  static const exp::Cells cells = exp::run_all(session_sweep(), 1);
  return cells;
}

std::vector<std::string> cli_worker_command() {
  return {CICMON_CLI_PATH, "worker", "table1", "--scale", exp::fmt_f64(kSessionScale)};
}

TEST(Sessions, ServeManyShardsPerProcessAndMergeToTheDirectRun) {
  const std::string dir = make_test_dir("sessions_happy");
  const Transport transport;
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.shard_count, 5U);
  EXPECT_EQ(result.launched, 2U);  // 2 sessions served 5 shards — the whole point
  EXPECT_EQ(result.retried, 0U);
  EXPECT_EQ(result.cells, session_direct_cells());

  // A re-dispatch resumes every artifact without a single session spawn.
  const DispatchResult again =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.reused, 5U);
  EXPECT_EQ(again.launched, 0U);
  EXPECT_EQ(again.cells, session_direct_cells());
}

TEST(Sessions, FlakyEnvHookKillsWorkerMidRecordAndTheShardIsRetried) {
  const std::string dir = make_test_dir("sessions_flaky");
  // The worker-side deterministic death hook: first worker to serve shard
  // 2/4 writes half a done record and SIGKILLs itself.
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY", "2/4", 1), 0);
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY_MARKER", (dir + "/markers").c_str(), 1), 0);
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), Transport(), test_config(dir, 1, 4));
  unsetenv("CICMON_WORKER_FLAKY");
  unsetenv("CICMON_WORKER_FLAKY_MARKER");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.retried, 1U);
  EXPECT_EQ(result.launched, 2U);  // the killed session + its replacement
  EXPECT_EQ(result.cells, session_direct_cells());
  EXPECT_TRUE(std::filesystem::exists(dir + "/markers/2of4"));
}

// The sh line that consumes exactly one frame from stdin — the header line,
// then the payload's <len> bytes plus the closing newline — and writes the
// payload (newline included) to `sink`. Records are multi-line JSON, so
// reading lines would stop partway through one.
std::string read_frame_to(const std::string& sink) {
  return "read magic len sum && head -c $((len + 1)) > \"" + sink + "\"\n";
}

// The worker half of a handshake, as precomputed frames plus the script
// lines that replay it: hello out (with no golden key, so the offer is
// empty and no chunks follow), consume the offer, report ready — enough for
// a /bin/sh "worker" to reach the assignment loop exactly as the real binary
// does.
std::string scripted_handshake(const std::string& dir, const exp::SweepSpec& spec) {
  write_file(dir + "/hello.bin", support::wire_frame(encode_hello(spec.sweep, "")));
  write_file(dir + "/ready.bin", support::wire_frame(encode_ready(spec, "derived")));
  return "cat \"" + dir + "/hello.bin\"\n" + read_frame_to("/dev/null") + "cat \"" + dir +
         "/ready.bin\"\n";
}

TEST(Sessions, IdleSessionIsNotKilledByItsCompletedAssignmentsDeadline) {
  // Regression: completing an assignment must clear its deadline. A session
  // idling after a fast shard (while a peer grinds the long-tail one) must
  // not be torn down as "timed out" when the finished assignment's deadline
  // passes.
  const std::string dir = make_test_dir("sessions_idle");
  const exp::SweepSpec spec = session_sweep();
  const std::string artifact = dir + "/a.json";
  write_file(dir + "/done.bin",
             support::wire_frame(encode_done(exp::Shard{1, 2}, artifact, false, 3)));
  const std::string path = dir + "/idle.sh";
  write_file(path, scripted_handshake(dir, spec) + read_frame_to("/dev/null") + "cat \"" +
                       dir + "/done.bin\"\nexec sleep 30\n");
  using Clock = WorkerSession::Clock;
  WorkerSession session(support::spawn_process_piped({"/bin/sh", path}), nullptr,
                        Clock::now() + std::chrono::seconds(10),
                        /*grace_seconds=*/0.1);
  auto pump_until = [&](WorkerSession::Event::Kind kind) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < give_up) {
      const WorkerSession::Event event = session.pump(spec, Clock::now());
      if (event.kind == kind) return true;
      if (event.kind == WorkerSession::Event::Kind::kFailed) {
        ADD_FAILURE() << "session failed: " << event.reason;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };
  ASSERT_TRUE(pump_until(WorkerSession::Event::Kind::kReady));
  // A tight 100ms assignment deadline, acked almost instantly...
  WorkItem item{exp::Shard{1, 2}, artifact, 1};
  ASSERT_TRUE(session.assign(item, false, Clock::now() + std::chrono::milliseconds(100)));
  ASSERT_TRUE(pump_until(WorkerSession::Event::Kind::kDone));
  (void)session.take_item();
  EXPECT_EQ(session.state(), WorkerSession::State::kIdle);
  // ...then idle well past it: the session must stay alive and idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const WorkerSession::Event event = session.pump(spec, Clock::now());
  EXPECT_EQ(event.kind, WorkerSession::Event::Kind::kNone) << event.reason;
  EXPECT_EQ(session.state(), WorkerSession::State::kIdle);
  session.shutdown(0.1);
}

TEST(Sessions, FailedAssignWriteLeavesTheItemWithTheCaller) {
  // Regression: assign() must not consume the item when the pipe write
  // fails — the caller re-enqueues it, artifact path and all.
  const std::string dir = make_test_dir("sessions_deadpipe");
  const std::string path = dir + "/hello-then-die.sh";
  write_file(path, scripted_handshake(dir, session_sweep()) + "exit 0\n");
  using Clock = WorkerSession::Clock;
  WorkerSession session(support::spawn_process_piped({"/bin/sh", path}), nullptr,
                        Clock::now() + std::chrono::seconds(10),
                        /*grace_seconds=*/0.1);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (session.state() != WorkerSession::State::kIdle && Clock::now() < give_up) {
    session.pump(session_sweep(), Clock::now());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(session.state(), WorkerSession::State::kIdle);
  // The worker is gone by now; give the kernel a beat to notice the reader
  // side is closed so the write fails with EPIPE.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string artifact = dir + "/artifacts/table1-1of2-with-a-long-path.shard.json";
  WorkItem item{exp::Shard{1, 2}, artifact, 1};
  EXPECT_FALSE(session.assign(item, false, Clock::now() + std::chrono::seconds(10)));
  EXPECT_EQ(session.state(), WorkerSession::State::kDead);
  EXPECT_EQ(item.artifact_path, artifact);  // intact for the re-enqueue
  EXPECT_EQ(item.shard.index, 1U);
}

// A saboteur session: speaks a valid handshake (precomputed by the test,
// with an empty golden offer), consumes its first assignment into
// DIR/assign.rec, runs `sabotage` instead of serving it, and exits. Every
// later launch (the mkdir is atomic, so exactly one saboteur fires) execs the
// real worker binary, which serves the retried shard properly.
std::vector<std::string> saboteur_command(const std::string& dir, const std::string& sabotage) {
  const std::string path = dir + "/session.sh";
  write_file(path,
             "if mkdir \"" + dir + "/sabotaged\" 2> /dev/null; then\n" +
                 scripted_handshake(dir, session_sweep()) + read_frame_to(dir + "/assign.rec") +
                 sabotage + "\n"
             "  exit 0\n"
             "fi\n"
             "exec " + std::string(CICMON_CLI_PATH) + " worker table1 --scale " +
                 exp::fmt_f64(kSessionScale) + " --jobs 1\n");
  return {"/bin/sh", path};
}

// Shared body for the adversarial-worker tests: one worker slot, three
// shards, the first session responds to its first assignment with `sabotage`
// — the orchestrator must fail that attempt, re-enqueue the shard, and the
// respawned (honest) session must still produce the direct run's cells
// within the same per-item `timeout_seconds`.
void expect_sabotage_recovered(const char* tag, const std::string& sabotage_template,
                               double timeout_seconds = 60) {
  const std::string dir = make_test_dir(tag);
  std::string sabotage = sabotage_template;
  // Materials the saboteur can reference via %DIR%: done.bin is a valid,
  // complete done-record frame for shard 1/3; bad.bin is the same frame with
  // one payload bit flipped (framing intact, checksum wrong).
  const std::string done_frame =
      support::wire_frame(encode_done(exp::Shard{1, 3}, "ignored.json", false, 2));
  write_file(dir + "/done.bin", done_frame);
  std::string corrupt = done_frame;
  corrupt[corrupt.size() - 4] ^= 0x01;  // payload bit flip: checksum mismatch
  write_file(dir + "/bad.bin", corrupt);
  for (std::string::size_type pos; (pos = sabotage.find("%DIR%")) != std::string::npos;) {
    sabotage.replace(pos, 5, dir);
  }

  DispatchConfig config = test_config(dir, 1, 3);
  config.timeout_seconds = timeout_seconds;
  const auto start = std::chrono::steady_clock::now();
  const DispatchResult result =
      dispatch_sweep(session_sweep(), saboteur_command(dir, sabotage), Transport(), config);
  ASSERT_TRUE(result.ok) << tag << ": " << (result.failures.empty()
                                                ? "?"
                                                : result.failures.front().reason);
  EXPECT_GE(result.retried, 1U) << tag;
  EXPECT_EQ(result.cells, session_direct_cells()) << tag;
  // Recovery never waits the saboteur out (a hung one sleeps for 30 s).
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(20)) << tag;
  // The sabotage answered a real assignment, not a leftover handshake line.
  std::string record = read_file(dir + "/assign.rec");
  ASSERT_TRUE(record.ends_with('\n')) << tag << ": '" << record << "'";
  record.pop_back();
  const SessionMessage assign = decode_session_message(record);
  EXPECT_EQ(assign.type, SessionMessage::Type::kAssign) << tag;
  EXPECT_EQ(assign.shard.index, 1U) << tag;
}

TEST(Sessions, TruncatedFrameTearsDownSessionAndShardIsRetried) {
  // Half a done record, then EOF — the mid-record truncation signature.
  expect_sabotage_recovered("wire_truncated", "head -c 20 \"%DIR%/done.bin\"");
}

TEST(Sessions, ChecksumMismatchTearsDownSessionAndShardIsRetried) {
  expect_sabotage_recovered("wire_checksum", "cat \"%DIR%/bad.bin\"");
}

TEST(Sessions, GarbageLineTearsDownSessionAndShardIsRetried) {
  expect_sabotage_recovered("wire_garbage", "echo 'stray printf all over the protocol stream'");
}

TEST(Sessions, OversizedRecordTearsDownSessionAndShardIsRetried) {
  // A header promising a 99 MB record: rejected on sight, not buffered.
  expect_sabotage_recovered("wire_oversized",
                            "printf 'cicmon-wire-1 99999999 0123456789abcdef\\n'");
}

TEST(Sessions, WorkerSigkilledMidRecordIsRetried) {
  expect_sabotage_recovered("wire_sigkill",
                            "head -c 20 \"%DIR%/done.bin\"\nkill -9 $$");
}

TEST(Sessions, HungWorkerTimesOutAndTheShardIsRetried) {
  // No answer at all: the assignment deadline tears the session down, and the
  // respawned worker's handshake and shards fit the same 1 s deadline.
  expect_sabotage_recovered("wire_hung", "exec sleep 30", /*timeout_seconds=*/1.0);
}

TEST(Sessions, AckedInvalidArtifactIsRetried) {
  // A done ack for a truncated artifact: the merge-time checks, not the ack,
  // decide, so the shard is retried and the real worker rewrites the file.
  expect_sabotage_recovered("wire_invalid_artifact",
                            "printf '{\"schema\": \"cicmon-shard-v2\", \"swee' > "
                            "\"%DIR%/artifacts/table1-1of3.shard.json\"\n"
                            "cat \"%DIR%/done.bin\"");
}

TEST(Sessions, ExhaustedBudgetReportsFailureAndKeepsPeersResumable) {
  const std::string dir = make_test_dir("sessions_exhausted");
  // No retries: the saboteur's exit spends shard 1/3's only attempt, and the
  // replacement session completes the other two shards.
  const DispatchResult result =
      dispatch_sweep(session_sweep(), saboteur_command(dir, "exit 7"), Transport(),
                     test_config(dir, 1, 3, /*retries=*/0));
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.cells.size(), 0U);
  ASSERT_EQ(result.failures.size(), 1U);
  EXPECT_EQ(result.failures[0].item.shard.index, 1U);
  EXPECT_EQ(result.failures[0].item.shard.count, 3U);
  EXPECT_EQ(result.failures[0].item.attempts, 1U);
  EXPECT_NE(result.failures[0].reason.find("exit code 7"), std::string::npos)
      << result.failures[0].reason;

  // The completed shards left valid artifacts behind: a re-dispatch with an
  // honest worker resumes them and runs only the failed shard. Three slots,
  // so a resume pre-pass that missed them would spawn three sessions.
  const DispatchResult fixed = dispatch_sweep(session_sweep(), cli_worker_command(),
                                              Transport(), test_config(dir, 3, 3));
  ASSERT_TRUE(fixed.ok);
  EXPECT_EQ(fixed.reused, 2U);
  EXPECT_EQ(fixed.launched, 1U);
  EXPECT_EQ(fixed.cells, session_direct_cells());
}

TEST(Sessions, ProtocolVersionSkewIsASetupErrorNotARetryLoop) {
  const std::string dir = make_test_dir("sessions_protocol");
  const exp::SweepSpec spec = session_sweep();
  // A "worker" from the future: hello with protocol 99, every launch.
  std::string hello = encode_hello(spec.sweep, "");
  const std::string current = "\"protocol\": " + std::to_string(kSessionProtocolVersion);
  const std::string::size_type pos = hello.find(current);
  ASSERT_NE(pos, std::string::npos);
  hello.replace(pos, current.size(), "\"protocol\": 99");
  std::ofstream out(dir + "/hello.bin", std::ios::binary);
  out << support::wire_frame(hello);
  out.close();
  const std::string path = dir + "/future.sh";
  write_file(path, "cat \"" + dir + "/hello.bin\"\nread ignored\nexit 0\n");
  // retries+1 consecutive handshake failures = the worker command is broken.
  EXPECT_THROW(dispatch_sweep(spec, {"/bin/sh", path}, Transport(), test_config(dir, 1, 3)),
               support::CicError);
}

TEST(Sessions, SpecSkewedWorkerFailsTheHandshake) {
  const std::string dir = make_test_dir("sessions_skew");
  // A real worker, wrong flags: derives table1 at another scale, so its
  // hello reports different params — caught before any shard is wasted.
  EXPECT_THROW(dispatch_sweep(session_sweep(),
                              {CICMON_CLI_PATH, "worker", "table1", "--scale", "0.5"},
                              Transport(), test_config(dir, 1, 3)),
               support::CicError);
}

TEST(Sessions, TemplateTransportCarriesSessionsWhenItForwardsStdio) {
  // The ssh-style case: the template wraps the session command once per
  // worker slot and forwards stdio, so a multi-host fleet gets persistent
  // sessions (and golden shipping).
  const std::string dir = make_test_dir("sessions_template");
  const Transport transport("echo launched >> " + dir + "/launches.txt && {cmd}");
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.launched, 2U);  // one session per slot serves all five shards
  EXPECT_EQ(result.cells, session_direct_cells());
  EXPECT_TRUE(std::filesystem::exists(dir + "/launches.txt"));
}

TEST(Sessions, GoldenKeySkewDowngradesShippingNotTheWorker) {
  // The orchestrator has golden state but the worker's hello reports a
  // different (here: empty — table1 ships nothing) key: the offer is
  // withheld, the worker derives locally, and the run still merges to the
  // direct cells. Skew must never look like a broken worker.
  const std::string dir = make_test_dir("sessions_keyskew");
  DispatchConfig config = test_config(dir, 2, 4);
  config.golden = std::make_shared<GoldenShipment>(
      make_golden_shipment("1234567890abcdef", "not-a-real-golden-blob"));
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), Transport(), config);
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.golden_shipped, 0U);
  EXPECT_EQ(result.cells, session_direct_cells());
}

// --- the real CLI end to end: golden shipping on the dispatch path ---------

int run_cli(const std::string& shell_command) {
  return support::spawn_process({"/bin/sh", "-c", shell_command}).wait();
}

// One tiny campaign, used by every CLI-level test below.
std::string campaign_flags() {
  return " --workload bitcount --scale 0.02 --site memory-text --trials 48 --seed 9";
}

// One counter of a `--metrics json` sidecar (throws when it is absent).
std::uint64_t metrics_counter(const std::string& path, const std::string& name) {
  return support::parse_json(read_file(path)).at("counters").at(name).as_u64();
}

TEST(Cli, DispatchedCampaignGoldenShippingIsByteIdenticalToTheDirectRun) {
  const std::string dir = make_test_dir("cli_golden");
  const std::string cli = CICMON_CLI_PATH;
  ASSERT_TRUE(support::exit_ok(run_cli(cli + " campaign" + campaign_flags() +
                                       " --jobs 1 --metrics json --metrics-out " + dir +
                                       "/direct.json > " + dir + "/direct.txt 2>/dev/null")));
  const std::string direct = read_file(dir + "/direct.txt");
  ASSERT_FALSE(direct.empty());

  // Both workers take the wire shipment instead of paying a golden run.
  ASSERT_TRUE(support::exit_ok(run_cli(
      cli + " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet" +
      " --dir " + dir + "/a1 > " + dir + "/ship.txt 2> " + dir + "/ship.err")));
  EXPECT_EQ(read_file(dir + "/ship.txt"), direct);
  EXPECT_NE(read_file(dir + "/ship.err").find("golden 2 shipped/0 derived"), std::string::npos)
      << read_file(dir + "/ship.err");

  // Golden cursors, trial machines and the text walk run per shard and
  // thread, so only an unsplit run repeats the direct run's engine work: one
  // worker running the one shard at --jobs 1 imports the shipped golden
  // state, and its trials translate and chain exactly what the direct run's
  // trials do.
  ASSERT_TRUE(support::exit_ok(run_cli(
      cli + " dispatch campaign" + campaign_flags() + " --workers 1 --shards 1 --jobs 1" +
      " --quiet --metrics json --metrics-out " + dir + "/one.json --dir " + dir + "/a0 > " +
      dir + "/one.txt 2> " + dir + "/one.err")));
  EXPECT_EQ(read_file(dir + "/one.txt"), direct);
  EXPECT_NE(read_file(dir + "/one.err").find("golden 1 shipped/0 derived"), std::string::npos)
      << read_file(dir + "/one.err");
  for (const std::string counter : {"engine.tcache.translations", "engine.chain.follows"}) {
    const std::uint64_t want = metrics_counter(dir + "/direct.json", counter);
    EXPECT_GT(want, 0U) << counter;
    EXPECT_EQ(metrics_counter(dir + "/one.json", "fleet." + counter), want) << counter;
  }

  // Cross-engine: the key excludes the engine, so switch workers take a
  // threaded orchestrator's blob, and threaded workers take a switch
  // orchestrator's blob.
  const std::pair<const char*, const char*> legs[] = {
      {"switch-workers", " --transport '{cmd} --engine switch'"},
      {"threaded-workers", " --engine switch --transport '{cmd} --engine threaded'"}};
  for (const auto& [tag, engines] : legs) {
    const std::string out = dir + "/" + tag;
    ASSERT_TRUE(support::exit_ok(run_cli(
        cli + " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet" +
        engines + " --dir " + out + " > " + out + ".txt 2> " + out + ".err")));
    EXPECT_EQ(read_file(out + ".txt"), direct) << tag;
    EXPECT_NE(read_file(out + ".err").find("golden 2 shipped/0 derived"), std::string::npos)
        << tag << ": " << read_file(out + ".err");
  }

  // Key skew: the template gives every worker --checkpoints off, so its
  // golden key differs from the orchestrator's, no offer goes out, and both
  // workers derive locally — still byte-identical output.
  ASSERT_TRUE(support::exit_ok(run_cli(
      cli + " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet" +
      " --transport '{cmd} --checkpoints off' --dir " + dir + "/a2 > " + dir +
      "/skew.txt 2> " + dir + "/skew.err")));
  EXPECT_EQ(read_file(dir + "/skew.txt"), direct);
  EXPECT_NE(read_file(dir + "/skew.err").find("golden 0 shipped/2 derived"), std::string::npos)
      << read_file(dir + "/skew.err");
}

TEST(Cli, MalformedGoldenScheduleIsRejectedAndTheWorkerDerivesLocally) {
  // A golden blob with a valid checksum and the worker's own key, whose
  // snapshot schedule lacks snapshot 0. (The GoldenSer tests cover every
  // malformed schedule at the import; one is enough to drive the worker's
  // fallback.) The real worker must reject it, say so, derive locally, and
  // still produce the direct cells. The orchestrator side is built as
  // `cicmon dispatch` builds it for campaign_flags(); if it drifted from the
  // CLI, the handshake would fail or no offer would go out, and the
  // rejection line below would be missing.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig machine;
  machine.monitoring = true;
  machine.cic.iht_entries = 16;
  const fault::CampaignRunner runner(image, machine);
  exp::SweepSpec spec = runner.sweep(fault::FaultSite::kMemoryText, 1, 48, 9);
  spec.params.emplace_back("workload", "bitcount");
  spec.params.emplace_back("scale", exp::fmt_f64(0.02));
  spec.params.emplace_back("monitor", "on");
  spec.params.emplace_back("golden_instructions", std::to_string(runner.golden_instructions()));
  const std::string key = fault::golden_key(
      {{"workload", "bitcount"}, {"scale", exp::fmt_f64(0.02)}, {"site", "memory-text"},
       {"bits", "1"}, {"trials", "48"}, {"seed", "9"}, {"monitor", "on"},
       {"checkpoints", "on"}});
  const std::string flags = campaign_flags();
  std::vector<std::string> worker = {CICMON_CLI_PATH, "worker", "campaign"};
  for (const std::string_view flag : support::split(flags, " ")) worker.emplace_back(flag);

  fault::GoldenState state = runner.export_golden();
  ASSERT_GE(state.snapshots.size(), 2U);
  state.snapshots.erase(state.snapshots.begin());
  const std::string dir = make_test_dir("cli_bad_schedule");
  DispatchConfig config = test_config(dir, 1, 2);
  config.golden = std::make_shared<GoldenShipment>(
      make_golden_shipment(key, fault::encode_golden(state, key)));
  const DispatchResult result =
      dispatch_sweep(spec, worker, Transport("{cmd} 2>> " + dir + "/worker.err"), config);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.golden_shipped, 0U);
  EXPECT_EQ(result.golden_derived, 1U);
  EXPECT_EQ(result.cells, exp::run_all(spec, 1));
  const std::string log = read_file(dir + "/worker.err");
  EXPECT_NE(log.find("shipped golden state rejected (golden snapshot schedule"),
            std::string::npos)
      << log;
}

TEST(Cli, WorkerKilledMidGoldenChunkIsReplacedAndStillMergesByteIdentical) {
  const std::string dir = make_test_dir("cli_golden_kill");
  const std::string cli = CICMON_CLI_PATH;
  ASSERT_TRUE(support::exit_ok(
      run_cli(cli + " campaign" + campaign_flags() + " > " + dir + "/direct.txt 2>/dev/null")));
  // The first worker to have a golden chunk in hand SIGKILLs itself
  // mid-stream; the orchestrator must tear that session down (handshake
  // failure, not a lost shard) and the replacement worker finishes the run.
  ASSERT_TRUE(support::exit_ok(run_cli(
      "CICMON_WORKER_FLAKY_GOLDEN=1 CICMON_WORKER_FLAKY_MARKER=" + dir + "/markers " + cli +
      " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet --dir " +
      dir + "/a1 > " + dir + "/killed.txt 2> " + dir + "/killed.err")));
  EXPECT_EQ(read_file(dir + "/killed.txt"), read_file(dir + "/direct.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/markers/golden"))
      << read_file(dir + "/killed.err");
}

TEST(Cli, MalformedNumbersAreUsageErrors) {
  // Every value must parse completely as a number in range. Lenient parsing
  // ran nan/inf scales, read "12abc" as seed 12 and "-1" as seed 2^64 - 1,
  // and skipped leading whitespace and '+'. The paper tables' former
  // standalone binaries took a positional scale and ran "abc" at their
  // default and "0.05xyz" at 0.05, so the scale cases also run against a
  // folded sweep and against table2.
  const std::string cli = CICMON_CLI_PATH;
  for (const std::string bad :
       {"--scale nan", "--scale inf", "--scale 1x", "--seed banana", "--seed 12abc", "--seed -1",
        "--jobs ''", "--trials ' 5'", "--trials +5", "--bits ' 2'", "--scale ' 0.02'",
        "--timeout ' 1'", "--scale abc", "--scale 0.05xyz", "--scale 0", "abc", "0.05xyz"}) {
    const int status = run_cli(cli + " campaign" + campaign_flags() + " " + bad +
                               " > /dev/null 2> /dev/null");
    EXPECT_EQ(support::describe_exit(status), "exit code 2") << bad;
    if (bad.starts_with("--") && !bad.starts_with("--scale ")) continue;
    for (const std::string command : {" ablation-os-cost ", " table2 "}) {
      EXPECT_EQ(support::describe_exit(run_cli(cli + command + bad + " > /dev/null 2> /dev/null")),
                "exit code 2")
          << command << bad;
    }
  }
}

TEST(Dispatch, PlanResolvesCountsAndTheSessionArgv) {
  const exp::SweepSpec spec = synthetic_sweep(10);
  DispatchConfig config;
  config.workers = 3;
  const DispatchPlan plan = plan_dispatch(spec, config);
  EXPECT_EQ(plan.workers, 3U);
  EXPECT_EQ(plan.shards, 10U);  // 4x workers capped at the cell count
  EXPECT_EQ(plan.shards_requested, 0U);  // nothing was asked for
  // An explicit count above the cell count is capped too, and says so; one
  // at or below it stands.
  config.shards = 32;
  const DispatchPlan capped = plan_dispatch(spec, config);
  EXPECT_EQ(capped.shards, 10U);
  EXPECT_EQ(capped.shards_requested, 32U);
  config.shards = 10;
  EXPECT_EQ(plan_dispatch(spec, config).shards, 10U);
  EXPECT_EQ(plan_dispatch(spec, config).shards_requested, 0U);
  config.shards = 4;
  EXPECT_EQ(plan_dispatch(spec, config).shards, 4U);
  EXPECT_EQ(session_worker_argv({"sh", "worker"}, 3),
            (std::vector<std::string>{"sh", "worker", "--jobs", "3"}));
}

TEST(Dispatch, ShardArtifactPathNamesSweepAndCoordinates) {
  EXPECT_EQ(shard_artifact_path("runs", "campaign", exp::Shard{3, 7}),
            "runs/campaign-3of7.shard.json");
}

TEST(Dispatch, RejectsEmptySweepsAndCommands) {
  const exp::SweepSpec empty;
  const Transport transport;
  const DispatchConfig config;
  EXPECT_THROW(dispatch_sweep(empty, {"sh"}, transport, config), support::CicError);
  EXPECT_THROW(dispatch_sweep(synthetic_sweep(3), {}, transport, config), support::CicError);
}

}  // namespace
}  // namespace cicmon::dist
