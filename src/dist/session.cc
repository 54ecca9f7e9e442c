#include "dist/session.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "support/error.h"
#include "support/json.h"

namespace cicmon::dist {
namespace {

const char* type_name(SessionMessage::Type type) {
  switch (type) {
    case SessionMessage::Type::kHello: return "hello";
    case SessionMessage::Type::kGoldenOffer: return "golden_offer";
    case SessionMessage::Type::kReady: return "ready";
    case SessionMessage::Type::kAssign: return "assign";
    case SessionMessage::Type::kDone: return "done";
    case SessionMessage::Type::kError: return "error";
    case SessionMessage::Type::kShutdown: return "shutdown";
  }
  return "?";
}

void encode_shard(support::JsonWriter& json, const exp::Shard& shard) {
  json.key("shard");
  json.value_u64(shard.index);
  json.key("shard_count");
  json.value_u64(shard.count);
}

exp::Shard decode_shard(const support::JsonValue& root) {
  try {
    return exp::checked_shard(root.at("shard").as_u64(), root.at("shard_count").as_u64());
  } catch (const support::CicError& error) {
    throw support::CicError(std::string("session record: ") + error.what());
  }
}

std::string finish(support::JsonWriter& json) {
  json.end_object();
  return json.take();
}

support::JsonWriter begin(const char* type) {
  support::JsonWriter json;
  json.begin_object();
  json.key("type");
  json.value(type);
  return json;
}

// The deterministic worker-death hook (see serve_worker's contract). Returns
// only when this assignment is not the sabotage target; otherwise the
// process dies mid-record and never comes back.
void maybe_die_mid_record(const exp::Shard& shard) {
  const char* target = std::getenv("CICMON_WORKER_FLAKY");
  const char* marker_dir = std::getenv("CICMON_WORKER_FLAKY_MARKER");
  if (target == nullptr || marker_dir == nullptr) return;
  const std::string text = std::to_string(shard.index) + "/" + std::to_string(shard.count);
  if (text != target) return;
  std::error_code ec;
  std::filesystem::create_directories(marker_dir, ec);
  const std::string marker = std::string(marker_dir) + "/" + std::to_string(shard.index) +
                             "of" + std::to_string(shard.count);
  // O_EXCL: only the first worker to reach the shard sabotages; the retry
  // (and every later run against the same marker directory) behaves.
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;
  ::close(fd);
  const std::string frame = support::wire_frame(encode_done(shard, "", false, 0));
  support::write_all(STDOUT_FILENO, std::string_view(frame).substr(0, frame.size() / 2));
  ::raise(SIGKILL);
}

// The deterministic mid-golden-chunk death hook: the first worker (across
// every process sharing the marker directory) to have a golden chunk in hand
// dies on the spot, so the orchestrator's chunk write or its wait for the
// ready record fails and the session teardown/retry path runs for real.
void maybe_die_mid_golden_chunk() {
  const char* flag = std::getenv("CICMON_WORKER_FLAKY_GOLDEN");
  const char* marker_dir = std::getenv("CICMON_WORKER_FLAKY_MARKER");
  if (flag == nullptr || marker_dir == nullptr || std::strcmp(flag, "1") != 0) return;
  std::error_code ec;
  std::filesystem::create_directories(marker_dir, ec);
  const std::string marker = std::string(marker_dir) + "/golden";
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;
  ::close(fd);
  ::raise(SIGKILL);
}

// Blocking frame reads over this process's stdin, for the worker side.
// kRecord hands back one complete payload; kEof is a clean end of input
// (call has_partial() to tell orderly close from mid-record death); kDead
// covers framing violations and read errors, already reported on stderr.
class StdinFrames {
 public:
  enum class Status : std::uint8_t { kRecord, kEof, kDead };

  Status next(std::string* payload) {
    char buffer[4096];
    while (true) {
      std::string error;
      const support::FrameReader::Status status = reader_.next(payload, &error);
      if (status == support::FrameReader::Status::kBad) {
        std::fprintf(stderr, "cicmon worker: bad frame from orchestrator: %s\n",
                     error.c_str());
        return Status::kDead;
      }
      if (status == support::FrameReader::Status::kFrame) return Status::kRecord;
      const ssize_t got = ::read(STDIN_FILENO, buffer, sizeof buffer);
      if (got < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "cicmon worker: read failed: %s\n", std::strerror(errno));
        return Status::kDead;
      }
      if (got == 0) return Status::kEof;
      reader_.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
    }
  }

  bool has_partial() const { return reader_.has_partial(); }

 private:
  support::FrameReader reader_;
};

}  // namespace

std::string encode_hello(const std::string& sweep, const std::string& golden_key) {
  support::JsonWriter json = begin("hello");
  json.key("protocol");
  json.value_u64(kSessionProtocolVersion);
  json.key("sweep");
  json.value(sweep);
  json.key("golden_key");
  json.value(golden_key);
  return finish(json);
}

std::string encode_golden_offer(const std::string& key, std::uint64_t bytes,
                                std::uint64_t chunks) {
  support::JsonWriter json = begin("golden_offer");
  json.key("key");
  json.value(key);
  json.key("bytes");
  json.value_u64(bytes);
  json.key("chunks");
  json.value_u64(chunks);
  return finish(json);
}

std::string encode_ready(const exp::SweepSpec& spec, const std::string& golden_source) {
  support::JsonWriter json = begin("ready");
  json.key("sweep");
  json.value(spec.sweep);
  json.key("cells");
  json.value_u64(spec.cells);
  json.key("params");
  json.begin_object();
  for (const auto& [name, value] : spec.params) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("golden");
  json.value(golden_source);
  return finish(json);
}

std::string encode_assign(const exp::Shard& shard, const std::string& out, bool force) {
  support::JsonWriter json = begin("assign");
  encode_shard(json, shard);
  json.key("out");
  json.value(out);
  json.key("force");
  json.value(force);
  return finish(json);
}

std::string encode_done(const exp::Shard& shard, const std::string& out, bool reused,
                        std::uint64_t wall_ms,
                        const std::vector<std::pair<std::string, std::uint64_t>>& metrics) {
  support::JsonWriter json = begin("done");
  encode_shard(json, shard);
  json.key("out");
  json.value(out);
  json.key("reused");
  json.value(reused);
  json.key("wall_ms");
  json.value_u64(wall_ms);
  if (!metrics.empty()) {
    json.key("metrics");
    json.begin_object();
    for (const auto& [name, value] : metrics) {
      json.key(name);
      json.value_u64(value);
    }
    json.end_object();
  }
  return finish(json);
}

std::string encode_session_error(const exp::Shard& shard, const std::string& message) {
  support::JsonWriter json = begin("error");
  encode_shard(json, shard);
  json.key("message");
  json.value(message);
  return finish(json);
}

std::string encode_shutdown() {
  support::JsonWriter json = begin("shutdown");
  return finish(json);
}

SessionMessage decode_session_message(std::string_view payload) {
  support::JsonValue root;
  try {
    root = support::parse_json(payload);
  } catch (const support::CicError& error) {
    throw support::CicError(std::string("session record is not valid JSON: ") + error.what());
  }
  SessionMessage msg;
  const std::string& type = root.at("type").as_string();
  if (type == "hello") {
    msg.type = SessionMessage::Type::kHello;
    msg.protocol = root.at("protocol").as_u64();
    msg.sweep = root.at("sweep").as_string();
    msg.golden_key = root.at("golden_key").as_string();
  } else if (type == "golden_offer") {
    msg.type = SessionMessage::Type::kGoldenOffer;
    msg.offer_key = root.at("key").as_string();
    msg.golden_bytes = root.at("bytes").as_u64();
    msg.golden_chunks = root.at("chunks").as_u64();
    support::check(msg.offer_key.empty() == (msg.golden_chunks == 0),
                   "golden_offer key and chunk count disagree");
  } else if (type == "ready") {
    msg.type = SessionMessage::Type::kReady;
    msg.sweep = root.at("sweep").as_string();
    msg.cells = root.at("cells").as_u64();
    for (const auto& [name, value] : root.at("params").as_object()) {
      msg.params.emplace_back(name, value.as_string());
    }
    msg.golden_source = root.at("golden").as_string();
  } else if (type == "assign") {
    msg.type = SessionMessage::Type::kAssign;
    msg.shard = decode_shard(root);
    msg.artifact_path = root.at("out").as_string();
    msg.force = root.at("force").as_bool();
  } else if (type == "done") {
    msg.type = SessionMessage::Type::kDone;
    msg.shard = decode_shard(root);
    msg.artifact_path = root.at("out").as_string();
    msg.reused = root.at("reused").as_bool();
    msg.wall_ms = root.at("wall_ms").as_u64();
    // Additive v2 field: absent in records from pre-telemetry peers.
    if (const support::JsonValue* metrics = root.find("metrics")) {
      for (const auto& [name, value] : metrics->as_object()) {
        msg.metrics.emplace_back(name, value.as_u64());
      }
    }
  } else if (type == "error") {
    msg.type = SessionMessage::Type::kError;
    msg.shard = decode_shard(root);
    msg.message = root.at("message").as_string();
  } else if (type == "shutdown") {
    msg.type = SessionMessage::Type::kShutdown;
  } else {
    throw support::CicError("unknown session record type '" + type + "'");
  }
  return msg;
}

std::string hello_mismatch(const SessionMessage& hello, const exp::SweepSpec& spec) {
  if (hello.protocol != kSessionProtocolVersion) {
    return "worker speaks session protocol v" + std::to_string(hello.protocol) +
           ", this orchestrator speaks v" + std::to_string(kSessionProtocolVersion);
  }
  if (hello.sweep != spec.sweep) {
    return "worker serves sweep '" + hello.sweep + "', expected '" + spec.sweep + "'";
  }
  return "";
}

std::string ready_mismatch(const SessionMessage& ready, const exp::SweepSpec& spec) {
  if (ready.sweep != spec.sweep) {
    return "worker derived sweep '" + ready.sweep + "', expected '" + spec.sweep + "'";
  }
  if (ready.cells != spec.cells) {
    return "worker derived " + std::to_string(ready.cells) + " cells, expected " +
           std::to_string(spec.cells);
  }
  if (ready.params != spec.params) {
    return "worker derived different sweep parameters (flag round-trip mismatch)";
  }
  return "";
}

GoldenShipment make_golden_shipment(std::string key, std::string_view blob) {
  GoldenShipment shipment;
  shipment.key = std::move(key);
  shipment.bytes = blob.size();
  for (const std::string& payload : support::chunk_payloads(blob)) {
    shipment.frames.push_back(support::wire_frame(payload));
  }
  return shipment;
}

// --- worker side ---------------------------------------------------------

int serve_worker(const WorkerSweepSource& source, unsigned jobs) {
  if (!support::write_all(STDOUT_FILENO,
                          support::wire_frame(encode_hello(source.sweep, source.golden_key)))) {
    std::fprintf(stderr, "cicmon worker: cannot write the hello record\n");
    return 1;
  }
  StdinFrames frames;
  std::string payload;

  // Golden exchange: the offer, then exactly offer.golden_chunks chunk frames.
  StdinFrames::Status status = frames.next(&payload);
  if (status == StdinFrames::Status::kDead) return 1;
  if (status == StdinFrames::Status::kEof) {
    if (frames.has_partial()) {
      std::fprintf(stderr, "cicmon worker: orchestrator died mid-record\n");
      return 1;
    }
    return 0;  // orchestrator left before offering anything; nothing lost
  }
  SessionMessage offer;
  try {
    offer = decode_session_message(payload);
  } catch (const support::CicError& err) {
    std::fprintf(stderr, "cicmon worker: %s\n", err.what());
    return 1;
  }
  if (offer.type == SessionMessage::Type::kShutdown) return 0;
  if (offer.type != SessionMessage::Type::kGoldenOffer) {
    std::fprintf(stderr, "cicmon worker: expected golden_offer, got %s\n",
                 type_name(offer.type));
    return 1;
  }
  std::string shipped;
  bool have_shipped = false;
  if (offer.golden_chunks > 0) {
    // Drain every promised chunk even if one is corrupt: the stream position
    // must stay in sync for the records that follow. Corruption downgrades
    // to local derivation, it does not kill the session.
    support::ChunkAssembler assembler;
    std::string chunk_error;
    for (std::uint64_t i = 0; i < offer.golden_chunks; ++i) {
      status = frames.next(&payload);
      if (status != StdinFrames::Status::kRecord) {
        if (status == StdinFrames::Status::kEof) {
          std::fprintf(stderr, "cicmon worker: orchestrator went away mid-golden-chunk\n");
        }
        return 1;
      }
      if (!payload.starts_with(support::kChunkMagic)) {
        // A session record where a chunk was promised: the streams are out
        // of sync and nothing after this point can be trusted.
        std::fprintf(stderr, "cicmon worker: expected a golden chunk, got another record\n");
        return 1;
      }
      maybe_die_mid_golden_chunk();
      if (chunk_error.empty()) {
        std::string err;
        if (assembler.feed(payload, &err) == support::ChunkAssembler::Status::kBad) {
          chunk_error = err;
        }
      }
    }
    if (chunk_error.empty()) {
      shipped = assembler.blob();
      have_shipped = true;
    } else {
      std::fprintf(stderr, "cicmon worker: golden shipment rejected (%s); deriving locally\n",
                   chunk_error.c_str());
    }
  }

  // Derivation: import the shipped state or fall back to doing the work.
  std::string golden_source;
  exp::SweepSpec spec;
  try {
    spec = source.derive(have_shipped ? &shipped : nullptr, &golden_source);
  } catch (const support::CicError& err) {
    std::fprintf(stderr, "cicmon worker: cannot derive the sweep: %s\n", err.what());
    return 1;
  }
  if (!support::write_all(STDOUT_FILENO,
                          support::wire_frame(encode_ready(spec, golden_source)))) {
    std::fprintf(stderr, "cicmon worker: orchestrator went away\n");
    return 1;
  }

  // Serve assignments until shutdown or EOF.
  std::size_t served = 0;
  while (true) {
    status = frames.next(&payload);
    if (status == StdinFrames::Status::kDead) return 1;
    if (status == StdinFrames::Status::kEof) {
      // Orchestrator closed our stdin: the clean "no more work" signal.
      if (frames.has_partial()) {
        std::fprintf(stderr, "cicmon worker: orchestrator died mid-record\n");
        return 1;
      }
      return 0;
    }
    SessionMessage msg;
    try {
      msg = decode_session_message(payload);
    } catch (const support::CicError& err) {
      std::fprintf(stderr, "cicmon worker: %s\n", err.what());
      return 1;
    }
    if (msg.type == SessionMessage::Type::kShutdown) {
      std::fprintf(stderr, "cicmon worker: served %zu shard(s), shutting down\n", served);
      return 0;
    }
    if (msg.type != SessionMessage::Type::kAssign) {
      std::fprintf(stderr, "cicmon worker: unexpected %s record\n", type_name(msg.type));
      return 1;
    }
    maybe_die_mid_record(msg.shard);
    std::string ack;
    try {
      bool reused = false;
      // Per-assignment counter deltas ride the done record so the
      // orchestrator can fold worker-side engine/campaign activity into its
      // fleet totals. All parallel work joins inside run_or_load_shard, so
      // the after-snapshot observes every bump from this assignment.
      const std::vector<std::uint64_t> before = obs::counter_values();
      const auto started = std::chrono::steady_clock::now();
      exp::run_or_load_shard(spec, msg.shard, jobs, msg.artifact_path, msg.force, &reused);
      const auto wall = std::chrono::steady_clock::now() - started;
      const auto wall_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(wall).count());
      ack = encode_done(msg.shard, msg.artifact_path, reused, wall_ms,
                        obs::counter_delta(before));
      ++served;
    } catch (const support::CicError& err) {
      // A shard-level failure is the orchestrator's retry decision, not a
      // reason to lose the session (and the golden state it amortises).
      ack = encode_session_error(msg.shard, err.what());
    }
    if (!support::write_all(STDOUT_FILENO, support::wire_frame(ack))) {
      std::fprintf(stderr, "cicmon worker: orchestrator went away\n");
      return 1;
    }
  }
}

// --- orchestrator side -----------------------------------------------------

WorkerSession::WorkerSession(support::ChildProcess child, const GoldenShipment* golden,
                             Clock::time_point deadline, double grace_seconds)
    : child_(std::move(child)), golden_(golden), deadline_(deadline),
      grace_seconds_(grace_seconds) {}

WorkItem WorkerSession::take_item() {
  support::check(has_item_, "take_item on a session with no assignment");
  has_item_ = false;
  return std::move(item_);
}

bool WorkerSession::assign(WorkItem& item, bool force, Clock::time_point deadline) {
  support::check(state_ == State::kIdle, "assign on a session that is not idle");
  const std::string frame =
      support::wire_frame(encode_assign(item.shard, item.artifact_path, force));
  if (!support::write_all(child_.stdin_fd(), frame)) {
    // The pipe is gone; `item` is untouched and stays with the caller.
    // Reap quietly — the process is dead or dying.
    child_.terminate_gracefully(grace_seconds_);
    state_ = State::kDead;
    return false;
  }
  item_ = std::move(item);
  has_item_ = true;
  deadline_ = deadline;
  state_ = State::kBusy;
  return true;
}

WorkerSession::Event WorkerSession::fail(std::string reason) {
  if (child_.valid()) {
    const int status = child_.terminate_gracefully(grace_seconds_);
    reason += " (" + support::describe_exit(status) + ")";
  }
  state_ = State::kDead;
  Event event;
  event.kind = Event::Kind::kFailed;
  event.reason = std::move(reason);
  return event;
}

WorkerSession::Event WorkerSession::pump(const exp::SweepSpec& spec, Clock::time_point now) {
  if (state_ == State::kDead) return {};
  std::string bytes;
  const bool open = support::read_available(child_.stdout_fd(), &bytes);
  reader_.feed(bytes);

  std::string payload;
  std::string error;
  while (true) {
    const support::FrameReader::Status status = reader_.next(&payload, &error);
    if (status == support::FrameReader::Status::kBad) {
      return fail("protocol violation: " + error);
    }
    if (status == support::FrameReader::Status::kNeedMore) break;

    SessionMessage msg;
    try {
      msg = decode_session_message(payload);
    } catch (const support::CicError& err) {
      return fail(std::string("protocol violation: ") + err.what());
    }
    switch (state_) {
      case State::kHandshaking: {
        if (msg.type != SessionMessage::Type::kHello) {
          return fail(std::string("expected hello, got ") + type_name(msg.type));
        }
        if (std::string why = hello_mismatch(msg, spec); !why.empty()) {
          return fail("handshake rejected: " + std::move(why));
        }
        // Offer the shipment only when the worker computes the same canonical
        // key: skew (different binary, different flags) downgrades to local
        // derivation on the worker's side of the wire.
        const bool offered = golden_ != nullptr && !golden_->empty() &&
                             !msg.golden_key.empty() && msg.golden_key == golden_->key;
        const std::string frame = support::wire_frame(
            offered ? encode_golden_offer(golden_->key, golden_->bytes,
                                          golden_->frames.size())
                    : encode_golden_offer("", 0, 0));
        if (!support::write_all(child_.stdin_fd(), frame)) {
          return fail("worker went away before the golden offer");
        }
        if (offered) {
          // Blocking writes: the whole shipment streams here. A worker that
          // dies mid-stream surfaces as a failed write (EPIPE) and the
          // session is torn down with nothing in flight.
          for (const std::string& chunk : golden_->frames) {
            if (!support::write_all(child_.stdin_fd(), chunk)) {
              return fail("worker died mid-golden-chunk");
            }
          }
        }
        state_ = State::kDeriving;
        continue;
      }
      case State::kDeriving: {
        if (msg.type != SessionMessage::Type::kReady) {
          return fail(std::string("expected ready, got ") + type_name(msg.type));
        }
        if (std::string why = ready_mismatch(msg, spec); !why.empty()) {
          return fail("handshake rejected: " + std::move(why));
        }
        state_ = State::kIdle;
        deadline_ = Clock::time_point::max();  // idle has no deadline; assign() sets one
        Event event;
        event.kind = Event::Kind::kReady;
        event.golden = msg.golden_source;
        return event;  // leftover buffered frames (babble) surface next pump
      }
      case State::kIdle:
        return fail(std::string("unexpected ") + type_name(msg.type) +
                    " record from an idle worker");
      case State::kBusy: {
        if (msg.type == SessionMessage::Type::kDone || msg.type == SessionMessage::Type::kError) {
          if (msg.shard.index != item_.shard.index || msg.shard.count != item_.shard.count) {
            return fail(std::string(type_name(msg.type)) + " ack for shard " +
                            std::to_string(msg.shard.index) + "/" +
                            std::to_string(msg.shard.count) + ", expected " +
                            std::to_string(item_.shard.index) + "/" +
                            std::to_string(item_.shard.count));
          }
          state_ = State::kIdle;
          deadline_ = Clock::time_point::max();  // the assignment's deadline dies with it
          Event event;
          if (msg.type == SessionMessage::Type::kDone) {
            event.kind = Event::Kind::kDone;
            event.reused = msg.reused;
            event.wall_ms = msg.wall_ms;
            event.metrics = std::move(msg.metrics);
          } else {
            event.kind = Event::Kind::kError;
            event.reason = "worker reported: " + msg.message;
          }
          return event;
        }
        return fail(std::string("expected done/error, got ") + type_name(msg.type));
      }
      case State::kDead:
        return {};
    }
  }

  if (!open) {
    // EOF after draining every complete frame: the worker is gone. A partial
    // frame left behind is the mid-record death signature.
    return fail(reader_.has_partial() ? "worker died mid-record"
                                     : "worker closed the session");
  }
  if (now >= deadline_) {
    return fail(pre_ready() ? "handshake timed out" : "assignment timed out");
  }
  return {};
}

void WorkerSession::shutdown(double grace_seconds) {
  if (state_ == State::kDead) return;
  if (child_.valid()) {
    // Every live worker reads a record next — the offer slot accepts a
    // shutdown too, and a shipment is always written out in full before the
    // session leaves kHandshaking — so the shutdown record is the polite exit.
    support::write_all(child_.stdin_fd(), support::wire_frame(encode_shutdown()));
    // One bounded budget, escalating: stdin EOF is the polite exit signal
    // (a healthy worker is gone in milliseconds), SIGTERM fires halfway
    // through the grace window, SIGKILL ends it. Never more than
    // `grace_seconds` of blocking per session, even for a wedged worker.
    child_.close_stdin();
    auto after = [](double seconds) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds));
    };
    const Clock::time_point start = Clock::now();
    const Clock::time_point term_at = start + after(grace_seconds / 2);
    const Clock::time_point kill_at = start + after(grace_seconds);
    int status = 0;
    bool exited = false;
    bool termed = false;
    while (!(exited = child_.poll(&status))) {
      const Clock::time_point now = Clock::now();
      if (now >= kill_at) break;
      if (!termed && now >= term_at) {
        child_.kill_soft();
        termed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited) {
      child_.kill_hard();
      child_.wait();
    }
  }
  state_ = State::kDead;
}

}  // namespace cicmon::dist
