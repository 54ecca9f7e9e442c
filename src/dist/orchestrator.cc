#include "dist/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "dist/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace cicmon::dist {
namespace {

using Clock = std::chrono::steady_clock;

// The merge-time artifact checks, applied per item the moment its worker
// acks: the file must decode as a cicmon-shard-v2 document (its cell count,
// column lengths and digest catch truncation and tampering) and match
// (spec, shard) exactly (catching a transport that ran the wrong command).
// On success the decoded artifact is handed to `out` so the merge never
// re-reads the file; on failure `why` reports the violation for the retry
// log.
bool artifact_is_valid(const std::string& path, const exp::SweepSpec& spec,
                       const exp::Shard& shard, exp::ShardArtifact* out, std::string* why) {
  try {
    exp::ShardArtifact artifact = exp::load_shard_artifact(path);
    if (exp::artifact_matches(artifact, spec, shard)) {
      *out = std::move(artifact);
      return true;
    }
    *why = "artifact '" + path + "' does not match the sweep parameters";
  } catch (const support::CicError& error) {
    *why = error.what();
  }
  return false;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// One dispatch.shard span per completed assignment: everything the report
// needs to reconstruct the per-worker timeline (who ran it, how long it
// waited in the queue, the worker-measured run wall, resume status).
void trace_shard_span(const WorkItem& item, std::uint64_t worker_id,
                      std::uint64_t assign_t_us, double queue_wait_ms,
                      std::uint64_t wall_ms, bool reused) {
  if (!obs::trace_enabled()) return;
  obs::TraceArgs args;
  args.add("shard", std::to_string(item.shard.index) + "/" +
                        std::to_string(item.shard.count));
  args.add("worker", worker_id);
  args.add("queue_wait_ms", queue_wait_ms);
  args.add("wall_ms", wall_ms);
  args.add("reused", reused);
  obs::trace_span("dispatch.shard", assign_t_us, args);
}

Clock::time_point deadline_after(double seconds) {
  return seconds > 0 ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds))
                     : Clock::time_point::max();
}

// Shared mutable state of one dispatch run: the queue, the streaming merge,
// and the counters the session loop and the resume pre-pass report through.
struct RunState {
  const exp::SweepSpec& spec;
  const DispatchConfig& config;
  const DispatchPlan& plan;
  WorkQueue queue;
  exp::MergeState merge;
  DispatchResult& result;
  Clock::time_point start = Clock::now();
  Clock::time_point last_progress = start;
  std::size_t computed = 0;      // completions that actually ran a worker (for ETA)
  std::size_t resumed_done = 0;  // shards merged by the resume pre-pass (never queued)
  // Fleet-wide counter totals folded from the workers' done.metrics records.
  std::map<std::string, std::uint64_t> fleet;

  RunState(const exp::SweepSpec& spec_, const DispatchConfig& config_,
           const DispatchPlan& plan_, DispatchResult& result_)
      : spec(spec_), config(config_), plan(plan_), queue(config_.retries + 1),
        result(result_) {}

  std::size_t items_done() const { return resumed_done + queue.done(); }

  // One progress/streaming-merge line on stderr, throttled unless forced.
  // Forced on every merged shard, so a long campaign visibly renders
  // incrementally as artifacts land.
  void progress(bool force, std::size_t active) {
    if (!config.progress) return;
    const Clock::time_point now = Clock::now();
    if (!force && now - last_progress < std::chrono::milliseconds(500)) return;
    last_progress = now;
    std::string eta = "?";
    if (computed > 0) {
      const std::size_t remaining =
          plan.shards - items_done() - queue.failures().size();
      eta = std::to_string(static_cast<long>(seconds_since(start) /
                                             static_cast<double>(computed) *
                                             static_cast<double>(remaining))) +
            "s";
    }
    // Before the first artifact lands MergeState knows no totals; show the
    // plan's denominators (the shards that own cells) so the operator never
    // reads "0/0".
    const std::string merged =
        merge.shards_merged() > 0
            ? merge.progress()
            : "0/" + std::to_string(plan.shards) + " shards, 0/" +
                  std::to_string(spec.cells) + " cells (0.0%)";
    std::fprintf(stderr, "dispatch: merged %s | %zu active, %zu reused, %zu retried, ETA %s\n",
                 merged.c_str(), active, result.reused, result.retried, eta.c_str());
  }

  void fail_or_retry(WorkItem item, std::string reason) {
    if (queue.retry(std::move(item), std::move(reason))) {
      static const obs::CounterId k_retries = obs::counter("dispatch.retries");
      obs::bump(k_retries);
      ++result.retried;
    }
  }

  // Books one finished assignment into the telemetry: timers, totals, and
  // the dispatch.shard trace span. `run_ms` is the orchestrator-observed
  // assignment wall; `wall_ms` the worker-measured one.
  void observe_assignment(const WorkItem& item, std::uint64_t worker_id,
                          std::uint64_t assign_t_us, double queue_wait_ms, double run_ms,
                          std::uint64_t wall_ms, bool reused) {
    static const obs::TimerId k_wait = obs::timer("dispatch.queue_wait_ms");
    static const obs::TimerId k_run = obs::timer("dispatch.shard_ms");
    static const obs::CounterId k_assignments = obs::counter("dispatch.assignments");
    obs::record(k_wait, queue_wait_ms);
    obs::record(k_run, run_ms);
    obs::bump(k_assignments);
    result.queue_wait_ms += static_cast<std::uint64_t>(queue_wait_ms);
    result.busy_ms += static_cast<std::uint64_t>(run_ms);
    trace_shard_span(item, worker_id, assign_t_us, queue_wait_ms, wall_ms, reused);
  }

  // A validated artifact for `item` streams straight into the merge.
  void complete(const WorkItem& item, exp::ShardArtifact artifact, bool counts_as_computed,
                std::size_t active) {
    queue.complete(item);
    merge.add(std::move(artifact));
    if (counts_as_computed) ++computed;
    progress(true, active);
  }
};

// One fleet slot: the session plus the orchestrator-side telemetry of its
// current assignment (the session itself only knows protocol state).
struct SessionSlot {
  std::unique_ptr<WorkerSession> session;
  std::uint64_t worker_id = 0;     // launch ordinal, stable across the run
  Clock::time_point assigned_at{}; // when the current assignment went out
  std::uint64_t assign_t_us = 0;   // trace clock at assignment
  double queue_wait_ms = 0.0;      // the current assignment's queue wait
};

void run_sessions(RunState& state, const std::vector<std::string>& worker_argv,
                  const Transport& transport) {
  const std::vector<std::string> command = session_worker_argv(worker_argv, state.plan.jobs);
  std::vector<SessionSlot> sessions;
  sessions.reserve(state.plan.workers);
  // A session that dies before completing a handshake is not tied to any
  // work item, so the per-item retry budget cannot bound it. This counter
  // can: `retries + 1` consecutive handshake failures with no success in
  // between means the worker command itself is broken — a setup error.
  unsigned handshake_failures = 0;
  std::string last_handshake_error = "worker never started";

  auto spawn_ready_count = [&] {
    std::size_t n = 0;
    for (const auto& slot : sessions) {
      if (slot.session->pre_ready() || slot.session->state() == WorkerSession::State::kIdle)
        ++n;
    }
    return n;
  };
  auto busy_count = [&] {
    std::size_t n = 0;
    for (const auto& slot : sessions) {
      if (slot.session->state() == WorkerSession::State::kBusy) ++n;
    }
    return n;
  };

  while (state.queue.pending() > 0 || busy_count() > 0) {
    if (handshake_failures > state.config.retries) {
      // The worker command itself is broken (wrong binary, version skew,
      // crash at startup): no amount of per-item retrying can make
      // progress. Tear the fleet down before surfacing the setup error.
      for (auto& slot : sessions) slot.session->shutdown(state.config.shutdown_grace);
      throw support::CicError("persistent workers failed " +
                              std::to_string(handshake_failures) +
                              " consecutive handshakes; last: " + last_handshake_error);
    }

    // Top up the fleet: one session per worker slot, but never more sessions
    // than there is pending work for (a session serves many items, so idle
    // extras would only pay a useless golden derivation).
    while (sessions.size() < state.plan.workers &&
           spawn_ready_count() < state.queue.pending()) {
      try {
        SessionSlot slot;
        slot.session = std::make_unique<WorkerSession>(
            transport.launch(command), state.config.golden.get(),
            deadline_after(state.config.timeout_seconds), state.config.shutdown_grace);
        ++state.result.launched;
        slot.worker_id = state.result.launched;
        sessions.push_back(std::move(slot));
      } catch (const support::CicError& error) {
        ++handshake_failures;
        last_handshake_error = std::string("spawn failed: ") + error.what();
        break;
      }
    }

    // Hand pending items to idle sessions.
    for (auto& slot : sessions) {
      if (slot.session->state() != WorkerSession::State::kIdle) continue;
      WorkItem item;
      if (!state.queue.try_pop(&item)) break;
      const double queue_wait_ms = ms_since(item.enqueued_at);
      if (!slot.session->assign(item, state.config.force,
                                deadline_after(state.config.timeout_seconds))) {
        // The write failed, so the item never reached the worker; assign()
        // left it with us — put it back through the budget.
        state.fail_or_retry(std::move(item), "session pipe write failed");
        continue;
      }
      slot.assigned_at = Clock::now();
      slot.assign_t_us = obs::trace_now_us();
      slot.queue_wait_ms = queue_wait_ms;
    }

    // Pump every session; react to at most one event each per iteration.
    bool advanced = false;
    const Clock::time_point now = Clock::now();
    for (auto& slot : sessions) {
      WorkerSession& session = *slot.session;
      if (session.state() == WorkerSession::State::kDead) continue;
      const bool was_pre_ready = session.pre_ready();
      WorkerSession::Event event = session.pump(state.spec, now);
      switch (event.kind) {
        case WorkerSession::Event::Kind::kNone:
          break;
        case WorkerSession::Event::Kind::kReady: {
          advanced = true;
          handshake_failures = 0;
          static const obs::CounterId k_golden[2] = {
              obs::counter("dispatch.golden.shipped"),
              obs::counter("dispatch.golden.derived")};
          if (event.golden == "shipped") {
            obs::bump(k_golden[0]);
            ++state.result.golden_shipped;
          } else if (event.golden == "derived") {
            obs::bump(k_golden[1]);
            ++state.result.golden_derived;
          }
          if (obs::trace_enabled()) {
            obs::TraceArgs args;
            args.add("worker", slot.worker_id);
            args.add("golden", event.golden);
            obs::trace_instant("session.ready", args);
          }
          break;
        }
        case WorkerSession::Event::Kind::kDone: {
          advanced = true;
          for (const auto& [name, value] : event.metrics) state.fleet[name] += value;
          WorkItem item = session.take_item();
          state.observe_assignment(item, slot.worker_id, slot.assign_t_us,
                                   slot.queue_wait_ms, ms_since(slot.assigned_at),
                                   event.wall_ms, event.reused);
          std::string why;
          exp::ShardArtifact artifact;
          if (artifact_is_valid(item.artifact_path, state.spec, item.shard, &artifact, &why)) {
            if (event.reused) ++state.result.reused;
            state.complete(item, std::move(artifact), /*counts_as_computed=*/!event.reused,
                           busy_count());
          } else {
            // The worker *said* done but the artifact fails validation: a
            // failed attempt, but the session keeps its slot — the artifact
            // checks, not trust in the ack, protect the merge.
            state.fail_or_retry(std::move(item), "worker acked an invalid artifact; " + why);
          }
          break;
        }
        case WorkerSession::Event::Kind::kError:
          advanced = true;
          state.fail_or_retry(session.take_item(), std::move(event.reason));
          break;
        case WorkerSession::Event::Kind::kFailed: {
          advanced = true;
          static const obs::CounterId k_teardowns[2] = {
              obs::counter("dispatch.session.handshake_failures"),
              obs::counter("dispatch.session.teardowns")};
          obs::bump(was_pre_ready ? k_teardowns[0] : k_teardowns[1]);
          if (obs::trace_enabled()) {
            obs::TraceArgs args;
            args.add("worker", slot.worker_id);
            args.add("reason", event.reason);
            obs::trace_instant("session.failed", args);
          }
          if (was_pre_ready) {
            ++handshake_failures;
            last_handshake_error = event.reason;
          }
          if (session.has_item()) {
            state.fail_or_retry(session.take_item(),
                                "session failed mid-assignment: " + event.reason);
          }
          break;
        }
      }
    }

    // Cull the dead; replacements spawn at the top of the next iteration.
    std::erase_if(sessions, [](const SessionSlot& slot) {
      return slot.session->state() == WorkerSession::State::kDead;
    });

    if (!advanced) {
      state.progress(false, busy_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  for (auto& slot : sessions) slot.session->shutdown(state.config.shutdown_grace);
}

}  // namespace

std::string shard_artifact_path(const std::string& dir, const std::string& sweep,
                                const exp::Shard& shard) {
  return dir + "/" + sweep + "-" + std::to_string(shard.index) + "of" +
         std::to_string(shard.count) + ".shard.json";
}

DispatchPlan plan_dispatch(const exp::SweepSpec& spec, const DispatchConfig& config) {
  support::check(spec.cells > 0, "dispatch needs a sweep with at least one cell");
  DispatchPlan plan;
  plan.workers = config.workers != 0 ? config.workers : support::resolve_jobs(0);
  // Over-decompose by default: 4 items per worker slot keeps every slot busy
  // until the end (a slow shard overlaps the others' tails) while still
  // batching many cells per assignment. Never more shards than cells, asked
  // for or not — an empty shard is work scheduled for nothing.
  const std::size_t wanted =
      config.shards != 0 ? config.shards : std::size_t{plan.workers} * 4;
  plan.shards = static_cast<unsigned>(std::min(wanted, spec.cells));
  if (config.shards > plan.shards) plan.shards_requested = config.shards;
  // Split the host's cores between concurrent workers unless told otherwise.
  plan.jobs = config.jobs_per_worker != 0
                  ? config.jobs_per_worker
                  : std::max(1U, support::resolve_jobs(0) / std::max(1U, plan.workers));
  return plan;
}

std::vector<std::string> session_worker_argv(const std::vector<std::string>& worker_argv,
                                             unsigned jobs) {
  std::vector<std::string> argv = worker_argv;
  argv.insert(argv.end(), {"--jobs", std::to_string(jobs)});
  return argv;
}

DispatchResult dispatch_sweep(const exp::SweepSpec& spec,
                              const std::vector<std::string>& worker_argv,
                              const Transport& transport, const DispatchConfig& config) {
  support::check(!worker_argv.empty(), "dispatch needs a worker command");
  const DispatchPlan plan = plan_dispatch(spec, config);

  const std::string dir = config.artifact_dir.empty() ? std::string(".") : config.artifact_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  support::check(!ec && std::filesystem::is_directory(dir),
                 "cannot create artifact directory '" + dir + "'");

  DispatchResult result;
  result.shard_count = plan.shards;

  RunState state(spec, config, plan, result);
  // Resume pre-pass: shards whose artifacts already validate merge before
  // any session is spawned, so a fully-resumed campaign costs zero
  // process launches and a partially-resumed one sizes its fleet to the work
  // actually left.
  for (unsigned i = 1; i <= plan.shards; ++i) {
    const exp::Shard shard{i, plan.shards};
    WorkItem item{shard, shard_artifact_path(dir, spec.sweep, shard), 0};
    exp::ShardArtifact artifact;
    std::string why;
    if (!config.force &&
        artifact_is_valid(item.artifact_path, spec, shard, &artifact, &why)) {
      state.merge.add(std::move(artifact));
      ++result.reused;
      ++state.resumed_done;
      state.progress(false, 0);  // throttled: a full resume lands all at once
    } else {
      state.queue.push(std::move(item));
    }
  }

  if (state.queue.pending() > 0) run_sessions(state, worker_argv, transport);
  state.progress(true, 0);

  result.elapsed_ms = static_cast<std::uint64_t>(ms_since(state.start));
  result.workers_planned = plan.workers;
  // Republish the fleet totals into the local registry under a fleet. prefix
  // so --metrics and the trace footer report worker-side activity alongside
  // the orchestrator's own counters. Cold path: once per dispatch.
  for (const auto& [name, value] : state.fleet) {
    result.fleet_metrics.emplace_back(name, value);
    obs::bump("fleet." + name, value);
  }

  result.failures = state.queue.failures();
  result.ok = result.failures.empty();
  if (result.ok) {
    // Same merge the `cicmon merge` path performs, already streamed shard by
    // shard — finalize is just the completeness check plus handing the cells
    // over, byte-identical to a direct single-process run.
    result.cells = std::move(state.merge).finalize();
  }
  return result;
}

}  // namespace cicmon::dist
