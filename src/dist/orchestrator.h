// Distributed campaign orchestrator: work-queue dispatch over shard
// artifacts, served by persistent worker sessions.
//
// Takes any exp::SweepSpec-backed sweep, over-decomposes its cell grid into
// N shard work items (N >> workers, so batching amortises start-up cost
// while pull scheduling keeps every worker busy), and schedules them onto
// persistent worker sessions: each worker slot runs one long-lived `cicmon
// worker <sweep> ...` process that derives the sweep ONCE and then serves
// shard assignments over a framed pipe protocol (dist/session.h). Even that
// one derivation is usually skipped: the orchestrator ships the golden state
// it already derived down the pipe, so a worker goes from spawn to first
// shard in the time it takes to stream a few MB. Any transport whose stdio reaches
// the worker (local pipes, ssh-style templates; dist/transport.h) carries
// sessions; completed artifacts stream into an exp::MergeState so the
// campaign's progress renders incrementally.
//
// Per item the orchestrator:
//
//  * resumes — a valid on-disk artifact for exactly (spec, shard) is merged
//    up front without spawning anything (the same rule workers apply);
//  * assigns the shard to a session and watches it with a per-item deadline;
//  * validates the produced artifact with the *merge-time* checks
//    (decode + artifact_matches) the moment the done ack arrives, so a
//    corrupt, truncated, or wrong-parameter artifact is retried immediately
//    instead of poisoning the final merge;
//  * retries with a bounded budget, recording the last failure reason when
//    the budget runs out. A dead, hung, or babbling session is torn down
//    (stdin EOF, SIGTERM, short grace, SIGKILL) and its in-flight shard
//    re-enqueued through the same budget; a fresh session takes the slot.
//
// The run finishes through exp::MergeState::finalize — the same result
// `cicmon merge` produces — so the final rendered summary is byte-identical
// to a direct single-process run of the same sweep, at any worker/shard
// count, and across session kills mid-assignment. Failed items leave their
// completed peers' artifacts on disk, so a re-dispatch resumes instead of
// starting over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/session.h"
#include "dist/transport.h"
#include "dist/work_queue.h"
#include "exp/sweep.h"

namespace cicmon::dist {

struct DispatchConfig {
  unsigned workers = 0;         // concurrent worker processes; 0 = nproc
  unsigned shards = 0;          // work items; 0 = auto (4x workers, capped at cells)
  unsigned retries = 2;         // extra attempts allowed per item after the first
  unsigned jobs_per_worker = 0; // --jobs per worker; 0 = auto (nproc / workers)
  double timeout_seconds = 300; // per-item wall-clock limit; 0 = none
  double shutdown_grace = 2.0;  // SIGTERM-to-SIGKILL window on teardown
  std::string artifact_dir;     // where <sweep>-IofN.shard.json files live
  bool force = false;           // ignore existing artifacts, pass force down
  bool progress = true;         // live progress/ETA lines on stderr
  // Golden state to offer each session worker (dist/session.h). Shared, not
  // copied: one encoded campaign golden can run to megabytes and every
  // session offers the same one. Null or empty = nothing to ship.
  std::shared_ptr<const GoldenShipment> golden;
};

struct DispatchResult {
  bool ok = false;
  // Merged full cell grid (every shard through exp::MergeState) when ok.
  exp::Cells cells;
  unsigned shard_count = 0;
  std::size_t reused = 0;    // shards resumed from matching on-disk artifacts
  std::size_t launched = 0;  // session spawns, replacements included
  std::size_t retried = 0;   // re-enqueues after a failed attempt
  // How each completed handshake obtained its golden state.
  std::size_t golden_shipped = 0;
  std::size_t golden_derived = 0;
  // Summed orchestrator-observed assignment run wall, summed assign-time
  // queue waits, the dispatch's own elapsed wall, and the fleet size it ran
  // with — the inputs of the final summary's worker-utilization and
  // queue-wait-vs-run-wall split.
  std::uint64_t busy_ms = 0;
  std::uint64_t queue_wait_ms = 0;
  std::uint64_t elapsed_ms = 0;
  unsigned workers_planned = 0;
  // Fleet-wide counter totals folded from the workers' done.metrics records
  // (name-sorted). Also republished into the local obs registry under a
  // fleet. prefix so --metrics and the trace footer see them.
  std::vector<std::pair<std::string, std::uint64_t>> fleet_metrics;
  std::vector<WorkFailure> failures;  // non-empty iff !ok
};

// The resolved shape of a dispatch before anything is launched — what
// `cicmon dispatch --dry-run` prints and dispatch_sweep executes.
struct DispatchPlan {
  unsigned workers = 0;
  unsigned shards = 0;
  unsigned jobs = 0;  // per-worker thread count
  // An explicit shard count above the cell count, which `shards` was capped
  // to; 0 when none was.
  unsigned shards_requested = 0;
};

// Resolves worker/shard/job counts from the config and the sweep size. The
// shard count, explicit or not, never exceeds the cell count.
DispatchPlan plan_dispatch(const exp::SweepSpec& spec, const DispatchConfig& config);

// The session worker's full argv: `worker_argv` plus `--jobs J`.
std::vector<std::string> session_worker_argv(const std::vector<std::string>& worker_argv,
                                             unsigned jobs);

// Runs spec's grid to completion. `worker_argv` is the session worker
// command (`cicmon worker <sweep> <sweep flags>`); the orchestrator appends
// `--jobs J` and starts one per worker slot through `transport`. Throws
// CicError for setup errors (unwritable artifact directory, invalid config,
// workers that can never complete a handshake); worker failures are reported
// via the result.
DispatchResult dispatch_sweep(const exp::SweepSpec& spec,
                              const std::vector<std::string>& worker_argv,
                              const Transport& transport, const DispatchConfig& config);

// The artifact path dispatch uses for shard I/N of `sweep` inside `dir`:
// "<dir>/<sweep>-<I>of<N>.shard.json". Shared with tests and the resume
// documentation.
std::string shard_artifact_path(const std::string& dir, const std::string& sweep,
                                const exp::Shard& shard);

}  // namespace cicmon::dist
