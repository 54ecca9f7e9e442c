// Unified sweep engine: sharded, resumable experiment campaigns.
//
// Every experiment in the paper's evaluation — the Table 1 overhead sweep,
// the Figure 6 miss-rate curves, the block characterisation, and the fault
// campaigns — is the same shape: a deterministic grid of independent cells,
// each computable from its index alone, whose results are gathered in index
// order and rendered into one table. SweepSpec captures that shape once, so
// scaling features (process sharding, partial-summary artifacts, resume,
// multi-host fan-out) are written here once instead of per sweep.
//
// The determinism contract extends support/parallel.h's: a cell's result
// depends only on its index (per-cell RNG streams come from
// support::derive_stream_seed), so
//
//   merge(shard 1/N, ..., shard N/N) == run of shard 1/1
//
// byte-for-byte, for any N and any --jobs value in any process. Shards
// persist their cells as `cicmon-shard-v1` JSON artifacts (support/json.h,
// whose doubles round-trip bit-exactly); merging validates that the
// artifacts are from the same sweep and parameters, cover every cell
// exactly once, and were not truncated or tampered with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cicmon::exp {

// Mergeable result of one cell: a fixed-shape numeric payload. Each sweep
// defines what the slots mean (cycles, outcome codes, miss rates, ...) and
// decodes rows from them; the engine only moves them around.
struct CellResult {
  std::vector<std::uint64_t> u64;
  std::vector<double> f64;

  bool operator==(const CellResult&) const = default;
};

// Sweep parameters as ordered (name, value) pairs. They are baked into every
// shard artifact and compared at merge/resume time, so partials from a
// different run (other scale, seed, workload, ...) can never be mixed in
// silently. Values must round-trip through text — use fmt_f64 for doubles.
using SweepParams = std::vector<std::pair<std::string, std::string>>;

// Shortest decimal form that parses back to exactly the same double.
std::string fmt_f64(double value);
double parse_f64(std::string_view text);  // throws CicError on malformed input

struct SweepSpec {
  std::string sweep;   // artifact namespace: "table1", "fig6", "campaign", ...
  SweepParams params;  // everything the cell grid was derived from
  std::size_t cells = 0;
  // Stable human-readable key of a cell ("dijkstra/cic16", "trial/000041");
  // recorded next to the cell's payload in artifacts.
  std::function<std::string(std::size_t)> cell_key;
  // Computes one cell. Must depend on the index alone and be safe to call
  // concurrently for distinct indices.
  std::function<CellResult(std::size_t)> run_cell;
  // Optional execution order: when set, run_cells visits a shard's cells in
  // ascending (order_key(cell), cell) order instead of index order, so cells
  // that share work (campaign trials forking from one walking golden run)
  // run next to each other. Results still land by index: the order never
  // changes a cell vector, artifact or merge.
  std::function<std::uint64_t(std::size_t)> order_key;
};

// Process shard "I/N": 1-based index I of N cooperating processes.
struct Shard {
  unsigned index = 1;
  unsigned count = 1;
};

// Parses "I/N" with 1 <= I <= N; throws CicError otherwise.
Shard parse_shard(std::string_view text);

// Round-robin cell ownership — a disjoint cover of [0, cells) for any N.
constexpr bool owns_cell(const Shard& shard, std::size_t cell) {
  return cell % shard.count == shard.index - 1;
}

// How many of [0, cells) the shard owns, in O(1).
constexpr std::size_t owned_cell_count(const Shard& shard, std::size_t cells) {
  return cells / shard.count + (shard.index - 1 < cells % shard.count ? 1 : 0);
}

// Runs the cells owned by `shard` over `jobs` threads (support::parallel_for
// semantics), in spec.order_key order when one is set. The returned vector
// always has spec.cells slots; cells not owned by the shard are left
// default-constructed.
std::vector<CellResult> run_cells(const SweepSpec& spec, const Shard& shard, unsigned jobs);

// --- cicmon-shard-v1 artifacts -----------------------------------------

struct ShardArtifact {
  std::string sweep;
  SweepParams params;
  Shard shard;
  std::size_t total_cells = 0;
  // (cell index, key, payload) for the owned cells, ascending by index.
  struct Cell {
    std::size_t index = 0;
    std::string key;
    CellResult result;
  };
  std::vector<Cell> cells;
};

// Serializes the shard-owned slice of `results` (indices filtered by
// owns_cell) as a cicmon-shard-v1 document.
std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard,
                                  const std::vector<CellResult>& results);

// Parses and structurally validates one artifact (schema tag, shard bounds,
// cell ownership and ordering). Throws CicError describing the corruption.
ShardArtifact decode_shard_artifact(std::string_view text);

// File variants. Writing goes through a temp file + rename so a crashed or
// interrupted shard never leaves a truncated artifact behind; loading wraps
// decode errors with the path.
void write_shard_artifact(const std::string& path, const SweepSpec& spec, const Shard& shard,
                          const std::vector<CellResult>& results);
ShardArtifact load_shard_artifact(const std::string& path);

// True when `artifact` is a usable partial of exactly (spec, shard): same
// sweep, same parameters, same shard coordinates, every owned cell present.
bool artifact_matches(const ShardArtifact& artifact, const SweepSpec& spec, const Shard& shard);

// Incremental merge: accepts validated artifacts one at a time, in any
// order, and finalises to exactly what merge_artifacts produces — the
// byte-identical-merge property, available while shards are still landing.
// This is what lets a dispatch campaign render progress as artifacts stream
// in from worker sessions instead of waiting for the last shard.
//
// Every add() validates the newcomer against the first artifact accepted
// (same sweep, same params, same shard count, same cell grid, no cell
// covered twice) and throws CicError naming the violation, leaving the
// already-merged state untouched. The per-shard/per-cell bookkeeping is
// deterministic: two MergeStates fed the same artifact *set* in different
// orders report identical progress and finalise to identical cells.
class MergeState {
 public:
  void add(ShardArtifact artifact);

  std::size_t shards_merged() const { return shards_merged_; }
  std::size_t cells_merged() const { return cells_merged_; }
  bool complete() const { return shard_count_ > 0 && cells_merged_ == covered_.size(); }

  // One deterministic progress line: "3/7 shards, 120/280 cells (42.9%)".
  std::string progress() const;
  // Deterministic partial-progress table: one row per shard with its cell
  // count and merged/pending status — what a long campaign shows while
  // rendering incrementally. Depends only on the set of merged shards.
  std::string progress_table() const;

  // The full cell vector; throws CicError while cells are missing. The
  // result is indistinguishable from run_cells(spec, {1,1}, jobs) of the
  // producing binary.
  std::vector<CellResult> finalize() &&;

  // Sweep identity of the first accepted artifact (valid once
  // shards_merged() > 0) — what the caller renders with.
  const std::string& sweep() const { return sweep_; }
  const SweepParams& params() const { return params_; }

 private:
  std::string sweep_;
  SweepParams params_;
  unsigned shard_count_ = 0;
  std::size_t shards_merged_ = 0;
  std::size_t cells_merged_ = 0;
  std::vector<bool> shard_merged_;  // by shard index - 1
  std::vector<bool> covered_;       // by cell index
  std::vector<CellResult> results_;
};

// Merges partial artifacts into the full cell vector. Validates that all
// artifacts agree on (sweep, params, shard count, total cells) and that
// together they cover every cell exactly once; throws CicError naming the
// first violation. Implemented over MergeState; the batch entry point also
// pre-checks the provided cell count against the claimed grid, so a
// tampered total_cells fails before sizing any allocation by it. Takes the
// artifacts by value so callers can std::move a large set in and the cell
// payloads transfer instead of copying.
std::vector<CellResult> merge_artifacts(std::vector<ShardArtifact> artifacts);

// Resume: returns this shard's cells, loading them from `path` when a valid
// artifact for exactly (spec, shard) already exists there, otherwise running
// the cells and (re)writing the artifact. `force` skips the load. `reused`
// (optional) reports whether the artifact was reused.
std::vector<CellResult> run_or_load_shard(const SweepSpec& spec, const Shard& shard,
                                          unsigned jobs, const std::string& path, bool force,
                                          bool* reused = nullptr);

// Convenience: all cells in this process ("--shard 1/1").
std::vector<CellResult> run_all(const SweepSpec& spec, unsigned jobs);

// Looks up a parameter recorded in an artifact; throws CicError when absent.
std::string_view param(const SweepParams& params, std::string_view name);

}  // namespace cicmon::exp
