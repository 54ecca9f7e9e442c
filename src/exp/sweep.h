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
// byte-for-byte, for any N and any --jobs value in any process. Results
// live in flat, typed columns (Cells) from run_cells to the renderers.
// Shards persist their cells as `cicmon-shard-v2` JSON artifacts: the
// header plus two packed, base64-encoded columns and an FNV-1a digest over
// both; merging validates that the artifacts are from the same sweep,
// parameters and payload shape, cover every cell exactly once, and were
// not truncated or tampered with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cicmon::exp {

// What one cell computes: a fixed-shape numeric payload. Each sweep defines
// what the slots mean (cycles, outcome codes, miss rates, ...) and decodes
// rows from them; the engine only moves them around.
struct CellResult {
  std::vector<std::uint64_t> u64;
  std::vector<double> f64;

  bool operator==(const CellResult&) const = default;
};

// How many u64 and f64 slots every cell of a sweep carries.
struct CellShape {
  std::size_t u64 = 0;
  std::size_t f64 = 0;

  bool operator==(const CellShape&) const = default;
};

// A run of cells in flat, typed columns: cell c's u64 slots are
// u64_column()[c * shape.u64 ...], its f64 slots f64_column()[c * shape.f64
// ...]. Holds either a whole grid (run_all, a merge) or one shard's owned
// cells by ordinal (run_cells, an artifact).
class Cells {
 public:
  Cells() = default;
  // `count` zero-valued cells of `shape`.
  Cells(CellShape shape, std::size_t count);
  // `count` cells of `shape` holding the given columns; throws CicError
  // unless each column has exactly count * slots values.
  Cells(CellShape shape, std::size_t count, std::vector<std::uint64_t> u64,
        std::vector<double> f64);

  CellShape shape() const { return shape_; }
  std::size_t size() const { return count_; }

  std::uint64_t u64(std::size_t cell, std::size_t slot) const {
    return u64_[cell * shape_.u64 + slot];
  }
  double f64(std::size_t cell, std::size_t slot) const { return f64_[cell * shape_.f64 + slot]; }
  std::span<const std::uint64_t> u64_slots(std::size_t cell) const {
    return {u64_.data() + cell * shape_.u64, shape_.u64};
  }
  std::span<const double> f64_slots(std::size_t cell) const {
    return {f64_.data() + cell * shape_.f64, shape_.f64};
  }
  const std::vector<std::uint64_t>& u64_column() const { return u64_; }
  const std::vector<double>& f64_column() const { return f64_; }

  // Writes `result` into cell `cell`; throws CicError unless it has this
  // run's shape. Distinct cells may be set concurrently.
  void set(std::size_t cell, const CellResult& result);
  // Copies cell `from` of `source` (same shape) into cell `to`.
  void copy_cell(std::size_t to, const Cells& source, std::size_t from);

  // Per-cell copies, for callers that inspect or compare whole cells.
  CellResult cell(std::size_t cell) const;
  operator std::vector<CellResult>() const;

  bool operator==(const Cells&) const = default;

 private:
  CellShape shape_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> u64_;
  std::vector<double> f64_;
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
  // Every run_cell result has this shape; run_cells fails the run, naming
  // the sweep and the cell, on one that does not.
  CellShape shape;
  // Computes one cell. Must depend on the index alone and be safe to call
  // concurrently for distinct indices.
  std::function<CellResult(std::size_t)> run_cell;
  // Optional execution order: when set, run_cells visits a shard's cells in
  // ascending (order_key(cell), cell) order instead of index order, so cells
  // that share work (campaign trials forking from one walking golden run)
  // run next to each other. Results still land by index: the order never
  // changes a cell, artifact or merge.
  std::function<std::uint64_t(std::size_t)> order_key;
};

// Process shard "I/N": 1-based index I of N cooperating processes.
struct Shard {
  unsigned index = 1;
  unsigned count = 1;
};

// Parses "I/N" with 1 <= I <= N; throws CicError otherwise.
Shard parse_shard(std::string_view text);

// Shard coordinates read as 64-bit integers (artifacts, session records):
// throws CicError unless 1 <= index <= count < 2^32, checked before
// narrowing, so an out-of-range value can never alias a valid one.
Shard checked_shard(std::uint64_t index, std::uint64_t count);

// Round-robin cell ownership — a disjoint cover of [0, cells) for any N:
// shard I/N owns the cells c with c % N == I - 1, and its ordinal-th owned
// cell is (I - 1) + ordinal * N.
constexpr std::size_t owned_cell(const Shard& shard, std::size_t ordinal) {
  return shard.index - 1 + ordinal * shard.count;
}

// How many of [0, cells) the shard owns, in O(1).
constexpr std::size_t owned_cell_count(const Shard& shard, std::size_t cells) {
  return cells / shard.count + (shard.index - 1 < cells % shard.count ? 1 : 0);
}

// Runs the cells owned by `shard` over `jobs` threads (support::parallel_for
// semantics), in spec.order_key order when one is set. The result holds the
// owned cells only, by ordinal (see owned_cell); for shard 1/1 that is the
// whole grid.
Cells run_cells(const SweepSpec& spec, const Shard& shard, unsigned jobs);

// --- cicmon-shard-v2 artifacts -----------------------------------------

struct ShardArtifact {
  std::string sweep;
  SweepParams params;
  Shard shard;
  std::size_t total_cells = 0;
  Cells cells;  // the shard's owned cells, by ordinal
};

// Serializes a shard's owned cells (run_cells' result) as a cicmon-shard-v2
// document. Throws CicError unless they match spec's shape and the shard's
// owned cell count.
std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard, const Cells& owned);
// The same document from a whole grid of per-cell results (index = cell).
std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard,
                                  const std::vector<CellResult>& results);

// Parses and validates one artifact: schema tag, shard bounds, the cell
// count its shard owns, both columns' lengths, and the digest over header
// and columns. Throws CicError describing the corruption.
ShardArtifact decode_shard_artifact(std::string_view text);

// File variants. Writing goes through a temp file + rename so a crashed or
// interrupted shard never leaves a truncated artifact behind; loading wraps
// decode errors with the path.
void write_shard_artifact(const std::string& path, const SweepSpec& spec, const Shard& shard,
                          const Cells& owned);
ShardArtifact load_shard_artifact(const std::string& path);

// True when `artifact` is a usable partial of exactly (spec, shard): same
// sweep, same parameters, same shape, same shard coordinates and grid.
bool artifact_matches(const ShardArtifact& artifact, const SweepSpec& spec, const Shard& shard);

// Incremental merge: accepts validated artifacts one at a time, in any
// order, and finalises to exactly what merge_artifacts produces — the
// byte-identical-merge property, available while shards are still landing.
// This is what lets a dispatch campaign render progress as artifacts stream
// in from worker sessions instead of waiting for the last shard.
//
// Every add() validates the newcomer against the first artifact accepted
// (same sweep, params, shape, shard count and cell grid, its shard not yet
// merged, exactly the cells its shard owns) and throws CicError naming the
// violation, leaving the already-merged state untouched. An artifact covers
// exactly its shard, so one flag per shard that owns cells is the whole
// coverage record (a shard past the cell count owns none: its artifact is
// validated and merges nothing), and its columns are scattered into the
// full-grid columns on arrival. Memory is bounded by the grid, whatever
// the shard count. Two MergeStates fed the same artifact *set* in
// different orders report identical progress and finalise to identical
// cells.
class MergeState {
 public:
  void add(ShardArtifact artifact);

  std::size_t shards_merged() const { return shards_merged_; }
  std::size_t cells_merged() const { return cells_merged_; }
  bool complete() const { return shard_count_ > 0 && cells_merged_ == cells_.size(); }

  // One deterministic progress line: "3/7 shards, 120/280 cells (42.9%)",
  // counting the shards that own cells.
  std::string progress() const;
  // Deterministic partial-progress table: one row per shard that owns cells
  // with its cell count and merged/pending status — what a long campaign
  // shows while rendering incrementally. Depends only on the set of merged
  // shards.
  std::string progress_table() const;

  // The full grid; throws CicError while cells are missing. The result is
  // indistinguishable from run_all(spec, jobs) of the producing binary.
  Cells finalize() &&;

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
  std::vector<bool> shard_merged_;  // by shard index - 1, shards that own cells
  Cells cells_;                     // the full grid
};

// Merges partial artifacts into the full grid. Validates that all artifacts
// agree on (sweep, params, shape, shard count, total cells) and that
// together they cover every cell exactly once; throws CicError naming the
// first violation. Implemented over MergeState; the batch entry point also
// pre-checks the provided cell count against the claimed grid, so a
// tampered total_cells fails before sizing any allocation by it. Takes the
// artifacts by value so each one's columns are freed as soon as they are
// scattered.
Cells merge_artifacts(std::vector<ShardArtifact> artifacts);

// Resume: returns this shard's owned cells, loading them from `path` when a
// valid artifact for exactly (spec, shard) already exists there, otherwise
// running the cells and (re)writing the artifact. `force` skips the load.
// `reused` (optional) reports whether the artifact was reused.
Cells run_or_load_shard(const SweepSpec& spec, const Shard& shard, unsigned jobs,
                        const std::string& path, bool force, bool* reused = nullptr);

// Convenience: all cells in this process ("--shard 1/1").
Cells run_all(const SweepSpec& spec, unsigned jobs);

// Looks up a parameter recorded in an artifact; throws CicError when absent.
std::string_view param(const SweepParams& params, std::string_view name);

}  // namespace cicmon::exp
