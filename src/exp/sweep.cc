#include "exp/sweep.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace cicmon::exp {
namespace {

constexpr std::string_view kSchema = "cicmon-shard-v1";

std::string read_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  support::check(in != nullptr, "cannot open shard artifact '" + path + "'");
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, in)) > 0) text.append(buffer, got);
  const bool error = std::ferror(in) != 0;
  std::fclose(in);
  support::check(!error, "cannot read shard artifact '" + path + "'");
  return text;
}

void write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  support::check(out != nullptr, "cannot write shard artifact '" + tmp + "'");
  const bool wrote = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  const bool closed = std::fclose(out) == 0;
  support::check(wrote && closed, "cannot write shard artifact '" + tmp + "'");
  support::check(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot move shard artifact into place at '" + path + "'");
}

}  // namespace

std::string fmt_f64(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

double parse_f64(std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  support::check(end == copy.c_str() + copy.size() && !copy.empty(),
                 "malformed double '" + copy + "'");
  return value;
}

Shard parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  support::check(slash != std::string_view::npos, "--shard expects I/N, got '" +
                                                      std::string(text) + "'");
  auto parse_part = [&](std::string_view part) -> unsigned {
    std::uint64_t value = 0;
    support::check(support::parse_u64(part, &value) && value <= 0xFFFF'FFFFULL,
                   "--shard expects I/N, got '" + std::string(text) + "'");
    return static_cast<unsigned>(value);
  };
  Shard shard;
  shard.index = parse_part(text.substr(0, slash));
  shard.count = parse_part(text.substr(slash + 1));
  support::check(shard.count >= 1 && shard.index >= 1 && shard.index <= shard.count,
                 "--shard needs 1 <= I <= N, got '" + std::string(text) + "'");
  return shard;
}

std::vector<CellResult> run_cells(const SweepSpec& spec, const Shard& shard, unsigned jobs) {
  std::vector<std::size_t> owned;
  for (std::size_t cell = 0; cell < spec.cells; ++cell) {
    if (owns_cell(shard, cell)) owned.push_back(cell);
  }
  if (spec.order_key) {
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    keyed.reserve(owned.size());
    for (const std::size_t cell : owned) keyed.emplace_back(spec.order_key(cell), cell);
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < keyed.size(); ++i) owned[i] = keyed[i].second;
  }
  std::vector<CellResult> results(spec.cells);
  support::parallel_for(owned.size(), jobs,
                        [&](std::size_t i) { results[owned[i]] = spec.run_cell(owned[i]); });
  return results;
}

std::vector<CellResult> run_all(const SweepSpec& spec, unsigned jobs) {
  return run_cells(spec, Shard{1, 1}, jobs);
}

std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard,
                                  const std::vector<CellResult>& results) {
  support::check(results.size() == spec.cells,
                 "encode_shard_artifact: result vector does not match the cell grid");
  support::JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(kSchema);
  json.key("sweep");
  json.value(spec.sweep);
  json.key("params");
  json.begin_object();
  for (const auto& [name, value] : spec.params) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("shard");
  json.value_u64(shard.index);
  json.key("shard_count");
  json.value_u64(shard.count);
  json.key("total_cells");
  json.value_u64(spec.cells);
  json.key("cells");
  json.begin_array();
  for (std::size_t cell = 0; cell < spec.cells; ++cell) {
    if (!owns_cell(shard, cell)) continue;
    json.begin_object();
    json.key("index");
    json.value_u64(cell);
    json.key("key");
    json.value(spec.cell_key ? spec.cell_key(cell) : std::to_string(cell));
    json.key("u64");
    json.begin_array();
    for (const std::uint64_t v : results[cell].u64) json.value_u64(v);
    json.end_array();
    json.key("f64");
    json.begin_array();
    for (const double v : results[cell].f64) json.value(v);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

ShardArtifact decode_shard_artifact(std::string_view text) {
  const support::JsonValue root = support::parse_json(text);
  support::check(root.at("schema").as_string() == kSchema,
                 "not a " + std::string(kSchema) + " artifact");
  ShardArtifact artifact;
  artifact.sweep = root.at("sweep").as_string();
  for (const auto& [name, value] : root.at("params").as_object()) {
    artifact.params.emplace_back(name, value.as_string());
  }
  artifact.shard.index = static_cast<unsigned>(root.at("shard").as_u64());
  artifact.shard.count = static_cast<unsigned>(root.at("shard_count").as_u64());
  artifact.total_cells = root.at("total_cells").as_u64();
  support::check(artifact.shard.count >= 1 && artifact.shard.index >= 1 &&
                     artifact.shard.index <= artifact.shard.count,
                 "artifact has invalid shard coordinates");
  std::size_t previous = 0;
  bool first = true;
  for (const support::JsonValue& entry : root.at("cells").as_array()) {
    ShardArtifact::Cell cell;
    cell.index = entry.at("index").as_u64();
    cell.key = entry.at("key").as_string();
    for (const support::JsonValue& v : entry.at("u64").as_array()) {
      cell.result.u64.push_back(v.as_u64());
    }
    for (const support::JsonValue& v : entry.at("f64").as_array()) {
      cell.result.f64.push_back(v.as_f64());
    }
    support::check(cell.index < artifact.total_cells, "artifact cell index out of range");
    support::check(owns_cell(artifact.shard, cell.index),
                   "artifact contains a cell its shard does not own");
    support::check(first || cell.index > previous, "artifact cells out of order");
    previous = cell.index;
    first = false;
    artifact.cells.push_back(std::move(cell));
  }
  // Completeness: the shard must carry every cell it owns, or a crashed
  // writer could masquerade as a short shard. O(1) — a tampered total_cells
  // must not buy an arbitrarily long loop.
  const std::size_t expected = owned_cell_count(artifact.shard, artifact.total_cells);
  support::check(artifact.cells.size() == expected,
                 "artifact is incomplete: has " + std::to_string(artifact.cells.size()) +
                     " of " + std::to_string(expected) + " owned cells");
  return artifact;
}

void write_shard_artifact(const std::string& path, const SweepSpec& spec, const Shard& shard,
                          const std::vector<CellResult>& results) {
  write_file_atomic(path, encode_shard_artifact(spec, shard, results));
}

ShardArtifact load_shard_artifact(const std::string& path) {
  try {
    return decode_shard_artifact(read_file(path));
  } catch (const support::CicError& error) {
    throw support::CicError("corrupt shard artifact '" + path + "': " + error.what());
  }
}

bool artifact_matches(const ShardArtifact& artifact, const SweepSpec& spec,
                      const Shard& shard) {
  return artifact.sweep == spec.sweep && artifact.params == spec.params &&
         artifact.shard.index == shard.index && artifact.shard.count == shard.count &&
         artifact.total_cells == spec.cells;
}

void MergeState::add(ShardArtifact artifact) {
  // Validate the newcomer fully before mutating anything — including the
  // head state a first artifact would establish — so a rejected artifact
  // leaves the merged state exactly as it was (the orchestrator retries
  // that shard and keeps streaming the others).
  const bool first = shard_count_ == 0;
  if (!first) {
    support::check(artifact.sweep == sweep_, "cannot merge artifacts from different sweeps ('" +
                                                 sweep_ + "' vs '" + artifact.sweep + "')");
    support::check(artifact.params == params_,
                   "cannot merge artifacts with different sweep parameters");
    support::check(artifact.shard.count == shard_count_,
                   "cannot merge artifacts from different shard counts");
    support::check(artifact.total_cells == covered_.size(),
                   "cannot merge artifacts with different cell grids");
  }
  support::check(artifact.shard.index >= 1 && artifact.shard.index <= artifact.shard.count,
                 "artifact has invalid shard coordinates");
  support::check(first || !shard_merged_[artifact.shard.index - 1],
                 "shard " + std::to_string(artifact.shard.index) + "/" +
                     std::to_string(artifact.shard.count) + " is covered by two artifacts");
  // Cells must be strictly increasing (the decode_shard_artifact invariant):
  // that excludes intra-artifact duplicates, which would otherwise let
  // cells_merged_ overcount and finalize() miss a genuinely uncovered cell.
  std::size_t previous = 0;
  bool first_cell = true;
  for (const ShardArtifact::Cell& cell : artifact.cells) {
    support::check(cell.index < artifact.total_cells, "artifact cell index out of range");
    support::check(first_cell || cell.index > previous, "artifact cells out of order");
    support::check(first || !covered_[cell.index],
                   "cell " + std::to_string(cell.index) + " ('" + cell.key +
                       "') is covered by two artifacts — duplicate shard?");
    previous = cell.index;
    first_cell = false;
  }
  if (first) {
    // Everything validated: the first artifact fixes the sweep identity
    // every later add is held to.
    sweep_ = artifact.sweep;
    params_ = artifact.params;
    shard_count_ = artifact.shard.count;
    shard_merged_.assign(shard_count_, false);
    covered_.assign(artifact.total_cells, false);
    results_.resize(artifact.total_cells);
  }
  shard_merged_[artifact.shard.index - 1] = true;
  ++shards_merged_;
  for (ShardArtifact::Cell& cell : artifact.cells) {
    covered_[cell.index] = true;
    results_[cell.index] = std::move(cell.result);
  }
  cells_merged_ += artifact.cells.size();
}

std::string MergeState::progress() const {
  const std::size_t total = covered_.size();
  const double pct = total == 0 ? 0.0
                                : 100.0 * static_cast<double>(cells_merged_) /
                                      static_cast<double>(total);
  char line[96];
  std::snprintf(line, sizeof line, "%zu/%u shards, %zu/%zu cells (%.1f%%)", shards_merged_,
                shard_count_, cells_merged_, total, pct);
  return line;
}

std::string MergeState::progress_table() const {
  std::string table = "shard  cells  state\n";
  for (unsigned index = 1; index <= shard_count_; ++index) {
    const std::size_t cells = owned_cell_count(Shard{index, shard_count_}, covered_.size());
    char row[64];
    std::snprintf(row, sizeof row, "%-5u  %-5zu  %s\n", index, cells,
                  shard_merged_[index - 1] ? "merged" : "pending");
    table += row;
  }
  return table;
}

std::vector<CellResult> MergeState::finalize() && {
  support::check(shard_count_ > 0, "merge needs at least one shard artifact");
  const std::size_t missing = covered_.size() - cells_merged_;
  support::check(missing == 0, std::to_string(missing) + " of " +
                                   std::to_string(covered_.size()) +
                                   " cells missing — pass all " +
                                   std::to_string(shard_count_) + " shard artifacts");
  return std::move(results_);
}

std::vector<CellResult> merge_artifacts(std::vector<ShardArtifact> artifacts) {
  support::check(!artifacts.empty(), "merge needs at least one shard artifact");
  const ShardArtifact& head = artifacts.front();
  // Consistency first, and a cheap completeness count before sizing anything
  // by total_cells: a tampered grid size must fail here, not by allocating a
  // total_cells-proportional buffer that no real artifact set could fill.
  std::size_t provided = 0;
  for (const ShardArtifact& artifact : artifacts) {
    support::check(artifact.sweep == head.sweep,
                   "cannot merge artifacts from different sweeps ('" + head.sweep +
                       "' vs '" + artifact.sweep + "')");
    support::check(artifact.params == head.params,
                   "cannot merge artifacts with different sweep parameters");
    support::check(artifact.shard.count == head.shard.count,
                   "cannot merge artifacts from different shard counts");
    support::check(artifact.total_cells == head.total_cells,
                   "cannot merge artifacts with different cell grids");
    provided += artifact.cells.size();
  }
  if (provided < head.total_cells) {
    throw support::CicError(std::to_string(head.total_cells - provided) + " of " +
                            std::to_string(head.total_cells) + " cells missing — pass all " +
                            std::to_string(head.shard.count) + " shard artifacts");
  }
  MergeState merge;
  for (ShardArtifact& artifact : artifacts) merge.add(std::move(artifact));
  return std::move(merge).finalize();
}

std::vector<CellResult> run_or_load_shard(const SweepSpec& spec, const Shard& shard,
                                          unsigned jobs, const std::string& path, bool force,
                                          bool* reused) {
  if (reused != nullptr) *reused = false;
  if (!force) {
    // Resume: a valid artifact for exactly this (sweep, params, shard) means
    // the work is already done. Anything else — missing file, truncated or
    // tampered JSON, different parameters — falls through to a fresh run
    // that overwrites it.
    try {
      ShardArtifact artifact = load_shard_artifact(path);
      if (artifact_matches(artifact, spec, shard)) {
        std::vector<CellResult> results(spec.cells);
        for (ShardArtifact::Cell& cell : artifact.cells) {
          results[cell.index] = std::move(cell.result);
        }
        if (reused != nullptr) *reused = true;
        return results;
      }
    } catch (const support::CicError&) {
    }
  }
  std::vector<CellResult> results = run_cells(spec, shard, jobs);
  write_shard_artifact(path, spec, shard, results);
  return results;
}

std::string_view param(const SweepParams& params, std::string_view name) {
  for (const auto& [key, value] : params) {
    if (key == name) return value;
  }
  throw support::CicError("shard artifact lacks parameter '" + std::string(name) + "'");
}

}  // namespace cicmon::exp
