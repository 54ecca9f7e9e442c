#include "exp/sweep.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/error.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/wire.h"

namespace cicmon::exp {
namespace {

constexpr std::string_view kSchema = "cicmon-shard-v2";
constexpr std::string_view kSchemaV1 = "cicmon-shard-v1";

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

// --- Column codecs -------------------------------------------------------
//
// The u64 column is unsigned LEB128 (outcome codes and counts are small, so
// most values take one byte); the f64 column is each double's IEEE-754 bits
// as 8 little-endian bytes, so it round-trips bitwise. Both travel as
// standard padded base64, decoded strictly: any other character, misplaced
// padding or non-zero padding bits is an error, so every flipped character
// changes the decoded bytes or fails outright.

constexpr char kBase64[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string base64_encode(std::string_view bytes) {
  const auto byte = [bytes](std::size_t i) -> std::uint32_t {
    return i < bytes.size() ? static_cast<unsigned char>(bytes[i]) : 0;
  };
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    const std::uint32_t v = byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2);
    const std::size_t have = std::min<std::size_t>(3, bytes.size() - i);
    out += kBase64[v >> 18];
    out += kBase64[(v >> 12) & 63];
    out += have > 1 ? kBase64[(v >> 6) & 63] : '=';
    out += have > 2 ? kBase64[v & 63] : '=';
  }
  return out;
}

std::string base64_decode(std::string_view text, std::string_view column) {
  static const auto kValues = [] {
    std::array<std::int8_t, 256> values{};
    values.fill(-1);
    for (int i = 0; i < 64; ++i) {
      values[static_cast<unsigned char>(kBase64[i])] = static_cast<std::int8_t>(i);
    }
    return values;
  }();
  const auto fail = [column](const std::string& why) {
    throw support::CicError(std::string(column) + " column " + why);
  };
  if (text.size() % 4 != 0) fail("is not base64 (length " + std::to_string(text.size()) + ")");
  std::size_t padding = 0;
  if (!text.empty() && text.back() == '=') padding = text[text.size() - 2] == '=' ? 2 : 1;
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    const std::size_t digits = i + 4 == text.size() ? 4 - padding : 4;
    std::uint32_t v = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const int digit = k < digits ? kValues[static_cast<unsigned char>(text[i + k])] : 0;
      if (digit < 0) fail("is not base64 (character " + std::to_string(i + k) + ")");
      v = v << 6 | static_cast<std::uint32_t>(digit);
    }
    // Canonical form: the bits padding drops must be zero.
    if (digits < 4 && (v & (digits == 3 ? 0xFFU : 0xFFFFU)) != 0) {
      fail("has non-zero base64 padding bits");
    }
    out += static_cast<char>(v >> 16);
    if (digits >= 3) out += static_cast<char>((v >> 8) & 0xFF);
    if (digits == 4) out += static_cast<char>(v & 0xFF);
  }
  return out;
}

std::string leb128_encode(const std::vector<std::uint64_t>& values) {
  std::string out;
  out.reserve(values.size());
  for (std::uint64_t v : values) {
    while (v >= 0x80) {
      out += static_cast<char>((v & 0x7F) | 0x80);
      v >>= 7;
    }
    out += static_cast<char>(v);
  }
  return out;
}

// Decodes exactly `count` values that use every byte of `bytes`.
std::vector<std::uint64_t> leb128_decode(std::string_view bytes, std::size_t count) {
  const auto fail = [](const std::string& why) {
    throw support::CicError("u64 column " + why);
  };
  std::vector<std::uint64_t> values;
  values.reserve(std::min(count, bytes.size()));  // a value takes at least a byte
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (values.size() == count) fail("holds more than " + std::to_string(count) + " values");
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (pos == bytes.size()) fail("ends inside a value");
      const auto byte = static_cast<unsigned char>(bytes[pos++]);
      // Bit 63 is the last: a tenth byte above 1 overflows (and 0 or 1 ends).
      if (shift == 63 && byte > 1) fail("value overflows 64 bits");
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
    }
    values.push_back(v);
  }
  if (values.size() != count) {
    fail("holds " + std::to_string(values.size()) + " values, expected " + std::to_string(count));
  }
  return values;
}

std::string f64_encode(const std::vector<double>& values) {
  std::string out(values.size() * 8, '\0');
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof bits);
    for (std::size_t b = 0; b < 8; ++b) out[i * 8 + b] = static_cast<char>(bits >> (8 * b));
  }
  return out;
}

// Decodes exactly `count` values that use every byte of `bytes`.
std::vector<double> f64_decode(std::string_view bytes, std::size_t count) {
  support::check(bytes.size() % 8 == 0 && bytes.size() / 8 == count,
                 "f64 column holds " + std::to_string(bytes.size()) + " bytes, expected " +
                     std::to_string(count) + " values of 8");
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i * 8 + b])) << (8 * b);
    }
    std::memcpy(&values[i], &bits, sizeof bits);
  }
  return values;
}

// The digest: FNV-1a over the header fields (each length-prefixed, so no
// two headers fold to the same text) and then both columns' bytes.
std::uint64_t artifact_digest(const std::string& sweep, const SweepParams& params,
                              const Shard& shard, std::size_t total_cells, CellShape shape,
                              std::size_t cells, std::string_view u64_bytes,
                              std::string_view f64_bytes) {
  std::string header;
  const auto field = [&header](std::string_view text) {
    header += std::to_string(text.size());
    header += ':';
    header += text;
  };
  field(kSchema);
  field(sweep);
  field(std::to_string(params.size()));
  for (const auto& [name, value] : params) {
    field(name);
    field(value);
  }
  for (const std::size_t number :
       {std::size_t{shard.index}, std::size_t{shard.count}, total_cells, shape.u64, shape.f64,
        cells, u64_bytes.size(), f64_bytes.size()}) {
    field(std::to_string(number));
  }
  return support::wire_checksum(f64_bytes,
                                support::wire_checksum(u64_bytes, support::wire_checksum(header)));
}

std::string hex_digest(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
  return text;
}

bool has_shape(const CellResult& result, CellShape shape) {
  return result.u64.size() == shape.u64 && result.f64.size() == shape.f64;
}

// Throws unless `result` has the sweep's declared shape.
void check_shape(const SweepSpec& spec, std::size_t cell, const CellResult& result) {
  if (has_shape(result, spec.shape)) return;
  throw support::CicError("sweep '" + spec.sweep + "' cell " + std::to_string(cell) +
                          " returned " + std::to_string(result.u64.size()) + " u64 + " +
                          std::to_string(result.f64.size()) +
                          " f64 slots; the sweep declares " + std::to_string(spec.shape.u64) +
                          " + " + std::to_string(spec.shape.f64));
}

}  // namespace

// --- Cells ---------------------------------------------------------------

Cells::Cells(CellShape shape, std::size_t count)
    : shape_(shape), count_(count), u64_(count * shape.u64), f64_(count * shape.f64) {}

Cells::Cells(CellShape shape, std::size_t count, std::vector<std::uint64_t> u64,
             std::vector<double> f64)
    : shape_(shape), count_(count), u64_(std::move(u64)), f64_(std::move(f64)) {
  const auto holds = [count](std::size_t values, std::size_t slots) {
    return slots == 0 ? values == 0 : values % slots == 0 && values / slots == count;
  };
  support::check(holds(u64_.size(), shape.u64) && holds(f64_.size(), shape.f64),
                 "cell columns do not match " + std::to_string(count) + " cells of " +
                     std::to_string(shape.u64) + " u64 + " + std::to_string(shape.f64) +
                     " f64 slots");
}

void Cells::set(std::size_t cell, const CellResult& result) {
  if (!has_shape(result, shape_)) {
    throw support::CicError("cell payload does not match the cells' shape");
  }
  std::copy(result.u64.begin(), result.u64.end(), u64_.data() + cell * shape_.u64);
  std::copy(result.f64.begin(), result.f64.end(), f64_.data() + cell * shape_.f64);
}

void Cells::copy_cell(std::size_t to, const Cells& source, std::size_t from) {
  const std::span<const std::uint64_t> u64 = source.u64_slots(from);
  const std::span<const double> f64 = source.f64_slots(from);
  std::copy(u64.begin(), u64.end(), u64_.data() + to * shape_.u64);
  std::copy(f64.begin(), f64.end(), f64_.data() + to * shape_.f64);
}

CellResult Cells::cell(std::size_t cell) const {
  const std::span<const std::uint64_t> u64 = u64_slots(cell);
  const std::span<const double> f64 = f64_slots(cell);
  return {{u64.begin(), u64.end()}, {f64.begin(), f64.end()}};
}

Cells::operator std::vector<CellResult>() const {
  std::vector<CellResult> results;
  results.reserve(count_);
  for (std::size_t c = 0; c < count_; ++c) results.push_back(cell(c));
  return results;
}

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
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  support::check(slash != std::string_view::npos &&
                     support::parse_u64(text.substr(0, slash), &index) &&
                     support::parse_u64(text.substr(slash + 1), &count),
                 "--shard expects I/N, got '" + std::string(text) + "'");
  try {
    return checked_shard(index, count);
  } catch (const support::CicError&) {
    throw support::CicError("--shard needs 1 <= I <= N, got '" + std::string(text) + "'");
  }
}

Shard checked_shard(std::uint64_t index, std::uint64_t count) {
  support::check(count >= 1 && count <= std::numeric_limits<unsigned>::max() && index >= 1 &&
                     index <= count,
                 "invalid shard coordinates " + std::to_string(index) + "/" +
                     std::to_string(count));
  return Shard{static_cast<unsigned>(index), static_cast<unsigned>(count)};
}

Cells run_cells(const SweepSpec& spec, const Shard& shard, unsigned jobs) {
  const std::size_t owned = owned_cell_count(shard, spec.cells);
  // Run order as 4-byte ordinals; empty means ordinal order. The sort key
  // array lives only while sorting, 12 bytes per owned cell in all.
  std::vector<std::uint32_t> order;
  if (spec.order_key) {
    support::check(owned <= std::numeric_limits<std::uint32_t>::max(),
                   "sweep '" + spec.sweep + "': too many cells in one shard to order");
    std::vector<std::uint64_t> keys(owned);
    order.resize(owned);
    for (std::size_t j = 0; j < owned; ++j) {
      keys[j] = spec.order_key(owned_cell(shard, j));
      order[j] = static_cast<std::uint32_t>(j);
    }
    // Ordinals ascend with cell indices, so ties break by index.
    std::sort(order.begin(), order.end(), [&keys](std::uint32_t a, std::uint32_t b) {
      return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
    });
  }
  Cells cells(spec.shape, owned);
  support::parallel_for(owned, jobs, [&](std::size_t i) {
    const std::size_t ordinal = order.empty() ? i : order[i];
    const std::size_t cell = owned_cell(shard, ordinal);
    const CellResult result = spec.run_cell(cell);
    check_shape(spec, cell, result);
    cells.set(ordinal, result);
  });
  return cells;
}

Cells run_all(const SweepSpec& spec, unsigned jobs) { return run_cells(spec, Shard{1, 1}, jobs); }

std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard, const Cells& owned) {
  support::check(owned.shape() == spec.shape && owned.size() == owned_cell_count(shard, spec.cells),
                 "encode_shard_artifact: cells do not match the shard of sweep '" + spec.sweep +
                     "'");
  const std::string u64_bytes = leb128_encode(owned.u64_column());
  const std::string f64_bytes = f64_encode(owned.f64_column());
  const CellShape shape = owned.shape();
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
  json.key("shape");
  json.begin_object();
  json.key("u64");
  json.value_u64(shape.u64);
  json.key("f64");
  json.value_u64(shape.f64);
  json.end_object();
  json.key("cells");
  json.value_u64(owned.size());
  json.key("u64");
  json.value(base64_encode(u64_bytes));
  json.key("f64");
  json.value(base64_encode(f64_bytes));
  json.key("digest");
  json.value(hex_digest(artifact_digest(spec.sweep, spec.params, shard, spec.cells, shape,
                                        owned.size(), u64_bytes, f64_bytes)));
  json.end_object();
  return json.take();
}

std::string encode_shard_artifact(const SweepSpec& spec, const Shard& shard,
                                  const std::vector<CellResult>& results) {
  support::check(results.size() == spec.cells,
                 "encode_shard_artifact: result vector does not match the cell grid");
  Cells owned(spec.shape, owned_cell_count(shard, spec.cells));
  for (std::size_t j = 0; j < owned.size(); ++j) {
    const std::size_t cell = owned_cell(shard, j);
    check_shape(spec, cell, results[cell]);
    owned.set(j, results[cell]);
  }
  return encode_shard_artifact(spec, shard, owned);
}

ShardArtifact decode_shard_artifact(std::string_view text) {
  const support::JsonValue root = support::parse_json(text);
  const std::string& schema = root.at("schema").as_string();
  support::check(schema != kSchemaV1,
                 "artifact is " + std::string(kSchemaV1) + ", which this build no longer reads (" +
                     std::string(kSchema) + " only); re-run the shard to rewrite it");
  support::check(schema == kSchema, "not a " + std::string(kSchema) + " artifact");
  ShardArtifact artifact;
  artifact.sweep = root.at("sweep").as_string();
  for (const auto& [name, value] : root.at("params").as_object()) {
    artifact.params.emplace_back(name, value.as_string());
  }
  artifact.shard = checked_shard(root.at("shard").as_u64(), root.at("shard_count").as_u64());
  artifact.total_cells = root.at("total_cells").as_u64();
  const support::JsonValue& shape_json = root.at("shape");
  const CellShape shape{shape_json.at("u64").as_u64(), shape_json.at("f64").as_u64()};
  // Completeness, in O(1) and before sizing anything: a crashed writer must
  // not masquerade as a short shard, and a tampered total_cells must not buy
  // an arbitrarily large allocation.
  const std::size_t cells = root.at("cells").as_u64();
  const std::size_t expected = owned_cell_count(artifact.shard, artifact.total_cells);
  support::check(cells == expected, "artifact is incomplete: has " + std::to_string(cells) +
                                        " of " + std::to_string(expected) + " owned cells");
  const std::string u64_bytes = base64_decode(root.at("u64").as_string(), "u64");
  const std::string f64_bytes = base64_decode(root.at("f64").as_string(), "f64");
  // Every u64 value takes at least one byte and every f64 exactly eight, so
  // these bound cells * slots by the input before any column is sized.
  const auto column_fits = [cells](std::size_t slots, std::size_t values) {
    return slots == 0 ? values == 0 : cells <= values / slots;
  };
  support::check(column_fits(shape.u64, u64_bytes.size()),
                 "u64 column cannot hold " + std::to_string(cells) + " cells");
  support::check(column_fits(shape.f64, f64_bytes.size() / 8),
                 "f64 column cannot hold " + std::to_string(cells) + " cells");
  std::vector<std::uint64_t> u64 = leb128_decode(u64_bytes, cells * shape.u64);
  std::vector<double> f64 = f64_decode(f64_bytes, cells * shape.f64);
  const std::string& digest = root.at("digest").as_string();
  support::check(digest == hex_digest(artifact_digest(artifact.sweep, artifact.params,
                                                      artifact.shard, artifact.total_cells,
                                                      shape, cells, u64_bytes, f64_bytes)),
                 "artifact digest mismatch (corrupted or edited)");
  artifact.cells = Cells(shape, cells, std::move(u64), std::move(f64));
  return artifact;
}

void write_shard_artifact(const std::string& path, const SweepSpec& spec, const Shard& shard,
                          const Cells& owned) {
  write_file_atomic(path, encode_shard_artifact(spec, shard, owned));
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
         artifact.cells.shape() == spec.shape && artifact.shard.index == shard.index &&
         artifact.shard.count == shard.count && artifact.total_cells == spec.cells;
}

void MergeState::add(ShardArtifact artifact) {
  // Validate the newcomer fully before mutating anything — including the
  // head state a first artifact would establish — so a rejected artifact
  // leaves the merged state exactly as it was (the orchestrator retries
  // that shard and keeps streaming the others).
  const bool first = shard_count_ == 0;
  const Shard shard = checked_shard(artifact.shard.index, artifact.shard.count);
  if (!first) {
    support::check(artifact.sweep == sweep_, "cannot merge artifacts from different sweeps ('" +
                                                 sweep_ + "' vs '" + artifact.sweep + "')");
    support::check(artifact.params == params_,
                   "cannot merge artifacts with different sweep parameters");
    support::check(artifact.cells.shape() == cells_.shape(),
                   "cannot merge artifacts with different cell shapes");
    support::check(shard.count == shard_count_,
                   "cannot merge artifacts from different shard counts");
    support::check(artifact.total_cells == cells_.size(),
                   "cannot merge artifacts with different cell grids");
    if (shard.index <= shard_merged_.size() && shard_merged_[shard.index - 1]) {
      throw support::CicError("shard " + std::to_string(shard.index) + "/" +
                              std::to_string(shard.count) + " is covered by two artifacts");
    }
  }
  const std::size_t owned = owned_cell_count(shard, artifact.total_cells);
  if (artifact.cells.size() != owned) {
    throw support::CicError("artifact is incomplete: has " +
                            std::to_string(artifact.cells.size()) + " of " +
                            std::to_string(owned) + " owned cells");
  }
  if (first) {
    // Everything validated: the first artifact fixes the sweep identity
    // every later add is held to. Only shards 1..min(N, cells) own cells,
    // so only they get a flag: the state is bounded by the grid, not by N.
    sweep_ = artifact.sweep;
    params_ = artifact.params;
    shard_count_ = shard.count;
    shard_merged_.assign(std::min<std::size_t>(shard_count_, artifact.total_cells), false);
    cells_ = Cells(artifact.cells.shape(), artifact.total_cells);
  }
  if (owned == 0) return;  // a shard past the cell count: validated, nothing to merge
  shard_merged_[shard.index - 1] = true;
  ++shards_merged_;
  for (std::size_t j = 0; j < owned; ++j) cells_.copy_cell(owned_cell(shard, j), artifact.cells, j);
  cells_merged_ += owned;
}

std::string MergeState::progress() const {
  const std::size_t total = cells_.size();
  const double pct = total == 0 ? 0.0
                                : 100.0 * static_cast<double>(cells_merged_) /
                                      static_cast<double>(total);
  char line[96];
  std::snprintf(line, sizeof line, "%zu/%zu shards, %zu/%zu cells (%.1f%%)", shards_merged_,
                shard_merged_.size(), cells_merged_, total, pct);
  return line;
}

std::string MergeState::progress_table() const {
  std::string table = "shard  cells  state\n";
  for (unsigned index = 1; index <= shard_merged_.size(); ++index) {
    const std::size_t cells = owned_cell_count(Shard{index, shard_count_}, cells_.size());
    char row[64];
    std::snprintf(row, sizeof row, "%-5u  %-5zu  %s\n", index, cells,
                  shard_merged_[index - 1] ? "merged" : "pending");
    table += row;
  }
  return table;
}

Cells MergeState::finalize() && {
  support::check(shard_count_ > 0, "merge needs at least one shard artifact");
  const std::size_t missing = cells_.size() - cells_merged_;
  support::check(missing == 0, std::to_string(missing) + " of " +
                                   std::to_string(cells_.size()) +
                                   " cells missing — pass all " +
                                   std::to_string(shard_count_) + " shard artifacts");
  return std::move(cells_);
}

Cells merge_artifacts(std::vector<ShardArtifact> artifacts) {
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
    support::check(artifact.cells.shape() == head.cells.shape(),
                   "cannot merge artifacts with different cell shapes");
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

Cells run_or_load_shard(const SweepSpec& spec, const Shard& shard, unsigned jobs,
                        const std::string& path, bool force, bool* reused) {
  if (reused != nullptr) *reused = false;
  if (!force) {
    // Resume: a valid artifact for exactly this (sweep, params, shard) means
    // the work is already done. Anything else — missing file, truncated or
    // tampered artifact, an older schema, different parameters — falls
    // through to a fresh run that overwrites it.
    try {
      ShardArtifact artifact = load_shard_artifact(path);
      if (artifact_matches(artifact, spec, shard)) {
        if (reused != nullptr) *reused = true;
        return std::move(artifact.cells);
      }
    } catch (const support::CicError&) {
    }
  }
  Cells cells = run_cells(spec, shard, jobs);
  write_shard_artifact(path, spec, shard, cells);
  return cells;
}

std::string_view param(const SweepParams& params, std::string_view name) {
  for (const auto& [key, value] : params) {
    if (key == name) return value;
  }
  throw support::CicError("shard artifact lacks parameter '" + std::string(name) + "'");
}

}  // namespace cicmon::exp
