// Deterministic JSON writing and a small reader for machine artifacts.
//
// The repo's machine-readable documents (the `cicmon-shard-v2` partial-
// summary artifacts of the sweep engine, the session records and the
// `cicmon-metrics-v1` summary) flow through JsonWriter, so formatting is
// byte-stable across subcommands and hosts: two-space indentation, keys in
// insertion order, integers in decimal, and doubles in shortest round-trip
// form (std::to_chars), which guarantees parse(format(x)) == x bitwise. (Shard
// artifacts carry their result columns as base64 strings of packed bytes, so
// their doubles never pass through decimal at all.)
//
// JsonValue/parse_json is the matching reader, sized for those artifacts:
// the full JSON grammar, order-preserving objects, and numbers kept as raw
// token text so 64-bit integers survive beyond the double-exact range.
// Malformed input throws CicError with a byte offset, which the sweep
// engine surfaces as "corrupt artifact".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cicmon::support {

class JsonWriter {
 public:
  // --- Values (also used for array elements) ---
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void value(std::string_view text);  // quoted + escaped
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool boolean);
  void value_u64(std::uint64_t number);
  void value_i64(std::int64_t number);
  // Shortest form that parses back to exactly the same double.
  void value(double number);
  // Fixed-precision rendering ("%.3f") for host measurements where
  // readability beats round-tripping.
  void value_fixed(double number, int precision);

  // --- Object members: key() followed by exactly one value ---
  void key(std::string_view name);

  // The finished document (call after the outermost end_*). A trailing
  // newline is appended so artifacts are friendly to line tools.
  std::string take();

 private:
  void begin_item();  // comma/newline/indent bookkeeping before a value
  void append_escaped(std::string_view text);

  std::string out_;
  // One entry per open container: the count of items emitted so far, or -1
  // marking "a key was just written, the next value is inline".
  std::vector<int> stack_;
  bool after_key_ = false;
};

// --- Reader -----------------------------------------------------------

struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // string payload, or the raw number token
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  // Typed accessors; each throws CicError naming the expected kind.
  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_f64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  // Object member lookup; `at` throws CicError on a missing key, `find`
  // returns nullptr.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;
};

// Parses one JSON document (trailing whitespace allowed, anything else is an
// error). Throws CicError with the byte offset of the problem.
JsonValue parse_json(std::string_view text);

}  // namespace cicmon::support
