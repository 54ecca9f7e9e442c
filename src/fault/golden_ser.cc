#include "fault/golden_ser.h"

#include <algorithm>

#include "support/error.h"
#include "support/wire.h"

namespace cicmon::fault {
namespace {

// --- Little-endian primitives ----------------------------------------------

void put_u8(std::string* out, std::uint8_t v) { out->push_back(static_cast<char>(v)); }

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_bytes(std::string* out, const void* data, std::size_t size) {
  put_u64(out, size);
  out->append(static_cast<const char*>(data), size);
}

// Bounds-checked reader. Every violation throws: the caller treats a bad
// blob as "decline and derive locally", so loud failure is the contract.
class Cursor {
 public:
  explicit Cursor(std::string_view blob) : blob_(blob) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(blob_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(blob_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(blob_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string_view bytes() {
    const std::uint64_t size = u64();
    need(size);
    const std::string_view out = blob_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  // Guards count-prefixed loops: a hostile count must not drive a
  // multi-gigabyte reserve before the bytes fail to materialize.
  void need_per_item(std::uint64_t count, std::size_t min_item_bytes) {
    support::check(count <= (blob_.size() - pos_) / min_item_bytes,
                   "golden blob: item count exceeds remaining bytes");
  }

  bool exhausted() const { return pos_ == blob_.size(); }

 private:
  void need(std::uint64_t n) {
    support::check(n <= blob_.size() - pos_, "golden blob truncated");
  }

  std::string_view blob_;
  std::size_t pos_ = 0;
};

// --- Page maps --------------------------------------------------------------

bool page_is_zero(const mem::Memory::Page& page) {
  return std::all_of(page.begin(), page.end(), [](std::uint8_t b) { return b == 0; });
}

// Ascending key order keeps encoding deterministic across unordered_map
// iteration orders. `elide_zero` is true only for the image base.
void put_pages(std::string* out, const mem::Memory::PageMap& pages, bool elide_zero) {
  std::vector<const std::pair<const std::uint32_t, mem::Memory::Page>*> sorted;
  sorted.reserve(pages.size());
  for (const auto& entry : pages) {
    if (elide_zero && page_is_zero(entry.second)) continue;
    sorted.push_back(&entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  put_u64(out, sorted.size());
  for (const auto* entry : sorted) {
    put_u32(out, entry->first);
    put_bytes(out, entry->second.data(), entry->second.size());
  }
}

mem::Memory::PageMap get_pages(Cursor* in) {
  const std::uint64_t count = in->u64();
  in->need_per_item(count, 12);  // key + length prefix per page, minimum
  mem::Memory::PageMap pages;
  pages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t key = in->u32();
    const std::string_view data = in->bytes();
    support::check(data.size() == mem::Memory::kPageSize, "golden blob: bad page size");
    support::check(pages.find(key) == pages.end(), "golden blob: duplicate page");
    pages.emplace(key, mem::Memory::Page(data.begin(), data.end()));
  }
  return pages;
}

// --- Nested state ------------------------------------------------------------

void put_iht_stats(std::string* out, const cic::IhtStats& s) {
  put_u64(out, s.lookups);
  put_u64(out, s.hits);
  put_u64(out, s.misses);
  put_u64(out, s.mismatches);
}

cic::IhtStats get_iht_stats(Cursor* in) {
  cic::IhtStats s;
  s.lookups = in->u64();
  s.hits = in->u64();
  s.misses = in->u64();
  s.mismatches = in->u64();
  return s;
}

void put_os_stats(std::string* out, const os::OsMonitorStats& s) {
  put_u64(out, s.miss_exceptions);
  put_u64(out, s.mismatch_exceptions);
  put_u64(out, s.refills);
  put_u64(out, s.records_loaded);
  put_u64(out, s.fht_probes);
  put_u64(out, s.cycles_charged);
}

os::OsMonitorStats get_os_stats(Cursor* in) {
  os::OsMonitorStats s;
  s.miss_exceptions = in->u64();
  s.mismatch_exceptions = in->u64();
  s.refills = in->u64();
  s.records_loaded = in->u64();
  s.fht_probes = in->u64();
  s.cycles_charged = in->u64();
  return s;
}

void put_result(std::string* out, const cpu::RunResult& r) {
  put_u8(out, static_cast<std::uint8_t>(r.reason));
  put_u32(out, r.exit_code);
  put_u8(out, static_cast<std::uint8_t>(r.monitor_cause));
  put_u64(out, r.instructions);
  put_u64(out, r.cycles);
  put_u64(out, r.monitor_cycles);
  put_u64(out, r.branch_bubbles);
  put_u64(out, r.load_use_stalls);
  put_u64(out, r.muldiv_stalls);
  put_u64(out, r.icache_stall_cycles);
  put_iht_stats(out, r.iht);
  put_os_stats(out, r.os);
  put_bytes(out, r.console.data(), r.console.size());
  put_u32(out, r.check_observed);
  put_u32(out, r.check_expected);
}

cpu::RunResult get_result(Cursor* in) {
  cpu::RunResult r;
  const std::uint8_t reason = in->u8();
  support::check(reason <= static_cast<std::uint8_t>(cpu::ExitReason::kWatchdog),
                 "golden blob: bad exit reason");
  r.reason = static_cast<cpu::ExitReason>(reason);
  r.exit_code = in->u32();
  const std::uint8_t cause = in->u8();
  support::check(cause <= static_cast<std::uint8_t>(os::TerminationCause::kNotInFht),
                 "golden blob: bad termination cause");
  r.monitor_cause = static_cast<os::TerminationCause>(cause);
  r.instructions = in->u64();
  r.cycles = in->u64();
  r.monitor_cycles = in->u64();
  r.branch_bubbles = in->u64();
  r.load_use_stalls = in->u64();
  r.muldiv_stalls = in->u64();
  r.icache_stall_cycles = in->u64();
  r.iht = get_iht_stats(in);
  r.os = get_os_stats(in);
  const std::string_view console = in->bytes();
  r.console.assign(console.data(), console.size());
  r.check_observed = in->u32();
  r.check_expected = in->u32();
  return r;
}

void put_checker(std::string* out, const cic::CheckerState& c) {
  put_u64(out, c.iht.entries.size());
  for (const cic::IhtEntry& e : c.iht.entries) {
    put_u32(out, e.start);
    put_u32(out, e.end);
    put_u32(out, e.hash);
    put_u8(out, e.valid ? 1 : 0);
    put_u64(out, e.last_use);
    put_u64(out, e.fill_order);
  }
  put_iht_stats(out, c.iht.stats);
  put_u64(out, c.iht.use_clock);
  put_u64(out, c.iht.fill_clock);
  put_u64(out, c.iht.rng.s0);
  put_u64(out, c.iht.rng.s1);
  put_u32(out, c.last_lookup.start);
  put_u32(out, c.last_lookup.end);
  put_u32(out, c.last_lookup.hash);
}

cic::CheckerState get_checker(Cursor* in) {
  cic::CheckerState c;
  const std::uint64_t entries = in->u64();
  in->need_per_item(entries, 29);
  c.iht.entries.reserve(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    cic::IhtEntry e;
    e.start = in->u32();
    e.end = in->u32();
    e.hash = in->u32();
    e.valid = in->u8() != 0;
    e.last_use = in->u64();
    e.fill_order = in->u64();
    c.iht.entries.push_back(e);
  }
  c.iht.stats = get_iht_stats(in);
  c.iht.use_clock = in->u64();
  c.iht.fill_clock = in->u64();
  c.iht.rng.s0 = in->u64();
  c.iht.rng.s1 = in->u64();
  c.last_lookup.start = in->u32();
  c.last_lookup.end = in->u32();
  c.last_lookup.hash = in->u32();
  return c;
}

void put_icache(std::string* out, const mem::ICache::State& s) {
  put_u64(out, s.lines.size());
  for (const auto& line : s.lines) {
    put_u8(out, line.valid ? 1 : 0);
    put_u32(out, line.tag);
  }
  put_u64(out, s.words.size());
  for (const std::uint32_t w : s.words) put_u32(out, w);
  put_u64(out, s.hits);
  put_u64(out, s.misses);
}

mem::ICache::State get_icache(Cursor* in) {
  mem::ICache::State s;
  const std::uint64_t lines = in->u64();
  in->need_per_item(lines, 5);
  s.lines.reserve(lines);
  for (std::uint64_t i = 0; i < lines; ++i) {
    mem::ICache::Line line;
    line.valid = in->u8() != 0;
    line.tag = in->u32();
    s.lines.push_back(line);
  }
  const std::uint64_t words = in->u64();
  in->need_per_item(words, 4);
  s.words.reserve(words);
  for (std::uint64_t i = 0; i < words; ++i) s.words.push_back(in->u32());
  s.hits = in->u64();
  s.misses = in->u64();
  return s;
}

void put_snapshot(std::string* out, const cpu::Snapshot& s) {
  put_u64(out, s.instructions);
  put_u64(out, s.bus_transfers);
  for (const std::uint32_t r : s.gpr) put_u32(out, r);
  for (const std::uint32_t r : s.special) put_u32(out, r);
  put_result(out, s.result);
  put_u8(out, s.pc_redirected ? 1 : 0);
  put_u8(out, s.pending_exc.has_value() ? 1 : 0);
  put_u8(out, s.pending_exc.value_or(0));
  put_u64(out, s.hilo_ready_cycle);
  put_u32(out, static_cast<std::uint32_t>(s.prev_load_dst));
  put_u8(out, s.checker.has_value() ? 1 : 0);
  if (s.checker) put_checker(out, *s.checker);
  put_u8(out, s.os_stats.has_value() ? 1 : 0);
  if (s.os_stats) put_os_stats(out, *s.os_stats);
  put_u8(out, s.icache.has_value() ? 1 : 0);
  if (s.icache) put_icache(out, *s.icache);
  put_u64(out, s.pending_stall_cycles);
  put_pages(out, s.memory_delta, /*elide_zero=*/false);
}

cpu::Snapshot get_snapshot(Cursor* in) {
  cpu::Snapshot s;
  s.instructions = in->u64();
  s.bus_transfers = in->u64();
  for (std::uint32_t& r : s.gpr) r = in->u32();
  for (std::uint32_t& r : s.special) r = in->u32();
  s.result = get_result(in);
  s.pc_redirected = in->u8() != 0;
  const bool has_exc = in->u8() != 0;
  const std::uint8_t exc = in->u8();
  if (has_exc) s.pending_exc = exc;
  s.hilo_ready_cycle = in->u64();
  s.prev_load_dst = in->u32();
  if (in->u8() != 0) s.checker = get_checker(in);
  if (in->u8() != 0) s.os_stats = get_os_stats(in);
  if (in->u8() != 0) s.icache = get_icache(in);
  s.pending_stall_cycles = in->u64();
  s.memory_delta = get_pages(in);
  return s;
}

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i) {
    text[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return text;
}

}  // namespace

std::string golden_key(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string canonical;
  for (const auto& [name, value] : fields) {
    canonical += name;
    canonical += '=';
    canonical += value;
    canonical += '\n';
  }
  return hex16(support::wire_checksum(canonical));
}

std::string encode_golden(const GoldenState& state, std::string_view key) {
  support::check(key.size() == kGoldenMagic.size(), "encode_golden: malformed key");
  std::string out;
  out += kGoldenMagic;
  out += key;

  // Image section.
  put_u32(&out, state.entry);
  put_u8(&out, state.fht_was_attached ? 1 : 0);
  put_bytes(&out, state.fht_blob.data(), state.fht_blob.size());
  put_pages(&out, state.image_pages, /*elide_zero=*/true);

  // Golden-run section.
  put_u64(&out, state.stride);
  put_u64(&out, state.snapshots.size());
  for (const cpu::Snapshot& s : state.snapshots) put_snapshot(&out, s);

  // Result section, whole-record checksum.
  put_result(&out, state.result);
  put_u64(&out, support::wire_checksum(out));
  return out;
}

GoldenState decode_golden(std::string_view blob, std::string_view expected_key) {
  support::check(blob.size() >= kGoldenMagic.size() + 16 + 8, "golden blob truncated");
  support::check(blob.substr(0, kGoldenMagic.size()) == kGoldenMagic,
                 "not a " + std::string(kGoldenMagic) + " blob");
  // Checksum before structure: a flipped byte anywhere (including inside the
  // stored checksum) fails here, so parsing below only ever sees intact data.
  {
    const std::string_view body = blob.substr(0, blob.size() - 8);
    Cursor tail(blob.substr(blob.size() - 8));
    support::check(tail.u64() == support::wire_checksum(body),
                   "golden blob checksum mismatch");
  }
  const std::string_view key = blob.substr(kGoldenMagic.size(), 16);
  support::check(key == expected_key,
                 "golden blob key mismatch (expected " + std::string(expected_key) +
                     ", got " + std::string(key) + ")");

  Cursor in(blob.substr(kGoldenMagic.size() + 16, blob.size() - kGoldenMagic.size() - 16 - 8));
  GoldenState state;
  state.entry = in.u32();
  state.fht_was_attached = in.u8() != 0;
  const std::string_view fht = in.bytes();
  state.fht_blob.assign(fht.begin(), fht.end());
  state.image_pages = get_pages(&in);

  state.stride = in.u64();
  const std::uint64_t snapshots = in.u64();
  in.need_per_item(snapshots, 64);
  state.snapshots.reserve(snapshots);
  for (std::uint64_t i = 0; i < snapshots; ++i) state.snapshots.push_back(get_snapshot(&in));

  state.result = get_result(&in);
  support::check(in.exhausted(), "golden blob has trailing bytes");
  return state;
}

}  // namespace cicmon::fault
