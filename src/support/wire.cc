#include "support/wire.h"

#include <algorithm>

#include "obs/metrics.h"
#include "support/error.h"

namespace cicmon::support {
namespace {

// Wire-layer telemetry. Counted here — the one chokepoint every frame and
// chunk passes through — so the session and orchestrator layers never have
// to remember to count their sends and receives.
void count_frame_sent(std::size_t frame_bytes) {
  static const obs::CounterId k_frames = obs::counter("wire.frames.sent");
  static const obs::CounterId k_bytes = obs::counter("wire.bytes.sent");
  obs::bump(k_frames);
  obs::bump(k_bytes, frame_bytes);
}

void count_frame_received(std::size_t frame_bytes) {
  static const obs::CounterId k_frames = obs::counter("wire.frames.received");
  static const obs::CounterId k_bytes = obs::counter("wire.bytes.received");
  obs::bump(k_frames);
  obs::bump(k_bytes, frame_bytes);
}

void count_violation() {
  static const obs::CounterId k_violations = obs::counter("wire.violations");
  obs::bump(k_violations);
}

void count_checksum_failure() {
  static const obs::CounterId k_checksum = obs::counter("wire.checksum_failures");
  obs::bump(k_checksum);
}

// The header line is tiny ("cicmon-wire-1 <= 7 digits, 16 hex"); a buffer
// with no newline in this many bytes is not a frame header at all.
constexpr std::size_t kMaxHeaderBytes = 64;

bool parse_hex_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

bool parse_dec_size(std::string_view text, std::size_t* out) {
  if (text.empty() || text.size() > 8) return false;  // 8 digits > kMaxWirePayload
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
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

// A peek at the offending bytes for teardown logs, with control characters
// masked so a binary-garbage frame cannot mangle the terminal.
std::string preview(std::string_view bytes) {
  std::string out;
  for (const char c : bytes.substr(0, 32)) {
    out += (c >= 0x20 && c < 0x7F) ? c : '.';
  }
  if (bytes.size() > 32) out += "...";
  return out;
}

}  // namespace

std::uint64_t wire_checksum(std::string_view payload, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;  // FNV prime
  }
  return hash;
}

std::string wire_frame(std::string_view payload) {
  check(payload.size() <= kMaxWirePayload,
        "wire_frame: payload exceeds the " + std::to_string(kMaxWirePayload) +
            "-byte frame limit");
  std::string frame;
  frame.reserve(payload.size() + 48);
  frame += kWireMagic;
  frame += ' ';
  frame += std::to_string(payload.size());
  frame += ' ';
  frame += hex16(wire_checksum(payload));
  frame += '\n';
  frame += payload;
  frame += '\n';
  count_frame_sent(frame.size());
  return frame;
}

void FrameReader::feed(std::string_view bytes) { buffer_.append(bytes); }

FrameReader::Status FrameReader::fail(std::string* error, std::string why) {
  count_violation();
  dead_ = true;
  dead_reason_ = std::move(why);
  buffer_.clear();
  if (error != nullptr) *error = dead_reason_;
  return Status::kBad;
}

FrameReader::Status FrameReader::next(std::string* payload, std::string* error) {
  if (dead_) {
    if (error != nullptr) *error = dead_reason_;
    return Status::kBad;
  }
  if (buffer_.empty()) return Status::kNeedMore;

  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      return fail(error, "unterminated frame header: '" + preview(buffer_) + "'");
    }
    return Status::kNeedMore;
  }
  const std::string_view header = std::string_view(buffer_).substr(0, newline);
  if (newline > kMaxHeaderBytes) {
    return fail(error, "oversized frame header: '" + preview(header) + "'");
  }

  // "cicmon-wire-1 <len> <checksum>" — strict: exactly three tokens, and the
  // magic mismatch message calls out version skew, the likeliest cause.
  const std::size_t sp1 = header.find(' ');
  if (header.substr(0, sp1) != kWireMagic) {
    return fail(error, "not a " + std::string(kWireMagic) + " frame: '" + preview(header) + "'");
  }
  const std::size_t sp2 = header.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || header.find(' ', sp2 + 1) != std::string_view::npos) {
    return fail(error, "malformed frame header: '" + preview(header) + "'");
  }
  std::size_t length = 0;
  if (!parse_dec_size(header.substr(sp1 + 1, sp2 - sp1 - 1), &length)) {
    return fail(error, "malformed frame length: '" + preview(header) + "'");
  }
  if (length > kMaxWirePayload) {
    return fail(error, "oversized frame: " + std::to_string(length) + " bytes (limit " +
                           std::to_string(kMaxWirePayload) + ")");
  }
  std::uint64_t expected = 0;
  if (!parse_hex_u64(header.substr(sp2 + 1), &expected)) {
    return fail(error, "malformed frame checksum: '" + preview(header) + "'");
  }

  // Header accepted; wait for payload + the closing newline.
  const std::size_t frame_end = newline + 1 + length + 1;
  if (buffer_.size() < frame_end) return Status::kNeedMore;
  if (buffer_[frame_end - 1] != '\n') {
    return fail(error, "frame payload not terminated by newline");
  }
  const std::string_view body = std::string_view(buffer_).substr(newline + 1, length);
  const std::uint64_t actual = wire_checksum(body);
  if (actual != expected) {
    count_checksum_failure();
    return fail(error, "frame checksum mismatch (expected " + hex16(expected) + ", got " +
                           hex16(actual) + ")");
  }
  payload->assign(body);
  buffer_.erase(0, frame_end);
  count_frame_received(frame_end);
  return Status::kFrame;
}

namespace {

// Data bytes per chunk: leave comfortable room for the chunk header line so
// the full chunk payload stays under the frame cap.
constexpr std::size_t kMaxChunkData = kMaxWirePayload - 64;

}  // namespace

std::vector<std::string> chunk_payloads(std::string_view blob) {
  const std::size_t total =
      blob.empty() ? 1 : (blob.size() + kMaxChunkData - 1) / kMaxChunkData;
  std::vector<std::string> chunks;
  chunks.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    const std::string_view data =
        blob.substr(index * kMaxChunkData,
                    std::min(kMaxChunkData, blob.size() - index * kMaxChunkData));
    std::string payload;
    payload.reserve(data.size() + 64);
    payload += kChunkMagic;
    payload += ' ';
    payload += std::to_string(index);
    payload += ' ';
    payload += std::to_string(total);
    payload += ' ';
    payload += hex16(wire_checksum(data));
    payload += '\n';
    payload.append(data);
    chunks.push_back(std::move(payload));
  }
  static const obs::CounterId k_chunks = obs::counter("wire.chunks.sent");
  obs::bump(k_chunks, total);
  return chunks;
}

ChunkAssembler::Status ChunkAssembler::fail(std::string* error, std::string why) {
  count_violation();
  dead_ = true;
  dead_reason_ = std::move(why);
  blob_.clear();
  if (error != nullptr) *error = dead_reason_;
  return Status::kBad;
}

ChunkAssembler::Status ChunkAssembler::feed(std::string_view payload, std::string* error) {
  if (dead_) {
    if (error != nullptr) *error = dead_reason_;
    return Status::kBad;
  }
  if (done_) {
    return fail(error, "chunk after the sequence completed");
  }

  const std::size_t newline = payload.find('\n');
  if (newline == std::string_view::npos || newline > kMaxHeaderBytes) {
    return fail(error, "malformed chunk header: '" + preview(payload) + "'");
  }
  const std::string_view header = payload.substr(0, newline);
  const std::size_t sp1 = header.find(' ');
  if (header.substr(0, sp1) != kChunkMagic) {
    return fail(error, "not a " + std::string(kChunkMagic) + " payload: '" +
                           preview(header) + "'");
  }
  const std::size_t sp2 = header.find(' ', sp1 + 1);
  const std::size_t sp3 =
      sp2 == std::string_view::npos ? sp2 : header.find(' ', sp2 + 1);
  if (sp2 == std::string_view::npos || sp3 == std::string_view::npos ||
      header.find(' ', sp3 + 1) != std::string_view::npos) {
    return fail(error, "malformed chunk header: '" + preview(header) + "'");
  }
  std::size_t index = 0;
  std::size_t total = 0;
  if (!parse_dec_size(header.substr(sp1 + 1, sp2 - sp1 - 1), &index) ||
      !parse_dec_size(header.substr(sp2 + 1, sp3 - sp2 - 1), &total) || total == 0) {
    return fail(error, "malformed chunk sequence numbers: '" + preview(header) + "'");
  }
  std::uint64_t expected = 0;
  if (!parse_hex_u64(header.substr(sp3 + 1), &expected)) {
    return fail(error, "malformed chunk checksum: '" + preview(header) + "'");
  }

  // Sequence validity: the first chunk fixes the total; every chunk must be
  // the next expected index. A duplicate, gap, or reordering shows up here
  // as index != received_ and kills the sequence.
  if (received_ == 0) {
    total_ = total;
  } else if (total != total_) {
    return fail(error, "chunk total changed mid-sequence (" + std::to_string(total_) +
                           " -> " + std::to_string(total) + ")");
  }
  if (index != received_) {
    return fail(error, "chunk out of sequence (expected " + std::to_string(received_) +
                           ", got " + std::to_string(index) + " of " +
                           std::to_string(total_) + ")");
  }

  const std::string_view data = payload.substr(newline + 1);
  const std::uint64_t actual = wire_checksum(data);
  if (actual != expected) {
    count_checksum_failure();
    return fail(error, "chunk checksum mismatch (expected " + hex16(expected) +
                           ", got " + hex16(actual) + ")");
  }

  static const obs::CounterId k_chunks = obs::counter("wire.chunks.received");
  obs::bump(k_chunks);
  blob_.append(data);
  ++received_;
  if (received_ == total_) {
    done_ = true;
    return Status::kDone;
  }
  return Status::kChunk;
}

}  // namespace cicmon::support
