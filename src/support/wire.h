// Length/checksum-framed record protocol for worker-session pipes.
//
// A persistent dispatch worker serves many shard assignments over its
// stdin/stdout, so the byte stream needs framing that survives the real
// failure modes of a pipe to a process that can die at any instant:
//
//  * truncation — the peer was killed mid-record; the partial frame at EOF
//    must be detected, never silently dropped or half-parsed;
//  * corruption — a stray printf into the protocol stream, a buggy wrapper,
//    or a bit flip must fail loudly, not decode as a different record;
//  * resource abuse — a babbling peer must not make the reader buffer an
//    arbitrarily large "record".
//
// Each frame is one header line followed by the payload bytes and a closing
// newline:
//
//     cicmon-wire-1 <payload-bytes> <fnv1a64-hex>\n<payload>\n
//
// The payload is an arbitrary byte string (a support::JsonWriter document
// for session records, raw binary for golden-state chunks); the length makes
// embedded newlines and binary bytes safe and the checksum makes corruption
// detectable. The magic token carries the framing version: a reader only
// accepts frames of its own version, so a future incompatible framing bumps
// the token and old/new peers fail the handshake instead of misparsing each
// other. (Message *content* versioning is layered on top: see
// kSessionProtocolVersion in dist/session.h.)
//
// Bulk records larger than one frame (golden-state shipping) are carried as
// a sequence of chunk payloads — see chunk_payloads / ChunkAssembler below.
// Each chunk is an ordinary frame whose payload leads with its own
// "cicmon-chunk <index> <total> <fnv1a64-hex>" header, so a reordered,
// duplicated, dropped, or corrupted chunk is a sticky violation at the
// assembler even if every individual frame arrived intact.
//
// FrameReader is push-based so one poll loop can multiplex many pipes: feed
// it whatever bytes arrived, then drain complete frames. It is strict by
// design — any malformed input poisons the reader permanently, because after
// a framing violation there is no way to know where the next record starts;
// the session owning the pipe must be torn down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cicmon::support {

// Framing-version magic leading every frame header.
inline constexpr std::string_view kWireMagic = "cicmon-wire-1";

// Hard cap on one frame's payload. Session *records* are small (a few
// hundred bytes of JSON), but bulk records — golden-state shipment chunks —
// legitimately run right up to this cap; anything past it is a corrupt
// length field or a hostile peer. Bulk data larger than one frame is split
// into a validated chunk sequence (chunk_payloads / ChunkAssembler), never
// into a bigger frame.
inline constexpr std::size_t kMaxWirePayload = 1 << 20;

// FNV-1a 64-bit — cheap, dependency-free, and plenty to catch truncation and
// accidental corruption (this is an integrity check, not authentication).
// FNV-1a is a running fold, so passing one piece's checksum as `seed`
// continues it over the next: a digest over several buffers without
// concatenating them.
inline constexpr std::uint64_t kWireChecksumSeed = 0xCBF29CE484222325ULL;  // offset basis
std::uint64_t wire_checksum(std::string_view payload, std::uint64_t seed = kWireChecksumSeed);

// Encodes one payload as a complete frame. Throws CicError when the payload
// exceeds kMaxWirePayload (an internal bug, not a peer failure).
std::string wire_frame(std::string_view payload);

class FrameReader {
 public:
  enum class Status {
    kFrame,     // a complete, checksum-verified payload was produced
    kNeedMore,  // no complete frame buffered; feed more bytes
    kBad,       // framing violation; the reader (and its pipe) are dead
  };

  // Appends bytes received from the pipe. Cheap; no parsing happens here.
  void feed(std::string_view bytes);

  // Extracts the next complete frame into `payload`. On kBad, `error`
  // describes the violation and every future call returns kBad — tear the
  // session down. Call in a loop: one feed() may complete several frames.
  Status next(std::string* payload, std::string* error);

  // True when bytes are buffered that do not (yet) form a complete frame.
  // At EOF this distinguishes a clean close from a peer that died
  // mid-record.
  bool has_partial() const { return !dead_ && !buffer_.empty(); }

 private:
  Status fail(std::string* error, std::string why);

  std::string buffer_;
  std::string dead_reason_;  // sticky after the first violation
  bool dead_ = false;
};

// ---------------------------------------------------------------------------
// Chunked bulk records.
//
// A bulk blob (e.g. a cicmon-golden-v4 record) is split into frame payloads
// of the form
//
//     cicmon-chunk <index> <total> <fnv1a64-hex>\n<data>
//
// where <index> counts from 0, <total> is the chunk count, and the checksum
// covers <data> alone. Each chunk payload (header + data) fits under
// kMaxWirePayload, so chunks travel as ordinary frames. The per-chunk
// checksum is deliberately redundant with the frame checksum: the assembler
// validates content integrity and *sequence* integrity (index order, total
// consistency, no duplicates, no trailing chunks) independently of the
// framing layer, so a peer that re-frames, reorders, or drops a chunk still
// trips a sticky violation instead of assembling silent garbage.

// Chunk-sequence magic leading every chunk payload.
inline constexpr std::string_view kChunkMagic = "cicmon-chunk";

// Splits `blob` into chunk payloads, each ready to pass to wire_frame().
// Always returns at least one chunk (an empty blob is one empty-data chunk).
std::vector<std::string> chunk_payloads(std::string_view blob);

// Reassembles a chunk sequence. Strict and sticky like FrameReader: any
// violation (bad header, out-of-order index, inconsistent total, checksum
// mismatch, chunk after completion) poisons the assembler permanently — the
// session owning the stream must be torn down or fall back.
class ChunkAssembler {
 public:
  enum class Status {
    kChunk,  // chunk accepted; more expected
    kDone,   // final chunk accepted; blob() is complete
    kBad,    // sequence violation; the assembler is dead
  };

  // Feeds one chunk payload (as produced by chunk_payloads). On kBad,
  // `error` describes the violation and every future call returns kBad.
  Status feed(std::string_view payload, std::string* error);

  // The reassembled blob; meaningful only after kDone.
  const std::string& blob() const { return blob_; }

  // Chunks accepted so far / total announced by the first chunk (0 before).
  std::size_t received() const { return received_; }
  std::size_t total() const { return total_; }

 private:
  Status fail(std::string* error, std::string why);

  std::string blob_;
  std::size_t received_ = 0;
  std::size_t total_ = 0;
  std::string dead_reason_;
  bool dead_ = false;
  bool done_ = false;
};

}  // namespace cicmon::support
