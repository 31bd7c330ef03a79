// iatf::net -- the "iatf-wire 1" framing protocol.
//
// Everything the daemon reads off a socket flows through this header's
// strict decoder before any engine code sees it, so the decoder is the
// trust boundary: it must classify every possible byte sequence --
// truncated, oversized, bit-flipped, adversarial -- as either a
// well-formed frame or a stable WireError, without crashing, leaking,
// or reading out of bounds. It is a pure byte-in/event-out state
// machine (no sockets, no time, no allocation beyond the bounded frame
// buffer), which is what makes it directly fuzzable
// (tests/fuzz/test_fuzz_wire.cpp).
//
// Frame layout (all integers little-endian):
//
//   offset size field
//   0      4    magic        "IATF" (0x46544149)
//   4      1    version      1
//   5      1    type         FrameType
//   6      2    reserved     must be 0
//   8      8    request_id   client-chosen correlation id
//   16     4    payload_len  bounded by the receiver's max_payload
//   20     4    payload_crc  CRC-32 (IEEE) over the payload bytes
//   24     ..   payload
//
// Error discipline: a header whose framing cannot be trusted (bad
// magic, unknown version, non-zero reserved bits, oversized length) is
// FATAL -- the receiver answers with one ERROR frame and closes,
// because byte boundaries beyond it are unknowable. A frame whose
// header is self-consistent but whose payload is bad (CRC mismatch,
// malformed submit, bogus enum) is NON-FATAL: the frame is rejected
// with an ERROR frame carrying the offending request_id and the
// connection keeps its framing. The decoder never throws on input
// bytes; only on programmer error (feeding a failed decoder).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "iatf/common/crc32.hpp"
#include "iatf/common/types.hpp"

namespace iatf::net {

inline constexpr std::uint32_t kWireMagic = 0x46544149u; // "IATF"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
/// Default bound on payload_len; the daemon's --max-payload-mb knob
/// tightens or widens it per deployment.
inline constexpr std::size_t kDefaultMaxPayload = 16u << 20;

/// Frame types of iatf-wire 1. A connection must open with Hello (the
/// version handshake); anything else first is a Protocol error.
enum class FrameType : std::uint8_t {
  Hello = 1,      ///< client->server: u32 wire version
  HelloAck = 2,   ///< server->client: version + caps
  SubmitGemm = 3, ///< client->server: descriptor + A/B/C data
  Result = 4,     ///< server->client: status (+ C data when Ok)
  Error = 5,      ///< server->client: stable wire-level refusal
  Ping = 6,       ///< client->server: liveness probe (empty payload)
  Pong = 7,       ///< server->client: probe answer (empty payload)
  Cancel = 8,     ///< client->server: cancel the queued request_id
  Goodbye = 9,    ///< client->server: no more submits; close when idle
};

/// Stable wire-level error taxonomy (values are wire format; never
/// renumber). `fatal` below says which of these end the connection.
enum class WireError : std::uint32_t {
  None = 0,
  BadMagic = 1,       ///< fatal: stream is not iatf-wire
  BadVersion = 2,     ///< fatal: unknown protocol revision
  BadReserved = 3,    ///< fatal: reserved header bits set
  Oversized = 4,      ///< fatal: payload_len above the receiver bound
  BadType = 5,        ///< frame skipped: unknown FrameType
  BadCrc = 6,         ///< frame skipped: payload CRC mismatch
  BadPayload = 7,     ///< frame skipped: malformed/ill-sized payload
  Protocol = 8,       ///< frame refused: wrong state (no Hello, dup id)
  Busy = 9,           ///< connection shed at accept (connection cap)
  ShuttingDown = 10,  ///< submit refused: daemon is draining
  UnknownRequest = 11,///< cancel of an id that is not pending
  Backpressure = 12,  ///< submit refused: per-connection cap reached
};

const char* to_string(FrameType type) noexcept;
const char* to_string(WireError error) noexcept;
/// True for errors after which the byte stream cannot be re-framed.
bool is_fatal(WireError error) noexcept;

/// The frame payload checksum: the library's one CRC-32
/// (common/crc32.hpp), which the health ledger journals with too.
using iatf::crc32;

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::Hello;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Serialise one frame (header + CRC computed here) onto `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);

/// Incremental strict decoder: feed() arbitrary byte chunks, then pull
/// next() until NeedMore. After a fatal error the decoder latches: every
/// further next() repeats the error and feed() discards input (the
/// connection is done; remaining bytes are unframeable).
class Decoder {
public:
  explicit Decoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  struct Event {
    enum class Kind { NeedMore, Frame, Error } kind = Kind::NeedMore;
    net::Frame frame;                    ///< valid when kind == Frame
    WireError error = WireError::None;   ///< valid when kind == Error
    std::uint64_t request_id = 0;        ///< offender id when known
    bool fatal = false;                  ///< close after answering
  };

  void feed(const void* data, std::size_t size);
  Event next();

  std::size_t buffered() const noexcept { return buf_.size() - pos_; }
  bool failed() const noexcept { return fatal_ != WireError::None; }
  std::size_t max_payload() const noexcept { return max_payload_; }

private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0; ///< consumed prefix of buf_
  std::size_t max_payload_;
  WireError fatal_ = WireError::None;
  std::uint64_t fatal_id_ = 0;
};

// ---- Payload codecs ---------------------------------------------------
//
// Fixed little-endian layouts; every parse_* is total (never throws,
// never reads past the span) and returns WireError::None or the precise
// refusal. Reserved bytes must be zero so revision bumps stay
// detectable.

/// SubmitGemm payload: a 52-byte descriptor followed by the A, B and C
/// batches as contiguous column-major matrices (matrix b of A starts at
/// element b*m*k, and so on). dtype is 's' or 'd'.
struct GemmSubmit {
  char dtype = 'd';
  std::uint8_t op_a = 0; ///< iatf::Op value (0/1/2)
  std::uint8_t op_b = 0;
  std::uint32_t m = 0, n = 0, k = 0, batch = 0;
  std::uint32_t tenant = 0;
  double alpha = 1.0, beta = 0.0;
  /// Client-side relative deadline budget in ms (0 = none); the server
  /// charges socket/decode time since the frame's first byte against it.
  double deadline_ms = 0.0;
  /// Views into the parsed payload (element type per dtype).
  std::span<const std::uint8_t> a, b, c;
};

/// Dimension sanity bounds. The engine itself rejects sizes above the
/// kernel grid with Status::Unsupported; these wire bounds only stop a
/// hostile client from forcing pathological allocations before the
/// engine ever sees the request.
inline constexpr std::uint32_t kMaxWireDim = 4096;
inline constexpr std::uint32_t kMaxWireBatch = 1u << 20;
/// Largest relative deadline a request may carry, in ms (about 31.7
/// years); the trace format and iatf_loadgen refuse what the wire would.
inline constexpr double kMaxWireDeadlineMs = 1e12;

WireError parse_gemm_submit(std::span<const std::uint8_t> payload,
                            GemmSubmit& out) noexcept;
/// Builder (client side): appends descriptor + data to `payload`.
/// a/b/c sizes must match the descriptor; checked with IATF_CHECK.
void append_gemm_submit(std::vector<std::uint8_t>& payload,
                        const GemmSubmit& submit);

/// Result payload: i32 status, u32 reserved, then the C batch
/// (column-major contiguous) iff status == 0.
struct ResultMsg {
  std::int32_t status = 0;
  std::span<const std::uint8_t> c;
};
WireError parse_result(std::span<const std::uint8_t> payload,
                       ResultMsg& out) noexcept;
void append_result(std::vector<std::uint8_t>& payload, std::int32_t status,
                   std::span<const std::uint8_t> c);

/// Error payload: u32 WireError code, i32 iatf_status (0 when the
/// refusal is purely wire-level), u16 message length, u16 reserved,
/// message bytes.
struct ErrorMsg {
  WireError code = WireError::None;
  std::int32_t status = 0;
  std::string message;
};
WireError parse_error(std::span<const std::uint8_t> payload,
                      ErrorMsg& out) noexcept;
void append_error(std::vector<std::uint8_t>& payload, WireError code,
                  std::int32_t status, std::string_view message);

/// Hello payload: u32 wire version. HelloAck payload: u32 accepted
/// version, u32 server max_payload, u32 per-connection submit cap.
struct HelloAckMsg {
  std::uint32_t version = kWireVersion;
  std::uint32_t max_payload = 0;
  std::uint32_t max_outstanding = 0;
};
WireError parse_hello(std::span<const std::uint8_t> payload,
                      std::uint32_t& version) noexcept;
void append_hello(std::vector<std::uint8_t>& payload);
WireError parse_hello_ack(std::span<const std::uint8_t> payload,
                          HelloAckMsg& out) noexcept;
void append_hello_ack(std::vector<std::uint8_t>& payload,
                      const HelloAckMsg& ack);

} // namespace iatf::net
