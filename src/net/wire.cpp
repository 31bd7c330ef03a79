// iatf-wire 1 framing: CRC, header codec, the strict incremental
// decoder, and the payload codecs. See the header for the grammar and
// the fatal/non-fatal error discipline.
#include "iatf/net/wire.hpp"

#include <algorithm>

#include "iatf/common/error.hpp"

namespace iatf::net {

namespace {

// Little-endian scalar writers/readers over raw bytes. memcpy keeps the
// accesses alignment-safe; the host is little-endian (x86-64/AArch64),
// asserted once at load time below for the exotic case.
template <class T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto size = out.size();
  out.resize(size + sizeof(T));
  std::memcpy(out.data() + size, &value, sizeof(T));
}

template <class T>
T get(std::span<const std::uint8_t> bytes, std::size_t offset) noexcept {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

bool host_is_little_endian() noexcept {
  const std::uint32_t probe = 1;
  std::uint8_t first = 0;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

const bool kHostLE = host_is_little_endian();

bool known_type(std::uint8_t type) noexcept {
  return type >= static_cast<std::uint8_t>(FrameType::Hello) &&
         type <= static_cast<std::uint8_t>(FrameType::Goodbye);
}

std::size_t element_size(char dtype) noexcept {
  return dtype == 's' ? sizeof(float) : sizeof(double);
}

} // namespace

const char* to_string(FrameType type) noexcept {
  switch (type) {
  case FrameType::Hello: return "HELLO";
  case FrameType::HelloAck: return "HELLO_ACK";
  case FrameType::SubmitGemm: return "SUBMIT_GEMM";
  case FrameType::Result: return "RESULT";
  case FrameType::Error: return "ERROR";
  case FrameType::Ping: return "PING";
  case FrameType::Pong: return "PONG";
  case FrameType::Cancel: return "CANCEL";
  case FrameType::Goodbye: return "GOODBYE";
  }
  return "UNKNOWN";
}

const char* to_string(WireError error) noexcept {
  switch (error) {
  case WireError::None: return "none";
  case WireError::BadMagic: return "bad magic";
  case WireError::BadVersion: return "unsupported wire version";
  case WireError::BadReserved: return "reserved header bits set";
  case WireError::Oversized: return "payload length above bound";
  case WireError::BadType: return "unknown frame type";
  case WireError::BadCrc: return "payload CRC mismatch";
  case WireError::BadPayload: return "malformed payload";
  case WireError::Protocol: return "protocol state violation";
  case WireError::Busy: return "connection cap reached";
  case WireError::ShuttingDown: return "server draining";
  case WireError::UnknownRequest: return "unknown request id";
  case WireError::Backpressure: return "per-connection submit cap";
  }
  return "unknown wire error";
}

bool is_fatal(WireError error) noexcept {
  switch (error) {
  case WireError::BadMagic:
  case WireError::BadVersion:
  case WireError::BadReserved:
  case WireError::Oversized:
    return true;
  default:
    return false;
  }
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload) {
  IATF_CHECK(kHostLE, "iatf-wire requires a little-endian host");
  put<std::uint32_t>(out, kWireMagic);
  put<std::uint8_t>(out, kWireVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  put<std::uint16_t>(out, 0); // reserved
  put<std::uint64_t>(out, request_id);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  put<std::uint32_t>(out, crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

// ---- Decoder ----------------------------------------------------------

void Decoder::feed(const void* data, std::size_t size) {
  if (failed()) {
    return; // unframeable from here on; drop everything
  }
  // Compact the consumed prefix before growing so the buffer stays
  // bounded by (unconsumed bytes + new chunk), not by stream length.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + size);
}

Decoder::Event Decoder::next() {
  Event ev;
  if (failed()) {
    ev.kind = Event::Kind::Error;
    ev.error = fatal_;
    ev.request_id = fatal_id_;
    ev.fatal = true;
    return ev;
  }
  const std::size_t avail = buffered();
  if (avail < kHeaderSize) {
    return ev; // NeedMore
  }
  const std::span<const std::uint8_t> head(buf_.data() + pos_,
                                           kHeaderSize);
  const std::uint32_t magic = get<std::uint32_t>(head, 0);
  const std::uint8_t version = get<std::uint8_t>(head, 4);
  const std::uint8_t type = get<std::uint8_t>(head, 5);
  const std::uint16_t reserved = get<std::uint16_t>(head, 6);
  const std::uint64_t request_id = get<std::uint64_t>(head, 8);
  const std::uint32_t payload_len = get<std::uint32_t>(head, 16);
  const std::uint32_t payload_crc = get<std::uint32_t>(head, 20);

  const auto fatal = [&](WireError error) {
    fatal_ = error;
    fatal_id_ = request_id;
    buf_.clear();
    pos_ = 0;
    ev.kind = Event::Kind::Error;
    ev.error = error;
    ev.request_id = request_id;
    ev.fatal = true;
    return ev;
  };
  if (magic != kWireMagic) {
    return fatal(WireError::BadMagic);
  }
  if (version != kWireVersion) {
    return fatal(WireError::BadVersion);
  }
  if (reserved != 0) {
    return fatal(WireError::BadReserved);
  }
  if (payload_len > max_payload_) {
    return fatal(WireError::Oversized);
  }
  if (avail < kHeaderSize + payload_len) {
    return ev; // NeedMore: wait for the full payload
  }

  const std::span<const std::uint8_t> payload(
      buf_.data() + pos_ + kHeaderSize, payload_len);
  pos_ += kHeaderSize + payload_len; // frame consumed either way
  if (!known_type(type)) {
    ev.kind = Event::Kind::Error;
    ev.error = WireError::BadType;
    ev.request_id = request_id;
    return ev;
  }
  if (crc32(payload.data(), payload.size()) != payload_crc) {
    ev.kind = Event::Kind::Error;
    ev.error = WireError::BadCrc;
    ev.request_id = request_id;
    return ev;
  }
  ev.kind = Event::Kind::Frame;
  ev.frame.header.version = version;
  ev.frame.header.type = static_cast<FrameType>(type);
  ev.frame.header.request_id = request_id;
  ev.frame.header.payload_len = payload_len;
  ev.frame.header.payload_crc = payload_crc;
  ev.frame.payload.assign(payload.begin(), payload.end());
  return ev;
}

// ---- SubmitGemm -------------------------------------------------------

namespace {
constexpr std::size_t kGemmFixed = 52;
}

WireError parse_gemm_submit(std::span<const std::uint8_t> payload,
                            GemmSubmit& out) noexcept {
  if (payload.size() < kGemmFixed) {
    return WireError::BadPayload;
  }
  const char dtype = static_cast<char>(payload[0]);
  const std::uint8_t op_a = payload[1];
  const std::uint8_t op_b = payload[2];
  const std::uint8_t reserved = payload[3];
  if ((dtype != 's' && dtype != 'd') || op_a > 2 || op_b > 2 ||
      reserved != 0) {
    return WireError::BadPayload;
  }
  const std::uint32_t m = get<std::uint32_t>(payload, 4);
  const std::uint32_t n = get<std::uint32_t>(payload, 8);
  const std::uint32_t k = get<std::uint32_t>(payload, 12);
  const std::uint32_t batch = get<std::uint32_t>(payload, 16);
  const std::uint32_t tenant = get<std::uint32_t>(payload, 20);
  const std::uint32_t reserved2 = get<std::uint32_t>(payload, 24);
  if (m < 1 || n < 1 || k < 1 || m > kMaxWireDim || n > kMaxWireDim ||
      k > kMaxWireDim || batch < 1 || batch > kMaxWireBatch ||
      reserved2 != 0) {
    return WireError::BadPayload;
  }
  const double alpha = get<double>(payload, 28);
  const double beta = get<double>(payload, 36);
  const double deadline_ms = get<double>(payload, 44);
  if (!(deadline_ms >= 0.0) || deadline_ms > kMaxWireDeadlineMs) {
    return WireError::BadPayload; // also rejects NaN
  }
  // Exact-size check: sizes are bounded above, so the products fit in
  // 64 bits with room to spare.
  const std::uint64_t es = element_size(dtype);
  const std::uint64_t a_bytes = es * m * k * batch;
  const std::uint64_t b_bytes = es * k * n * batch;
  const std::uint64_t c_bytes = es * m * n * batch;
  const std::uint64_t want = kGemmFixed + a_bytes + b_bytes + c_bytes;
  if (payload.size() != want) {
    return WireError::BadPayload;
  }
  out.dtype = dtype;
  out.op_a = op_a;
  out.op_b = op_b;
  out.m = m;
  out.n = n;
  out.k = k;
  out.batch = batch;
  out.tenant = tenant;
  out.alpha = alpha;
  out.beta = beta;
  out.deadline_ms = deadline_ms;
  out.a = payload.subspan(kGemmFixed, a_bytes);
  out.b = payload.subspan(kGemmFixed + a_bytes, b_bytes);
  out.c = payload.subspan(kGemmFixed + a_bytes + b_bytes, c_bytes);
  return WireError::None;
}

void append_gemm_submit(std::vector<std::uint8_t>& payload,
                        const GemmSubmit& submit) {
  const std::uint64_t es = element_size(submit.dtype);
  IATF_CHECK(submit.a.size() == es * submit.m * submit.k * submit.batch &&
                 submit.b.size() == es * submit.k * submit.n * submit.batch &&
                 submit.c.size() == es * submit.m * submit.n * submit.batch,
             "append_gemm_submit: data sizes disagree with descriptor");
  put<std::uint8_t>(payload, static_cast<std::uint8_t>(submit.dtype));
  put<std::uint8_t>(payload, submit.op_a);
  put<std::uint8_t>(payload, submit.op_b);
  put<std::uint8_t>(payload, 0);
  put<std::uint32_t>(payload, submit.m);
  put<std::uint32_t>(payload, submit.n);
  put<std::uint32_t>(payload, submit.k);
  put<std::uint32_t>(payload, submit.batch);
  put<std::uint32_t>(payload, submit.tenant);
  put<std::uint32_t>(payload, 0);
  put<double>(payload, submit.alpha);
  put<double>(payload, submit.beta);
  put<double>(payload, submit.deadline_ms);
  payload.insert(payload.end(), submit.a.begin(), submit.a.end());
  payload.insert(payload.end(), submit.b.begin(), submit.b.end());
  payload.insert(payload.end(), submit.c.begin(), submit.c.end());
}

// ---- Result -----------------------------------------------------------

WireError parse_result(std::span<const std::uint8_t> payload,
                       ResultMsg& out) noexcept {
  if (payload.size() < 8) {
    return WireError::BadPayload;
  }
  if (get<std::uint32_t>(payload, 4) != 0) {
    return WireError::BadPayload;
  }
  out.status = get<std::int32_t>(payload, 0);
  out.c = payload.subspan(8);
  if (out.status != 0 && !out.c.empty()) {
    return WireError::BadPayload; // data only rides an Ok result
  }
  return WireError::None;
}

void append_result(std::vector<std::uint8_t>& payload, std::int32_t status,
                   std::span<const std::uint8_t> c) {
  put<std::int32_t>(payload, status);
  put<std::uint32_t>(payload, 0);
  if (status == 0) {
    payload.insert(payload.end(), c.begin(), c.end());
  }
}

// ---- Error ------------------------------------------------------------

WireError parse_error(std::span<const std::uint8_t> payload,
                      ErrorMsg& out) noexcept {
  if (payload.size() < 12) {
    return WireError::BadPayload;
  }
  const std::uint32_t code = get<std::uint32_t>(payload, 0);
  const std::int32_t status = get<std::int32_t>(payload, 4);
  const std::uint16_t msg_len = get<std::uint16_t>(payload, 8);
  const std::uint16_t reserved = get<std::uint16_t>(payload, 10);
  if (reserved != 0 ||
      code > static_cast<std::uint32_t>(WireError::Backpressure) ||
      payload.size() != 12u + msg_len) {
    return WireError::BadPayload;
  }
  out.code = static_cast<WireError>(code);
  out.status = status;
  out.message.assign(reinterpret_cast<const char*>(payload.data()) + 12,
                     msg_len);
  return WireError::None;
}

void append_error(std::vector<std::uint8_t>& payload, WireError code,
                  std::int32_t status, std::string_view message) {
  const std::uint16_t msg_len = static_cast<std::uint16_t>(
      std::min<std::size_t>(message.size(), 512));
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(code));
  put<std::int32_t>(payload, status);
  put<std::uint16_t>(payload, msg_len);
  put<std::uint16_t>(payload, 0);
  payload.insert(payload.end(), message.begin(),
                 message.begin() + msg_len);
}

// ---- Hello / HelloAck -------------------------------------------------

WireError parse_hello(std::span<const std::uint8_t> payload,
                      std::uint32_t& version) noexcept {
  if (payload.size() != 4) {
    return WireError::BadPayload;
  }
  version = get<std::uint32_t>(payload, 0);
  return WireError::None;
}

void append_hello(std::vector<std::uint8_t>& payload) {
  put<std::uint32_t>(payload, kWireVersion);
}

WireError parse_hello_ack(std::span<const std::uint8_t> payload,
                          HelloAckMsg& out) noexcept {
  if (payload.size() != 12) {
    return WireError::BadPayload;
  }
  out.version = get<std::uint32_t>(payload, 0);
  out.max_payload = get<std::uint32_t>(payload, 4);
  out.max_outstanding = get<std::uint32_t>(payload, 8);
  return WireError::None;
}

void append_hello_ack(std::vector<std::uint8_t>& payload,
                      const HelloAckMsg& ack) {
  put<std::uint32_t>(payload, ack.version);
  put<std::uint32_t>(payload, ack.max_payload);
  put<std::uint32_t>(payload, ack.max_outstanding);
}

} // namespace iatf::net
