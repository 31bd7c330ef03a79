// iatf-wire 1 framing and payload codecs: round-trips, the strict
// decoder's fatal/non-fatal error discipline (fatal errors latch the
// decoder, non-fatal errors keep framing), incremental feeding, and the
// iatf-trace 1 reader/writer.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "iatf/common/error.hpp"
#include "iatf/net/trace.hpp"
#include "iatf/net/wire.hpp"

namespace iatf::net {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

Decoder::Event pump_one(Decoder& dec, const std::vector<std::uint8_t>& in) {
  dec.feed(in.data(), in.size());
  return dec.next();
}

// --- Framing round-trips -------------------------------------------------

TEST(Wire, FrameRoundTrip) {
  const auto payload = bytes_of("hello wire");
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::SubmitGemm, 42, payload);
  ASSERT_EQ(out.size(), kHeaderSize + payload.size());

  Decoder dec;
  const Decoder::Event ev = pump_one(dec, out);
  ASSERT_EQ(ev.kind, Decoder::Event::Kind::Frame);
  EXPECT_EQ(ev.frame.header.type, FrameType::SubmitGemm);
  EXPECT_EQ(ev.frame.header.request_id, 42u);
  EXPECT_EQ(ev.frame.payload, payload);
  EXPECT_EQ(dec.next().kind, Decoder::Event::Kind::NeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Wire, ByteAtATimeFeedingIsLossless) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, FrameType::Ping, 7, {});
  append_frame(stream, FrameType::Cancel, 8, {});

  Decoder dec;
  int frames = 0;
  for (const std::uint8_t byte : stream) {
    dec.feed(&byte, 1);
    for (;;) {
      const Decoder::Event ev = dec.next();
      if (ev.kind != Decoder::Event::Kind::Frame) {
        ASSERT_EQ(ev.kind, Decoder::Event::Kind::NeedMore);
        break;
      }
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2);
}

TEST(Wire, TruncatedFrameStaysNeedMore) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, FrameType::SubmitGemm, 1, bytes_of("payload"));
  Decoder dec;
  dec.feed(stream.data(), stream.size() - 1); // everything but 1 byte
  EXPECT_EQ(dec.next().kind, Decoder::Event::Kind::NeedMore);
  EXPECT_FALSE(dec.failed());
  dec.feed(stream.data() + stream.size() - 1, 1);
  EXPECT_EQ(dec.next().kind, Decoder::Event::Kind::Frame);
}

// --- Fatal errors latch --------------------------------------------------

TEST(Wire, GarbageIsFatalBadMagicAndLatches) {
  Decoder dec;
  const auto junk = bytes_of("GET / HTTP/1.1\r\nHost: example\r\n\r\n");
  const Decoder::Event ev = pump_one(dec, junk);
  ASSERT_EQ(ev.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(ev.error, WireError::BadMagic);
  EXPECT_TRUE(ev.fatal);
  EXPECT_TRUE(dec.failed());

  // Latched: a valid frame fed afterwards is discarded, the error
  // repeats (the byte stream is unframeable once trust is lost).
  std::vector<std::uint8_t> good;
  append_frame(good, FrameType::Ping, 1, {});
  const Decoder::Event again = pump_one(dec, good);
  EXPECT_EQ(again.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(again.error, WireError::BadMagic);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Wire, BadVersionIsFatal) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::Ping, 9, {});
  frame[4] = 99; // version byte
  Decoder dec;
  const Decoder::Event ev = pump_one(dec, frame);
  ASSERT_EQ(ev.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(ev.error, WireError::BadVersion);
  EXPECT_TRUE(ev.fatal);
}

TEST(Wire, ReservedBitsAreFatal) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::Ping, 9, {});
  frame[6] = 1; // reserved u16
  Decoder dec;
  const Decoder::Event ev = pump_one(dec, frame);
  ASSERT_EQ(ev.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(ev.error, WireError::BadReserved);
  EXPECT_TRUE(ev.fatal);
}

TEST(Wire, OversizedPayloadIsFatalWithoutBuffering) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::SubmitGemm, 3, bytes_of("x"));
  // Claim a payload far above the decoder's bound.
  const std::uint32_t huge = 1u << 30;
  std::memcpy(frame.data() + 16, &huge, 4);
  Decoder dec(/*max_payload=*/1024);
  const Decoder::Event ev = pump_one(dec, frame);
  ASSERT_EQ(ev.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(ev.error, WireError::Oversized);
  EXPECT_TRUE(ev.fatal);
  EXPECT_EQ(ev.request_id, 3u); // offender id still reported
}

// --- Non-fatal errors keep framing ---------------------------------------

TEST(Wire, BadCrcSkipsFrameKeepsFraming) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, FrameType::SubmitGemm, 5, bytes_of("corrupt me"));
  stream.back() ^= 0xFF; // flip a payload bit -> CRC mismatch
  append_frame(stream, FrameType::Ping, 6, {});

  Decoder dec;
  dec.feed(stream.data(), stream.size());
  const Decoder::Event bad = dec.next();
  ASSERT_EQ(bad.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(bad.error, WireError::BadCrc);
  EXPECT_FALSE(bad.fatal);
  EXPECT_EQ(bad.request_id, 5u);
  EXPECT_FALSE(dec.failed());

  const Decoder::Event good = dec.next();
  ASSERT_EQ(good.kind, Decoder::Event::Kind::Frame);
  EXPECT_EQ(good.frame.header.type, FrameType::Ping);
  EXPECT_EQ(good.frame.header.request_id, 6u);
}

TEST(Wire, UnknownTypeSkipsFrameKeepsFraming) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, FrameType::Ping, 11, {});
  stream[5] = 200; // bogus FrameType
  append_frame(stream, FrameType::Pong, 12, {});

  Decoder dec;
  dec.feed(stream.data(), stream.size());
  const Decoder::Event bad = dec.next();
  ASSERT_EQ(bad.kind, Decoder::Event::Kind::Error);
  EXPECT_EQ(bad.error, WireError::BadType);
  EXPECT_FALSE(bad.fatal);
  const Decoder::Event good = dec.next();
  ASSERT_EQ(good.kind, Decoder::Event::Kind::Frame);
  EXPECT_EQ(good.frame.header.request_id, 12u);
}

// --- CRC ----------------------------------------------------------------

TEST(Wire, Crc32MatchesKnownVector) {
  // The classic IEEE check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// --- Payload codecs ------------------------------------------------------

GemmSubmit tiny_submit(std::vector<std::uint8_t>& a,
                       std::vector<std::uint8_t>& b,
                       std::vector<std::uint8_t>& c) {
  GemmSubmit s;
  s.dtype = 'd';
  s.m = 2;
  s.n = 3;
  s.k = 4;
  s.batch = 2;
  s.tenant = 7;
  s.alpha = 1.5;
  s.beta = -0.5;
  s.deadline_ms = 12.25;
  a.assign(sizeof(double) * 2 * 4 * 2, 0xAA);
  b.assign(sizeof(double) * 4 * 3 * 2, 0xBB);
  c.assign(sizeof(double) * 2 * 3 * 2, 0xCC);
  s.a = a;
  s.b = b;
  s.c = c;
  return s;
}

TEST(Wire, GemmSubmitRoundTrip) {
  std::vector<std::uint8_t> a, b, c, payload;
  const GemmSubmit in = tiny_submit(a, b, c);
  append_gemm_submit(payload, in);

  GemmSubmit out;
  ASSERT_EQ(parse_gemm_submit(payload, out), WireError::None);
  EXPECT_EQ(out.dtype, 'd');
  EXPECT_EQ(out.m, 2u);
  EXPECT_EQ(out.n, 3u);
  EXPECT_EQ(out.k, 4u);
  EXPECT_EQ(out.batch, 2u);
  EXPECT_EQ(out.tenant, 7u);
  EXPECT_DOUBLE_EQ(out.alpha, 1.5);
  EXPECT_DOUBLE_EQ(out.beta, -0.5);
  EXPECT_DOUBLE_EQ(out.deadline_ms, 12.25);
  ASSERT_EQ(out.a.size(), a.size());
  ASSERT_EQ(out.b.size(), b.size());
  ASSERT_EQ(out.c.size(), c.size());
  EXPECT_EQ(std::memcmp(out.a.data(), a.data(), a.size()), 0);
}

TEST(Wire, GemmSubmitRejectsBadInputs) {
  std::vector<std::uint8_t> a, b, c, payload;
  const GemmSubmit in = tiny_submit(a, b, c);
  append_gemm_submit(payload, in);
  GemmSubmit out;

  // Truncated descriptor.
  ASSERT_EQ(parse_gemm_submit(
                std::span<const std::uint8_t>(payload.data(), 10), out),
            WireError::BadPayload);
  // Data shorter than the descriptor promises.
  ASSERT_EQ(parse_gemm_submit(std::span<const std::uint8_t>(
                                  payload.data(), payload.size() - 1),
                              out),
            WireError::BadPayload);
  // Bogus dtype.
  auto bad = payload;
  bad[0] = 'q';
  ASSERT_EQ(parse_gemm_submit(bad, out), WireError::BadPayload);
  // Zero dimension.
  bad = payload;
  std::memset(bad.data() + 4, 0, 4); // m = 0
  ASSERT_EQ(parse_gemm_submit(bad, out), WireError::BadPayload);
  // Dimension above the wire bound (the hostile-allocation guard).
  bad = payload;
  const std::uint32_t big = kMaxWireDim + 1;
  std::memcpy(bad.data() + 4, &big, 4);
  ASSERT_EQ(parse_gemm_submit(bad, out), WireError::BadPayload);
}

TEST(Wire, ResultAndErrorRoundTrip) {
  std::vector<std::uint8_t> payload;
  const auto c = bytes_of("cdata");
  append_result(payload, 0, c);
  ResultMsg res;
  ASSERT_EQ(parse_result(payload, res), WireError::None);
  EXPECT_EQ(res.status, 0);
  EXPECT_EQ(res.c.size(), c.size());

  payload.clear();
  append_error(payload, WireError::Backpressure, 7, "too many in flight");
  ErrorMsg err;
  ASSERT_EQ(parse_error(payload, err), WireError::None);
  EXPECT_EQ(err.code, WireError::Backpressure);
  EXPECT_EQ(err.status, 7);
  EXPECT_EQ(err.message, "too many in flight");

  // Truncated message bytes.
  payload.pop_back();
  ASSERT_EQ(parse_error(payload, err), WireError::BadPayload);
}

TEST(Wire, HelloHandshakeRoundTrip) {
  std::vector<std::uint8_t> payload;
  append_hello(payload);
  std::uint32_t version = 0;
  ASSERT_EQ(parse_hello(payload, version), WireError::None);
  EXPECT_EQ(version, kWireVersion);

  payload.clear();
  HelloAckMsg ack;
  ack.max_payload = 1 << 20;
  ack.max_outstanding = 32;
  append_hello_ack(payload, ack);
  HelloAckMsg out;
  ASSERT_EQ(parse_hello_ack(payload, out), WireError::None);
  EXPECT_EQ(out.version, kWireVersion);
  EXPECT_EQ(out.max_payload, 1u << 20);
  EXPECT_EQ(out.max_outstanding, 32u);
}

TEST(Wire, ErrorTaxonomyIsStable) {
  // Wire values are forever; a renumbering would break deployed peers.
  EXPECT_EQ(static_cast<std::uint32_t>(WireError::BadMagic), 1u);
  EXPECT_EQ(static_cast<std::uint32_t>(WireError::Backpressure), 12u);
  EXPECT_TRUE(is_fatal(WireError::BadMagic));
  EXPECT_TRUE(is_fatal(WireError::BadVersion));
  EXPECT_TRUE(is_fatal(WireError::BadReserved));
  EXPECT_TRUE(is_fatal(WireError::Oversized));
  EXPECT_FALSE(is_fatal(WireError::BadCrc));
  EXPECT_FALSE(is_fatal(WireError::BadPayload));
  EXPECT_FALSE(is_fatal(WireError::Backpressure));
  EXPECT_STREQ(to_string(WireError::ShuttingDown), "server draining");
  EXPECT_STREQ(to_string(FrameType::SubmitGemm), "SUBMIT_GEMM");
}

// --- iatf-trace 1 --------------------------------------------------------

class TraceTest : public ::testing::Test {
protected:
  // One file per test and process: ctest runs these tests as concurrent
  // processes, and a shared name lets one test's TearDown delete the
  // trace another test is reading.
  std::string path_ =
      ::testing::TempDir() + "wire_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".jsonl";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceTest, WriterReaderRoundTrip) {
  {
    TraceWriter writer(path_);
    TraceEvent ev;
    ev.t_us = 100;
    ev.tenant = 2;
    ev.dtype = 's';
    ev.m = ev.n = ev.k = 8;
    ev.batch = 16;
    ev.deadline_ms = 4.5;
    writer.record(ev);
    ev.t_us = 50; // out of order on purpose
    ev.tenant = 1;
    writer.record(ev);
    EXPECT_EQ(writer.recorded(), 2u);
  }
  const auto events = load_trace(path_);
  ASSERT_EQ(events.size(), 2u);
  // Sorted by t_us on load.
  EXPECT_EQ(events[0].t_us, 50);
  EXPECT_EQ(events[0].tenant, 1u);
  EXPECT_EQ(events[1].t_us, 100);
  EXPECT_EQ(events[1].dtype, 's');
  EXPECT_EQ(events[1].batch, 16);
  EXPECT_DOUBLE_EQ(events[1].deadline_ms, 4.5);
}

TEST_F(TraceTest, MalformedLineFailsWithLineNumber) {
  TraceEvent ok;
  ok.m = ok.n = ok.k = ok.batch = 4;
  {
    std::ofstream out(path_);
    out << "{\"format\":\"iatf-trace\",\"version\":1}\n";
    out << trace_line(ok) << "\n";
    out << "this is not json\n";
  }
  try {
    load_trace(path_);
    FAIL() << "expected iatf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos)
        << e.what();
  }
}

// A deadline the wire would refuse (above 1e12 ms) fails the load with
// its line number, so the in-process and socket replays of one trace
// cannot disagree about it.
TEST_F(TraceTest, DeadlineAboveTheWireBoundIsRejected) {
  const std::string huge =
      std::string(IATF_TEST_NET_DIR) + "/huge-deadline-trace.jsonl";
  try {
    load_trace(huge);
    FAIL() << "expected iatf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceTest, MissingHeaderIsRejected) {
  {
    std::ofstream out(path_);
    out << trace_line(TraceEvent{}) << "\n";
  }
  EXPECT_THROW(load_trace(path_), Error);
}

} // namespace
} // namespace iatf::net
