#include <complex>
#include <sstream>
#include <unordered_map>

#include <gtest/gtest.h>

#include "iatf/tune/descriptor.hpp"

namespace iatf::tune {
namespace {

TEST(TuneKey, GemmKeyCapturesDescriptorWithoutBatch) {
  GemmShape shape{5, 7, 3, Op::Trans, Op::NoTrans, 128};
  const sched::ClassKey key = gemm_key<double>(shape);
  EXPECT_EQ(key.op, 'g');
  EXPECT_EQ(key.dtype, 'd');
  EXPECT_EQ(key.bytes, 16);
  EXPECT_EQ(key.m, 5);
  EXPECT_EQ(key.n, 7);
  EXPECT_EQ(key.k, 3);
  EXPECT_EQ(key.op_a, static_cast<std::uint8_t>(Op::Trans));

  // Tuned parameters are a per-matrix property: two batches of the same
  // problem share one record, the class key with batch 0.
  EXPECT_EQ(key.batch, 0);
  EXPECT_EQ(key, tune_key(sched::class_key<double>(shape, 16)));
  shape.batch = 9999;
  EXPECT_EQ(gemm_key<double>(shape), key);
}

TEST(TuneKey, TrsmKeyCapturesModeFields) {
  TrsmShape shape;
  shape.m = 6;
  shape.n = 4;
  shape.side = Side::Right;
  shape.uplo = Uplo::Upper;
  shape.op_a = Op::ConjTrans;
  shape.diag = Diag::Unit;
  shape.batch = 32;
  const sched::ClassKey key = trsm_key<std::complex<float>>(shape);
  EXPECT_EQ(key.op, 't');
  EXPECT_EQ(key.dtype, 'c');
  EXPECT_EQ(key.side, 1);
  EXPECT_EQ(key.uplo, 1);
  EXPECT_EQ(key.op_a, 2);
  EXPECT_EQ(key.diag, 1);
  EXPECT_EQ(key.k, 0);
}

TEST(TuneKey, WriteParseRoundTrip) {
  TrsmShape shape;
  shape.m = 12;
  shape.n = 8;
  shape.uplo = Uplo::Upper;
  const sched::ClassKey key = trsm_key<double>(shape);

  std::stringstream stream;
  write_key(stream, key);
  sched::ClassKey parsed;
  ASSERT_TRUE(parse_key(stream, parsed));
  EXPECT_EQ(parsed, key);
}

TEST(TuneKey, ParseRejectsMalformedInput) {
  sched::ClassKey parsed;
  {
    std::stringstream stream("g s 16 4 4"); // truncated
    EXPECT_FALSE(parse_key(stream, parsed));
  }
  {
    std::stringstream stream("q s 16 4 4 4 0 0 0 0 0"); // bad op tag
    EXPECT_FALSE(parse_key(stream, parsed));
  }
  {
    std::stringstream stream("g x 16 4 4 4 0 0 0 0 0"); // bad dtype
    EXPECT_FALSE(parse_key(stream, parsed));
  }
  {
    std::stringstream stream("g s 16 4 4 4 7 0 0 0 0"); // op_a range
    EXPECT_FALSE(parse_key(stream, parsed));
  }
}

TEST(TuneKey, HashSupportsUnorderedMap) {
  std::unordered_map<sched::ClassKey, int, sched::ClassKeyHash> map;
  for (index_t n = 1; n <= 32; ++n) {
    GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, 8};
    map[gemm_key<float>(shape)] = static_cast<int>(n);
  }
  EXPECT_EQ(map.size(), 32u);
  GemmShape probe{17, 17, 17, Op::NoTrans, Op::NoTrans, 512};
  EXPECT_EQ(map.at(gemm_key<float>(probe)), 17);
}

TEST(HardwareSignature, EncodesArchAndCacheSizes) {
  CacheInfo cache = CacheInfo::kunpeng920();
  const std::string sig = hardware_signature(cache);
  EXPECT_NE(sig.find(":l1d" + std::to_string(cache.l1d)),
            std::string::npos);
  EXPECT_NE(sig.find(":l2" + std::to_string(cache.l2)),
            std::string::npos);
  EXPECT_EQ(sig.find(' '), std::string::npos) << "must be one token";

  // Deterministic, and sensitive to the cache configuration.
  EXPECT_EQ(sig, hardware_signature(cache));
  cache.l1d *= 2;
  EXPECT_NE(sig, hardware_signature(cache));
}

} // namespace
} // namespace iatf::tune
