#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "iatf/core/engine.hpp"
#include "iatf/tune/tuning_table.hpp"

namespace iatf::tune {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

sched::ClassKey sample_key(index_t n) {
  GemmShape shape{n, n, n, Op::NoTrans, Op::NoTrans, 8};
  return gemm_key<float>(shape);
}

TuneRecord sample_record(index_t n) {
  TuneRecord rec;
  rec.pack_a = 0;
  rec.pack_b = 1;
  rec.slice_groups = n * 3 + 1;
  rec.mc_cap = 2;
  rec.nc_cap = 3;
  rec.chunk_groups = n;
  // Deliberately awkward doubles: round-tripping these is the point.
  rec.gflops = 12.345678901234567 + static_cast<double>(n) / 3.0;
  rec.baseline_gflops = 11.000000000000002;
  return rec;
}

TEST(TuningTable, InsertLookupClear) {
  TuningTable table("test-hw");
  EXPECT_TRUE(table.empty());
  table.insert(sample_key(4), sample_record(4));
  table.insert(sample_key(8), sample_record(8));
  EXPECT_EQ(table.size(), 2u);

  const TuneRecord* hit = table.lookup(sample_key(4));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, sample_record(4));
  EXPECT_EQ(table.lookup(sample_key(5)), nullptr);

  table.clear();
  EXPECT_TRUE(table.empty());
}

TEST(TuningTable, SaveLoadRoundTripIsBitIdentical) {
  const std::string path = temp_path("iatf_roundtrip.tbl");
  TuningTable table("test-hw");
  for (index_t n : {2, 3, 5, 17, 31}) {
    table.insert(sample_key(n), sample_record(n));
  }
  ASSERT_TRUE(table.save(path));

  TuningTable loaded("test-hw");
  ASSERT_EQ(loaded.load(path), LoadResult::Ok);
  ASSERT_EQ(loaded.size(), table.size());
  for (index_t n : {2, 3, 5, 17, 31}) {
    const TuneRecord* rec = loaded.lookup(sample_key(n));
    ASSERT_NE(rec, nullptr);
    // operator== compares the doubles exactly: max_digits10 text keeps
    // every bit.
    EXPECT_EQ(*rec, sample_record(n)) << "n=" << n;
  }
  std::remove(path.c_str());
}

TEST(TuningTable, CanonicalSaveIsByteIdenticalAfterReload) {
  // Records are emitted sorted by key text, so save -> load -> save
  // reproduces the file byte for byte even though the in-memory map is
  // unordered. CI's smoke job cmp's round-tripped files on this basis.
  const std::string first = temp_path("iatf_canon_a.tbl");
  const std::string second = temp_path("iatf_canon_b.tbl");
  TuningTable table("test-hw");
  for (index_t n : {31, 2, 17, 5, 3}) {
    table.insert(sample_key(n), sample_record(n));
  }
  ASSERT_TRUE(table.save(first));

  TuningTable loaded("test-hw");
  ASSERT_EQ(loaded.load(first), LoadResult::Ok);
  ASSERT_TRUE(loaded.save(second));

  const std::string a = slurp(first);
  const std::string b = slurp(second);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// Every op class_key emits is a loadable tuning key: a TRMM ('m') record
// beside a GEMM one reloads with both records, re-saves byte for byte,
// and the reloaded TRMM record reaches Engine::trmm.
TEST(TuningTable, TrmmKeySurvivesReloadAndReachesTrmm) {
  const std::string first = temp_path("iatf_trmm_a.tbl");
  const std::string second = temp_path("iatf_trmm_b.tbl");
  TrsmShape shape;
  shape.m = 4;
  shape.n = 4;
  shape.batch = 8;
  shape.op = TriOp::Multiply;
  const sched::ClassKey trmm = tune_key(sched::class_key<double>(shape, 16));
  ASSERT_EQ(trmm.op, 'm');
  TuneRecord trmm_rec;
  trmm_rec.slice_groups = 2;
  trmm_rec.gflops = 1.5;
  trmm_rec.baseline_gflops = 1.25;

  TuningTable table("test-hw");
  table.insert(sample_key(4), sample_record(4));
  table.insert(trmm, trmm_rec);
  ASSERT_TRUE(table.save(first));
  auto loaded = std::make_shared<TuningTable>("test-hw");
  ASSERT_EQ(loaded->load(first), LoadResult::Ok);
  ASSERT_EQ(loaded->size(), 2u);
  ASSERT_NE(loaded->lookup(sample_key(4)), nullptr);
  ASSERT_NE(loaded->lookup(trmm), nullptr);
  EXPECT_EQ(*loaded->lookup(trmm), trmm_rec);
  ASSERT_TRUE(loaded->save(second));
  EXPECT_EQ(slurp(first), slurp(second));
  std::remove(first.c_str());
  std::remove(second.c_str());

  Engine engine(CacheInfo::kunpeng920());
  engine.set_tuning_table(loaded);
  CompactBuffer<double> a(4, 4, shape.batch);
  CompactBuffer<double> b(4, 4, shape.batch);
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    for (index_t i = 0; i < 4; ++i) {
      a.set(lane, i, i, 1.0);
    }
  }
  (void)engine.trmm<double, 16>(Side::Left, Uplo::Lower, Op::NoTrans,
                                Diag::NonUnit, 1.0, a, b);
  EXPECT_EQ(engine.plan_cache_tuned(), 1u);
}

TEST(TuningTable, MissingFileLoadsEmpty) {
  TuningTable table("test-hw");
  table.insert(sample_key(4), sample_record(4));
  EXPECT_EQ(table.load(temp_path("iatf_does_not_exist.tbl")),
            LoadResult::Missing);
  EXPECT_TRUE(table.empty()) << "failed load must clear the table";
}

TEST(TuningTable, CorruptFileLoadsEmpty) {
  const std::string path = temp_path("iatf_corrupt.tbl");
  {
    std::ofstream out(path);
    out << "not-a-tuning-table at all\n";
  }
  TuningTable table("test-hw");
  EXPECT_EQ(table.load(path), LoadResult::Corrupt);
  EXPECT_TRUE(table.empty());
  std::remove(path.c_str());
}

TEST(TuningTable, WrongVersionIsCorrupt) {
  const std::string path = temp_path("iatf_version.tbl");
  {
    std::ofstream out(path);
    out << "iatf-tune 999\nhw test-hw\n";
  }
  TuningTable table("test-hw");
  EXPECT_EQ(table.load(path), LoadResult::Corrupt);
  std::remove(path.c_str());
}

TEST(TuningTable, CorruptRecordClearsEverything) {
  const std::string path = temp_path("iatf_badrec.tbl");
  TuningTable table("test-hw");
  table.insert(sample_key(4), sample_record(4));
  ASSERT_TRUE(table.save(path));
  {
    std::ofstream out(path, std::ios::app);
    out << "rec g s 16 8 8 8 0 0 0 0 0 nonsense\n";
  }
  TuningTable loaded("test-hw");
  EXPECT_EQ(loaded.load(path), LoadResult::Corrupt);
  EXPECT_TRUE(loaded.empty())
      << "a bad record must not leave earlier records applied";
  std::remove(path.c_str());
}

TEST(TuningTable, HardwareMismatchDegradesToEmpty) {
  const std::string path = temp_path("iatf_otherhw.tbl");
  TuningTable other("some-other-machine");
  other.insert(sample_key(4), sample_record(4));
  ASSERT_TRUE(other.save(path));

  TuningTable table("test-hw");
  EXPECT_EQ(table.load(path), LoadResult::HardwareMismatch);
  EXPECT_TRUE(table.empty());
  std::remove(path.c_str());
}

TEST(TuningTable, SaveIsAtomicOverExistingFile) {
  const std::string path = temp_path("iatf_atomic.tbl");
  TuningTable first("test-hw");
  first.insert(sample_key(2), sample_record(2));
  ASSERT_TRUE(first.save(path));

  TuningTable second("test-hw");
  second.insert(sample_key(3), sample_record(3));
  second.insert(sample_key(5), sample_record(5));
  ASSERT_TRUE(second.save(path));

  TuningTable loaded("test-hw");
  ASSERT_EQ(loaded.load(path), LoadResult::Ok);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.lookup(sample_key(2)), nullptr);
  // No stray temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(TuningTable, DefaultPathHonoursEnvOverride) {
  ASSERT_EQ(setenv("IATF_TUNE_FILE", "/tmp/custom_tune.tbl", 1), 0);
  EXPECT_EQ(TuningTable::default_path(), "/tmp/custom_tune.tbl");
  ASSERT_EQ(unsetenv("IATF_TUNE_FILE"), 0);
  EXPECT_EQ(TuningTable::default_path(), "iatf_tune.tbl");
}

} // namespace
} // namespace iatf::tune
