// Crash-consistent health ledger: record round-trips, CRC-guarded
// truncate-and-recover on torn tails, hardware keying, the Engine replay
// contract ("verify never resurrects" across restarts, breaker slots
// restart toward a HalfOpen probe), and the deterministic retry-jitter
// regression.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/resilience/health_ledger.hpp"

namespace iatf::resilience {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

LedgerRecord quarantine_record(char dtype, int m, int n) {
  LedgerRecord rec;
  rec.kind = LedgerRecord::Kind::KernelQuarantine;
  rec.kernel = KernelId{'g', dtype, 16, m, n};
  return rec;
}

LedgerRecord slot_record(LedgerRecord::Kind kind, std::uint64_t slot) {
  LedgerRecord rec;
  rec.kind = kind;
  rec.slot = slot;
  return rec;
}

class HealthLedgerTest : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// --- File round-trips -----------------------------------------------------

TEST_F(HealthLedgerTest, AppendedRecordsRoundTripThroughTheFile) {
  const std::string path = temp_path("iatf_ledger_roundtrip.hl");
  std::remove(path.c_str());
  HealthLedger ledger(path, "hwsig");
  ledger.append(quarantine_record('d', 8, 8));
  ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, 42));
  LedgerRecord degrade;
  degrade.kind = LedgerRecord::Kind::Degrade;
  degrade.events = 0x5;
  ledger.append(degrade);
  ledger.append(slot_record(LedgerRecord::Kind::WatchdogReclaim, 7));

  HealthLedger loaded(path, "hwsig");
  EXPECT_EQ(loaded.load(), LedgerLoad::Ok);
  EXPECT_EQ(loaded.records(), ledger.records());
  const LedgerStats stats = loaded.stats();
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.degrades, 1u);
  EXPECT_EQ(stats.watchdog_reclaims, 1u);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, SaveCompactsAtomically) {
  const std::string path = temp_path("iatf_ledger_compact.hl");
  std::remove(path.c_str());
  HealthLedger ledger(path, "hwsig");
  ledger.append(quarantine_record('s', 4, 4));
  ASSERT_TRUE(ledger.save());
  // No stray temp file left behind by the tmp+rename discipline.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  HealthLedger loaded(path, "hwsig");
  EXPECT_EQ(loaded.load(), LedgerLoad::Ok);
  EXPECT_EQ(loaded.records(), ledger.records());
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, MissingFileLoadsEmpty) {
  HealthLedger ledger(temp_path("iatf_ledger_absent.hl"), "hwsig");
  EXPECT_EQ(ledger.load(), LedgerLoad::Missing);
  EXPECT_TRUE(ledger.records().empty());
}

TEST_F(HealthLedgerTest, DisabledLedgerIsInert) {
  HealthLedger ledger; // empty path: journaling opt-out
  EXPECT_FALSE(ledger.enabled());
  ledger.append(quarantine_record('d', 8, 8)); // in-memory only, no file
  EXPECT_EQ(ledger.records().size(), 1u);
  EXPECT_FALSE(ledger.save());
  EXPECT_EQ(ledger.load(), LedgerLoad::Missing);
}

// --- Format stability -----------------------------------------------------

// parent-ledger.hl is a journal an earlier build appended: every record
// kind, a zero-initialised KernelId and the largest slot. It must still
// load clean with its records intact, and a compaction must rewrite it
// byte for byte, so the journal format cannot drift unnoticed.
TEST_F(HealthLedgerTest, CommittedJournalLoadsAndResavesByteIdentically) {
  const std::string text =
      slurp(std::string(IATF_TEST_LEDGER_DIR) + "/parent-ledger.hl");
  ASSERT_FALSE(text.empty());
  // Load a copy: loading takes the file's lock, which would leave a
  // lock file next to the committed fixture.
  const std::string path = temp_path("iatf_ledger_fixture.hl");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
  }
  HealthLedger ledger(path, "fixture-hw");
  ASSERT_EQ(ledger.load(), LedgerLoad::Ok);
  LedgerRecord zero_kernel;
  zero_kernel.kind = LedgerRecord::Kind::KernelQuarantine;
  LedgerRecord degrade;
  degrade.events = 5;
  const std::vector<LedgerRecord> want = {
      quarantine_record('d', 4, 4),
      [] {
        LedgerRecord rec;
        rec.kind = LedgerRecord::Kind::KernelQuarantine;
        rec.kernel = KernelId{'t', 'c', 64, 3, 2};
        return rec;
      }(),
      zero_kernel,
      slot_record(LedgerRecord::Kind::BreakerTrip, 13),
      slot_record(LedgerRecord::Kind::BreakerTrip, UINT64_MAX),
      degrade,
      slot_record(LedgerRecord::Kind::WatchdogReclaim, 42),
  };
  EXPECT_EQ(ledger.records(), want);
  ASSERT_TRUE(ledger.save());
  EXPECT_EQ(slurp(path), text);
  std::remove(path.c_str());
}

// --- Corruption handling --------------------------------------------------

TEST_F(HealthLedgerTest, TornTailIsTruncatedAndRecovered) {
  const std::string path = temp_path("iatf_ledger_torn.hl");
  std::remove(path.c_str());
  HealthLedger ledger(path, "hwsig");
  ledger.append(quarantine_record('d', 8, 8));
  ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, 13));
  {
    // A SIGKILL mid-append leaves a half-written line; the CRC catches it.
    std::ofstream out(path, std::ios::app);
    out << "rec 1234 q 103 ";
  }
  HealthLedger loaded(path, "hwsig");
  EXPECT_EQ(loaded.load(), LedgerLoad::Recovered);
  ASSERT_EQ(loaded.records().size(), 2u);
  EXPECT_EQ(loaded.records(), ledger.records());
  // Recovery rewrote the file: a second load of the same path is clean.
  HealthLedger again(path, "hwsig");
  EXPECT_EQ(again.load(), LedgerLoad::Ok);
  EXPECT_EQ(again.records(), ledger.records());
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, BitFlippedRecordDropsTheTailNotTheFile) {
  const std::string path = temp_path("iatf_ledger_bitrot.hl");
  std::remove(path.c_str());
  HealthLedger ledger(path, "hwsig");
  ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, 5));
  ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, 6));
  // Flip one payload character of the last record: its CRC mismatches.
  std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  text[text.size() - 2] = text[text.size() - 2] == '6' ? '7' : '6';
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
  }
  HealthLedger loaded(path, "hwsig");
  EXPECT_EQ(loaded.load(), LedgerLoad::Recovered);
  ASSERT_EQ(loaded.records().size(), 1u);
  EXPECT_EQ(loaded.records()[0].slot, 5u);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, CorruptHeaderLoadsEmpty) {
  const std::string path = temp_path("iatf_ledger_badheader.hl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not-a-ledger 9\n";
  }
  HealthLedger ledger(path, "hwsig");
  EXPECT_EQ(ledger.load(), LedgerLoad::Corrupt);
  EXPECT_TRUE(ledger.records().empty());
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, WrongHardwareLoadsEmpty) {
  const std::string path = temp_path("iatf_ledger_otherhw.hl");
  std::remove(path.c_str());
  HealthLedger other(path, "other-machine");
  other.append(quarantine_record('d', 8, 8));

  HealthLedger ledger(path, "this-machine");
  EXPECT_EQ(ledger.load(), LedgerLoad::HardwareMismatch);
  EXPECT_TRUE(ledger.records().empty());
  // The wrong-hardware file is left intact for its owner.
  HealthLedger owner(path, "other-machine");
  EXPECT_EQ(owner.load(), LedgerLoad::Ok);
  EXPECT_EQ(owner.records().size(), 1u);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, AppendFaultDropsTheLineKeepsTheRecord) {
  const std::string path = temp_path("iatf_ledger_appendfault.hl");
  std::remove(path.c_str());
  HealthLedger ledger(path, "hwsig");
  {
    fault::ScopedFault fail("ledger.append", 0, 1);
    ledger.append(quarantine_record('d', 8, 8)); // line lost, record kept
  }
  ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, 3));
  EXPECT_EQ(ledger.records().size(), 2u);
  // The on-disk file has only the second record...
  HealthLedger loaded(path, "hwsig");
  EXPECT_EQ(loaded.load(), LedgerLoad::Ok);
  EXPECT_EQ(loaded.records().size(), 1u);
  // ...until a save() compaction rewrites the full in-memory state.
  ASSERT_TRUE(ledger.save());
  EXPECT_EQ(loaded.load(), LedgerLoad::Ok);
  EXPECT_EQ(loaded.records().size(), 2u);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, DefaultPathHonoursEnvOptIn) {
  ASSERT_EQ(::setenv("IATF_HEALTH_LEDGER", "/tmp/custom_ledger.hl", 1), 0);
  EXPECT_EQ(HealthLedger::default_path(), "/tmp/custom_ledger.hl");
  ASSERT_EQ(::unsetenv("IATF_HEALTH_LEDGER"), 0);
  // Unlike the tuning table there is no default filename: empty = off.
  EXPECT_EQ(HealthLedger::default_path(), "");
}

// --- Engine replay --------------------------------------------------------

// A small double GEMM driven end-to-end through an Engine; mirrors the
// MiniGemm fixture in test_engine_resilience.cpp. Transposed operands
// keep the plan's packing stage (and its live workspace allocation --
// the "alloc" fault site) on the engine's guarded fast path, and
// prepare() allocates the compact C outside any armed fault window.
struct ReplayGemm {
  index_t m = 8, n = 8, k = 4, batch;
  test::HostBatch<double> a, b, c, expected;
  CompactBuffer<double> ca, cb, cc;

  ReplayGemm() {
    Rng rng(311);
    batch = simd::pack_width_v<double> + 1;
    a = test::random_batch<double>(k, m, batch, rng); // Trans: A is k x m
    b = test::random_batch<double>(n, k, batch, rng); // Trans: B is n x k
    c = test::random_batch<double>(m, n, batch, rng);
    expected = c;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(Op::Trans, Op::Trans, m, n, k, 1.0, a.mat(l), a.ld(),
                b.mat(l), b.ld(), 0.0, expected.mat(l), expected.ld());
    }
    ca = a.to_compact();
    cb = b.to_compact();
  }

  /// The descriptor class of the fixture's calls (double, 128-bit).
  sched::ClassKey key() const {
    return sched::class_key<double>(
        GemmShape{m, n, k, Op::Trans, Op::Trans, batch}, 16);
  }

  BatchHealth run(Engine& e) {
    prepare();
    return run_prepared(e);
  }

  void prepare() { cc = c.to_compact(); }

  BatchHealth run_prepared(Engine& e) {
    return e.gemm<double>(Op::Trans, Op::Trans, 1.0, ca, cb, 0.0, cc);
  }
};

TEST_F(HealthLedgerTest, EngineJournalsQuarantinesAsTheyHappen) {
  const std::string path = temp_path("iatf_ledger_journal.hl");
  std::remove(path.c_str());
  Engine e(CacheInfo::kunpeng920());
  ASSERT_EQ(e.set_health_ledger(path), LedgerLoad::Missing);
  ASSERT_NE(e.health_ledger(), nullptr);
  {
    fault::ScopedFault verify("resilience.verify", 0, 1);
    EXPECT_EQ(e.self_test(), 1u);
  }
  // The quarantine hit the file at the moment it happened -- a fresh
  // ledger object (a "restarted process") sees it without any save().
  HealthLedger crashed(path);
  EXPECT_EQ(crashed.load(), LedgerLoad::Ok);
  EXPECT_GE(crashed.stats().quarantines, 1u);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, ReplayRestoresQuarantinesAndNeverResurrects) {
  const std::string path = temp_path("iatf_ledger_replay.hl");
  std::remove(path.c_str());
  {
    Engine first(CacheInfo::kunpeng920());
    ASSERT_EQ(first.set_health_ledger(path), LedgerLoad::Missing);
    fault::ScopedFault verify("resilience.verify", 0, 1000);
    ReplayGemm fx;
    const BatchHealth h = fx.run(first);
    ASSERT_TRUE(has_event(h.events, DegradeEvent::QuarantinedKernel));
    ASSERT_GE(first.health().quarantined_kernels, 1u);
  }
  // "Restart": a new engine on the same path replays the quarantines.
  Engine second(CacheInfo::kunpeng920());
  ASSERT_EQ(second.health().quarantined_kernels, 0u);
  ASSERT_EQ(second.set_health_ledger(path), LedgerLoad::Ok);
  const std::size_t replayed = second.health().quarantined_kernels;
  EXPECT_GE(replayed, 1u);
  // Replay only ever quarantines: a clean self_test sweep verifies the
  // healthy kernels but cannot resurrect the replayed ones.
  (void)second.self_test();
  EXPECT_GE(second.health().quarantined_kernels, replayed);
  // The quarantined class still serves correctly (substitute kernels or
  // the reference path), it just never dispatches the journaled kernel.
  ReplayGemm fx;
  const BatchHealth h = fx.run(second);
  EXPECT_EQ(h.batch, fx.batch);
  test::HostBatch<double> out = fx.c;
  out.from_compact(fx.cc);
  test::expect_batch_near(fx.expected, out, test::ulp_tolerance<double>(fx.k),
                          "replayed quarantine");
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, ReplaySeedsTrippedBreakersTowardAProbe) {
  const std::string path = temp_path("iatf_ledger_breaker.hl");
  std::remove(path.c_str());
  ReplayGemm fx;
  {
    Engine first(CacheInfo::kunpeng920());
    first.set_kernel_verification(false);
    first.set_policy(ExecPolicy::Fallback);
    first.set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/8});
    ASSERT_EQ(first.set_health_ledger(path), LedgerLoad::Missing);
    for (int call = 0; call < 2; ++call) {
      fx.prepare();
      fault::arm("alloc", 0, 1);
      (void)fx.run_prepared(first);
      fault::disarm_all();
    }
    ASSERT_EQ(first.breaker_state(fx.key()),
              BreakerState::Open);
    ASSERT_GE(first.health_ledger()->stats().breaker_trips, 1u);
  }
  // Restart: the replayed trip seeds the slot Open with an exhausted
  // cooldown -- not Closed (the trip is remembered), not 8 ref-routed
  // calls (the restart probes immediately instead of serving degraded).
  Engine second(CacheInfo::kunpeng920());
  second.set_kernel_verification(false);
  second.set_breaker_config({2, 1, 8});
  ASSERT_EQ(second.set_health_ledger(path), LedgerLoad::Ok);
  EXPECT_EQ(second.breaker_state(fx.key()),
            BreakerState::Open);
  // The very first call is the HalfOpen probe; it runs clean and closes
  // the slot -- no cooldown ref-routing on the healthy restart.
  const BatchHealth h = fx.run(second);
  EXPECT_TRUE(h.clean());
  EXPECT_EQ(second.breaker_state(fx.key()),
            BreakerState::Closed);
  std::remove(path.c_str());
}

// A breaker slot is the ClassKeyHash of its class, and the ledger
// persists slots. These literals were computed before the plan-cache
// key and the class key became one key; they must not move, or ledgers
// journaled before would replay onto the wrong slots.
constexpr std::uint64_t kGemmSlot = 14751899110762030773ull;
constexpr std::uint64_t kTrsmSlot = 15371502275020524935ull;
constexpr std::uint64_t kPotrfSlot = 6677159157129882845ull;

sched::ClassKey pinned_gemm_class() {
  return sched::class_key<double>(
      GemmShape{8, 8, 8, Op::NoTrans, Op::NoTrans, 64}, 16);
}

TEST_F(HealthLedgerTest, RawBufferSlotHashesArePinned) {
  EXPECT_EQ(sched::ClassKeyHash{}(pinned_gemm_class()), kGemmSlot);
  TrsmShape trsm;
  trsm.m = 6;
  trsm.n = 5;
  trsm.batch = 32;
  EXPECT_EQ(sched::ClassKeyHash{}(sched::class_key<float>(trsm, 16)),
            kTrsmSlot);
  factor::FactorShape potrf;
  potrf.op = factor::FactorOp::Potrf;
  potrf.m = 8;
  potrf.batch = 64;
  EXPECT_EQ(sched::ClassKeyHash{}(sched::class_key<double>(potrf, 16)),
            kPotrfSlot);
}

TEST_F(HealthLedgerTest, PinnedSlotRecordReplaysOntoItsClass) {
  const std::string path = temp_path("iatf_ledger_pinned.hl");
  std::remove(path.c_str());
  {
    HealthLedger ledger(path);
    ledger.append(slot_record(LedgerRecord::Kind::BreakerTrip, kGemmSlot));
  }
  Engine e(CacheInfo::kunpeng920());
  e.set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/8});
  ASSERT_EQ(e.breaker_state(pinned_gemm_class()), BreakerState::Closed);
  ASSERT_EQ(e.set_health_ledger(path), LedgerLoad::Ok);
  EXPECT_EQ(e.breaker_state(pinned_gemm_class()), BreakerState::Open);
  std::remove(path.c_str());
}

TEST_F(HealthLedgerTest, EngineConstructorWiresEnvLedger) {
  const std::string path = temp_path("iatf_ledger_env.hl");
  std::remove(path.c_str());
  {
    HealthLedger seed(path);
    seed.append(quarantine_record('d', 8, 8));
  }
  ASSERT_EQ(::setenv("IATF_HEALTH_LEDGER", path.c_str(), 1), 0);
  Engine e(CacheInfo::kunpeng920());
  ASSERT_EQ(::unsetenv("IATF_HEALTH_LEDGER"), 0);
  ASSERT_NE(e.health_ledger(), nullptr);
  EXPECT_EQ(e.health_ledger()->path(), path);
  EXPECT_GE(e.health().quarantined_kernels, 1u);
  std::remove(path.c_str());
}

// --- Deterministic retry jitter -------------------------------------------

TEST_F(HealthLedgerTest, JitterIsAPureFunctionOfItsInputs) {
  using std::chrono::nanoseconds;
  const nanoseconds delay(1'000'000);
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    for (std::uint64_t seq = 0; seq < 16; ++seq) {
      const nanoseconds first = jittered_backoff(delay, seed, seq);
      const nanoseconds second = jittered_backoff(delay, seed, seq);
      EXPECT_EQ(first, second) << "seed " << seed << " seq " << seq;
      // Bounded: [delay/2, delay] so backoff keeps shedding load.
      EXPECT_GE(first, delay / 2);
      EXPECT_LE(first, delay);
    }
  }
}

TEST_F(HealthLedgerTest, JitterSeedZeroIsBitCompatiblePassthrough) {
  using std::chrono::nanoseconds;
  for (std::int64_t ns : {0ll, 1ll, 1'000'000ll, 5'000'000'000ll}) {
    EXPECT_EQ(jittered_backoff(nanoseconds(ns), 0, 3), nanoseconds(ns));
  }
}

TEST_F(HealthLedgerTest, JitterDecorrelatesAcrossSeedsAndSequence) {
  using std::chrono::nanoseconds;
  const nanoseconds delay(1'000'000);
  // Distinct seeds (and successive retries under one seed) must not move
  // in lockstep; identical draws would defeat the storm decorrelation.
  bool seeds_differ = false;
  for (std::uint64_t seed = 1; seed < 8 && !seeds_differ; ++seed) {
    seeds_differ = jittered_backoff(delay, seed, 0) !=
                   jittered_backoff(delay, seed + 1, 0);
  }
  EXPECT_TRUE(seeds_differ);
  bool seqs_differ = false;
  for (std::uint64_t seq = 0; seq < 8 && !seqs_differ; ++seq) {
    seqs_differ = jittered_backoff(delay, 7, seq) !=
                  jittered_backoff(delay, 7, seq + 1);
  }
  EXPECT_TRUE(seqs_differ);
}

TEST_F(HealthLedgerTest, EngineRetrySscheduleIsSeedReproducible) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay = std::chrono::microseconds(50);
  policy.jitter_seed = 0xFEED;
  Engine e(CacheInfo::kunpeng920());
  e.set_retry_policy(policy);
  EXPECT_EQ(e.retry_policy().jitter_seed, 0xFEEDu);
  // $IATF_RETRY_JITTER_SEED wires the same knob at construction.
  ASSERT_EQ(::setenv("IATF_RETRY_JITTER_SEED", "99", 1), 0);
  Engine env_engine(CacheInfo::kunpeng920());
  ASSERT_EQ(::unsetenv("IATF_RETRY_JITTER_SEED"), 0);
  EXPECT_EQ(env_engine.retry_policy().jitter_seed, 99u);
}

} // namespace
} // namespace iatf::resilience
