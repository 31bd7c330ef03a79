// Serve-layer watchdog supervision: a dispatch wedged inside the engine
// (armed "watchdog.stall") is reclaimed once it exceeds its grace budget
// -- the stuck futures resolve with WatchdogError, the descriptor
// class's breaker is forced Open (journaled via the engine), and a fresh
// dispatcher generation replaces the wedged thread so queued work keeps
// moving. Timings are deliberately coarse (stall 500ms vs budgets of
// tens of ms) so the assertions hold under ASan/TSan scheduling noise.
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/resilience/health_ledger.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::serve {
namespace {

using namespace std::chrono_literals;

class WatchdogTest : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// Identical-descriptor double GEMMs with per-request outputs (mirrors
// test_server.cpp's GemmPool).
struct GemmPool {
  index_t m, n, k, batch;
  test::HostBatch<double> a, b;
  CompactBuffer<double> ca, cb;
  std::vector<test::HostBatch<double>> cs;
  std::vector<CompactBuffer<double>> ccs;
  test::HostBatch<double> expected;

  explicit GemmPool(std::size_t requests, unsigned seed = 417,
                    index_t dim = 4)
      : m(dim), n(dim), k(dim) {
    Rng rng(seed);
    batch = simd::pack_width_v<double> + 1;
    a = test::random_batch<double>(m, k, batch, rng);
    b = test::random_batch<double>(k, n, batch, rng);
    ca = a.to_compact();
    cb = b.to_compact();
    test::HostBatch<double> c0 = test::random_batch<double>(m, n, batch, rng);
    expected = c0;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, a.mat(l), a.ld(),
                b.mat(l), b.ld(), 0.0, expected.mat(l), expected.ld());
    }
    cs.assign(requests, c0);
    ccs.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      ccs.push_back(cs[i].to_compact());
    }
  }

  /// The descriptor class of the fixture's calls (double, 128-bit).
  sched::ClassKey key() const {
    return sched::class_key<double>(
        GemmShape{m, n, k, Op::NoTrans, Op::NoTrans, batch}, 16);
  }

  std::future<BatchHealth> submit(Server& server, std::size_t i,
                                  SubmitOptions opts = {}) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, ca, cb,
                                      0.0, ccs[i], opts);
  }

  void expect_correct(std::size_t i, const std::string& ctx) {
    test::HostBatch<double> out = cs[i];
    out.from_compact(ccs[i]);
    test::expect_batch_near(expected, out, test::ulp_tolerance<double>(k),
                            ctx);
  }
};

Engine& test_engine() {
  static Engine engine(CacheInfo::kunpeng920());
  static bool init = [] {
    engine.set_kernel_verification(false);
    return true;
  }();
  (void)init;
  return engine;
}

ServeConfig watchdog_config() {
  ServeConfig cfg;
  cfg.watchdog_grace = 1.0;
  cfg.watchdog_floor = 50ms; // reclaim ~50ms into the 500ms stall
  cfg.watchdog_poll = 5ms;
  return cfg;
}

TEST_F(WatchdogTest, StalledDispatchResolvesWithWatchdogError) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(2);
  fault::ScopedFault stall("watchdog.stall", 0, 1); // first dispatch only
  std::future<BatchHealth> stuck = pool.submit(server, 0);
  // The future resolves long before the 500ms stall ends: the watchdog,
  // not the wedged dispatcher, resolved it.
  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  try {
    (void)stuck.get();
    FAIL() << "expected WatchdogError";
  } catch (const Error& err) {
    EXPECT_EQ(err.status(), Status::Watchdog);
  }
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);

  // The respawned dispatcher generation serves new work on the spot --
  // the wedged thread is still sleeping inside the engine at this point.
  std::future<BatchHealth> healthy = pool.submit(server, 1);
  ASSERT_EQ(healthy.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(healthy.get().clean());
  // Reclaimed buffers stay borrowed until the zombie is joined; stop()
  // guarantees that, after which pool may be destroyed.
  server.stop();
  pool.expect_correct(1, "post-reclaim dispatch");
}

TEST_F(WatchdogTest, ReclaimFailsEveryRequestInTheCoalescedBatch) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(3);
  server.pause(); // stage all three so they coalesce into one dispatch
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  server.resume();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(futs[i].wait_for(10s), std::future_status::ready) << i;
    EXPECT_THROW((void)futs[i].get(), WatchdogError) << i;
  }
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
}

TEST_F(WatchdogTest, ReclaimTripsTheClassBreakerAndJournals) {
  const std::string path = ::testing::TempDir() + "iatf_watchdog.hl";
  std::remove(path.c_str());
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  engine.set_breaker_config({/*window=*/4, /*threshold=*/2, /*cooldown=*/2});
  ASSERT_EQ(engine.set_health_ledger(path),
            resilience::LedgerLoad::Missing);
  {
    Server server(engine, watchdog_config());
    GemmPool pool(1);
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    std::future<BatchHealth> stuck = pool.submit(server, 0);
    ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
    EXPECT_THROW((void)stuck.get(), WatchdogError);
    // The stalled class is forced Open: the engine stops trusting its
    // fast path until the cooldown probe clears it.
    EXPECT_EQ(engine.breaker_state(pool.key()),
              resilience::BreakerState::Open);
    server.stop();
  }
  // The reclaim was journaled as it happened: a restart would replay it.
  const resilience::LedgerStats stats = engine.health_ledger()->stats();
  EXPECT_GE(stats.watchdog_reclaims, 1u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST_F(WatchdogTest, DeadlineScalesTheStallBudget) {
  ServeConfig cfg = watchdog_config();
  cfg.watchdog_floor = 20ms;
  Server server(test_engine(), cfg);
  GemmPool pool(1);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  // A generous deadline stretches the budget past the floor: grace 1.0 x
  // 2s means the 500ms stall finishes first and the request succeeds.
  SubmitOptions opts;
  opts.deadline = 2s;
  std::future<BatchHealth> fut = pool.submit(server, 0, opts);
  ASSERT_EQ(fut.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(fut.get().clean());
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);
  server.stop();
  pool.expect_correct(0, "slow but within budget");
}

TEST_F(WatchdogTest, DisabledWatchdogLeavesStallsAlone) {
  Server server(test_engine()); // default config: no supervisor
  GemmPool pool(1);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> fut = pool.submit(server, 0);
  ASSERT_EQ(fut.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(fut.get().clean()); // slow, but resolved by the dispatcher
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);
  server.stop();
  pool.expect_correct(0, "unsupervised stall");
}

TEST_F(WatchdogTest, SetWatchdogEnablesSupervisionAtRuntime) {
  Server server(test_engine()); // starts unsupervised
  server.set_watchdog(1.0, 50ms);
  GemmPool pool(2);
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> stuck = pool.submit(server, 0);
  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  EXPECT_THROW((void)stuck.get(), WatchdogError);
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  // Disable again: the next stall runs to completion unsupervised.
  server.set_watchdog(0.0);
  fault::arm("watchdog.stall", 0, 1);
  std::future<BatchHealth> slow = pool.submit(server, 1);
  ASSERT_EQ(slow.wait_for(30s), std::future_status::ready);
  EXPECT_TRUE(slow.get().clean());
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
}

TEST_F(WatchdogTest, StopAfterReclaimJoinsTheZombieCleanly) {
  GemmPool pool(8);
  {
    Server server(test_engine(), watchdog_config());
    fault::ScopedFault stall("watchdog.stall", 0, 1);
    std::vector<std::future<BatchHealth>> futs;
    futs.push_back(pool.submit(server, 0)); // wedges; reclaimed
    ASSERT_EQ(futs[0].wait_for(10s), std::future_status::ready);
    for (std::size_t i = 1; i < 8; ++i) {
      futs.push_back(pool.submit(server, i)); // served by the new epoch
    }
    server.drain(); // joins dispatcher AND the retired zombie
    int reclaimed = 0;
    for (auto& f : futs) {
      try {
        EXPECT_TRUE(f.get().clean());
      } catch (const WatchdogError&) {
        ++reclaimed;
      }
    }
    EXPECT_EQ(reclaimed, 1);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.watchdog_kicks, 1u);
    EXPECT_EQ(s.inflight, 0u);
    EXPECT_EQ(s.queued, 0u);
    // ~Server runs here with a parked zombie already joined by drain().
  }
  for (std::size_t i = 1; i < 8; ++i) {
    pool.expect_correct(i, "post-drain request " + std::to_string(i));
  }
}

TEST_F(WatchdogTest, ReclaimLeavesOtherDispatchersServing) {
  ServeConfig cfg = watchdog_config();
  cfg.watchdog_floor = 300ms; // reclaim ~300ms into the 500ms stall
  cfg.dispatchers = 3;
  Server server(test_engine(), cfg);
  GemmPool stalled(1);
  GemmPool other(1, 419, /*dim=*/2); // another descriptor class
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> stuck = stalled.submit(server, 0);
  // Submit the other class once the first dispatch is inside its stall.
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (fault::hits("watchdog.stall") < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(fault::hits("watchdog.stall"), 1);
  // Well past the spin bound: a request landing within kDispatchSpin of
  // a dispatch's pick waits for that dispatch (DESIGN.md section 12.5).
  std::this_thread::sleep_for(5ms);
  std::future<BatchHealth> served = other.submit(server, 0);
  ASSERT_EQ(served.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(served.get().clean());
  // A follower served it while the first dispatcher was still wedged.
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);

  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  EXPECT_THROW((void)stuck.get(), WatchdogError);
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
  other.expect_correct(0, "served beside a wedged dispatcher");
}

// A coalesce-mate shed at dequeue resolves before its round's engine
// call: a dispatch that wedges does not hold it until the reclaim.
TEST_F(WatchdogTest, ShedMateResolvesBeforeTheReclaim) {
  ServeConfig cfg = watchdog_config();
  cfg.watchdog_floor = 300ms; // reclaim ~300ms into the 500ms stall
  cfg.dispatchers = 3;
  Server server(test_engine(), cfg);
  GemmPool pool(2);
  server.pause(); // stage the mate behind the head, same class
  std::future<BatchHealth> stuck = pool.submit(server, 0);
  SubmitOptions tight;
  tight.deadline = 1ms;
  std::future<BatchHealth> mate = pool.submit(server, 1, tight);
  std::this_thread::sleep_for(20ms); // the mate's deadline passes queued
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  server.resume();
  ASSERT_EQ(mate.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(server.stats().watchdog_kicks, 0u);
  EXPECT_THROW((void)mate.get(), TimeoutError);

  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  EXPECT_THROW((void)stuck.get(), WatchdogError);
  EXPECT_EQ(server.stats().watchdog_kicks, 1u);
  server.stop();
}

// Runs `fn` when the last copy of the callback holding it dies.
struct OnRelease {
  std::function<void()> fn;
  ~OnRelease() { fn(); }
};

// A retired dispatcher that un-wedges still publishes before it exits,
// and a submitter counts it as about to re-check the queue. It exits
// without that re-check, so it must hand a request that arrived
// meanwhile to a parked dispatcher.
TEST_F(WatchdogTest, SubmitDuringLateRetiredPublishIsServed) {
  GemmPool pool(2);
  std::promise<std::future<BatchHealth>> late;
  std::future<std::future<BatchHealth>> late_fut = late.get_future();
  Server server(test_engine(), [] {
    ServeConfig cfg = watchdog_config();
    cfg.dispatchers = 3;
    return cfg;
  }());
  // The stalled request's callback is the last thing holding `hook`, so
  // `hook` runs on the retired thread as it drops the reclaimed batch:
  // after its stall ends, before it re-locks. By then the replacement
  // has spun out and parked.
  auto hook = std::make_shared<OnRelease>();
  hook->fn = [&] {
    std::this_thread::sleep_for(50ms);
    late.set_value(pool.submit(server, 1));
  };
  fault::ScopedFault stall("watchdog.stall", 0, 1);
  std::future<BatchHealth> stuck = server.submit_gemm<double>(
      Op::NoTrans, Op::NoTrans, 1.0, pool.ca, pool.cb, 0.0, pool.ccs[0], {},
      [hook](Status, const BatchHealth&) {});
  hook.reset();
  ASSERT_EQ(stuck.wait_for(10s), std::future_status::ready);
  EXPECT_THROW((void)stuck.get(), WatchdogError);

  ASSERT_EQ(late_fut.wait_for(10s), std::future_status::ready);
  std::future<BatchHealth> served = late_fut.get();
  ASSERT_EQ(served.wait_for(2s), std::future_status::ready)
      << "a request submitted during the retired thread's publish stayed "
         "queued";
  EXPECT_TRUE(served.get().clean());
  server.stop();
  pool.expect_correct(1, "submitted during a retired publish");
}

TEST_F(WatchdogTest, HeartbeatsCountDispatcherRounds) {
  Server server(test_engine(), watchdog_config());
  GemmPool pool(2);
  for (std::size_t i = 0; i < 2; ++i) {
    std::future<BatchHealth> f = pool.submit(server, i);
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
    EXPECT_TRUE(f.get().clean());
  }
  EXPECT_GE(server.stats().heartbeats, 2u);
  server.stop();
}

} // namespace
} // namespace iatf::serve
