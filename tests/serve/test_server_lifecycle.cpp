// Engine <-> Server shutdown-ordering contract (DESIGN.md section 12):
// every Server must be destroyed (or at least stopped) before its
// engine. ~Engine enforces the contract by aborting -- loudly, never UB
// -- while servers are still attached; these tests pin the abort, the
// attach/detach accounting, and destruction under live traffic. The
// dispatcher's idle states (spin, then park; section 12.5) are pinned
// here too: an idle server sleeps, and pause() holds a spinning one.
#include <chrono>
#include <ctime>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::serve {
namespace {

TEST(ServeLifecycle, AttachDetachAccounting) {
  Engine engine(CacheInfo::kunpeng920());
  EXPECT_EQ(engine.attached_servers(), 0u);
  {
    Server s1(engine);
    EXPECT_EQ(engine.attached_servers(), 1u);
    {
      Server s2(engine);
      EXPECT_EQ(engine.attached_servers(), 2u);
    }
    EXPECT_EQ(engine.attached_servers(), 1u);
  }
  EXPECT_EQ(engine.attached_servers(), 0u);
  // All servers gone: the engine destructs cleanly at scope exit.
}

using ServeDeathTest = ::testing::Test;

TEST(ServeDeathTest, EngineDestructionWithLiveServerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto* engine = new Engine(CacheInfo::kunpeng920());
        // Leaked deliberately: the server outlives its engine, which is
        // exactly the ordering bug the abort must catch.
        new Server(*engine);
        delete engine;
      },
      "still attached");
}

// A server on default_engine() created and destroyed inside main()'s
// lifetime is the supported pattern: the engine outlives it, and the
// engine's own static destruction later finds zero attached servers.
TEST(ServeLifecycle, DefaultEngineServerWithinMainIsSupported) {
  Engine& engine = Engine::default_engine();
  const std::size_t before = engine.attached_servers();
  {
    Server server(engine);
    EXPECT_EQ(engine.attached_servers(), before + 1);
  }
  EXPECT_EQ(engine.attached_servers(), before);
}

// Destroying a server while submitters still hold unresolved futures:
// the destructor stops the queue, cancels everything queued, joins the
// dispatcher, and every future resolves. Repeated to shake out
// destruction/dispatch interleavings.
TEST(ServeLifecycle, DestructionMidTrafficResolvesEverything) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Rng rng(5);
  const index_t batch = simd::pack_width_v<double>;
  test::HostBatch<double> a = test::random_batch<double>(2, 2, batch, rng);
  test::HostBatch<double> b = test::random_batch<double>(2, 2, batch, rng);
  test::HostBatch<double> c = test::random_batch<double>(2, 2, batch, rng);
  CompactBuffer<double> ca = a.to_compact();
  CompactBuffer<double> cb = b.to_compact();

  for (int round = 0; round < 50; ++round) {
    constexpr int kRequests = 8;
    std::vector<CompactBuffer<double>> outs;
    outs.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      outs.push_back(c.to_compact());
    }
    std::vector<std::future<BatchHealth>> futs;
    {
      Server server(engine);
      if (round % 2 == 0) {
        server.pause(); // half the rounds die with a full queue
      }
      for (int i = 0; i < kRequests; ++i) {
        futs.push_back(server.submit_gemm<double>(
            Op::NoTrans, Op::NoTrans, 1.0, ca, cb, 0.0,
            outs[static_cast<std::size_t>(i)]));
      }
    } // ~Server races the dispatcher mid-work
    for (auto& fut : futs) {
      try {
        (void)fut.get(); // value or CancelledError -- resolved either way
      } catch (const Error&) {
      }
    }
  }
  EXPECT_EQ(engine.attached_servers(), 0u);
}

/// d 8x8x8 operands for the idle-state tests; each request writes its
/// own output.
struct Gemm8 {
  CompactBuffer<double> a, b;
  std::vector<CompactBuffer<double>> outs;

  explicit Gemm8(int requests) {
    Rng rng(9);
    const index_t batch = simd::pack_width_v<double>;
    a = test::random_batch<double>(8, 8, batch, rng).to_compact();
    b = test::random_batch<double>(8, 8, batch, rng).to_compact();
    for (int i = 0; i < requests; ++i) {
      outs.push_back(test::random_batch<double>(8, 8, batch, rng)
                         .to_compact());
    }
  }

  std::future<BatchHealth> submit(Server& server, int i) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b,
                                      0.0,
                                      outs[static_cast<std::size_t>(i)]);
  }
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

ServeConfig with_dispatchers(std::size_t n) {
  ServeConfig config;
  config.dispatchers = n;
  return config;
}

// After a burst of round trips the spinning dispatcher spins for at
// most kDispatchSpin, then parks, and every follower is parked already:
// a one-second idle window costs the whole process almost no CPU.
TEST(ServeLifecycle, IdleServerParks) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Gemm8 fx(1);
  for (const std::size_t dispatchers : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "dispatchers=" << dispatchers);
    Server server(engine, with_dispatchers(dispatchers));
    for (int i = 0; i < 1000; ++i) {
      fx.submit(server, 0).get();
    }
    const double before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double idle = process_cpu_seconds() - before;
    EXPECT_LT(idle, 0.020) << "CPU seconds over a 1 s idle window";
  }
}

// A lone synchronous caller never has a backlog, so it is served by one
// dispatcher: no follower is started, and no two dispatches overlap. A
// per-tenant quota below the shared bound sends every submit through
// mu_, so there claim_wake, not the lock-free submit, decides each wake.
TEST(ServeLifecycle, LoneCallerUsesOneDispatcher) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Gemm8 fx(1);
  for (const std::size_t quota : {0, 2}) {
    SCOPED_TRACE(::testing::Message() << "per_tenant_quota=" << quota);
    ServeConfig config = with_dispatchers(3);
    config.per_tenant_quota = quota;
    Server server(engine, config);
    for (int i = 0; i < 1000; ++i) {
      fx.submit(server, 0).get();
    }
    const ServerStats s = server.stats();
    EXPECT_EQ(s.dispatchers, 1u);
    EXPECT_EQ(s.peak_concurrent_dispatches, 1u);
    if (quota != 0) {
      EXPECT_EQ(s.locked_submits, s.submitted);
    }
  }
}

// pause() holds a dispatcher that is still spinning after its last
// request: submissions queue, nothing is dispatched until resume(), and
// then the held requests go out as one coalesced dispatch.
TEST(ServeLifecycle, PauseWhileSpinningHoldsDispatch) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Gemm8 fx(5);
  Server server(engine);
  fx.submit(server, 0).get(); // the dispatcher now spins for more work
  const std::uint64_t before = server.stats().dispatch_calls;
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (int i = 1; i <= 4; ++i) {
    futs.push_back(fx.submit(server, i));
  }
  std::this_thread::sleep_for(2 * Server::kDispatchSpin);
  EXPECT_EQ(server.stats().dispatch_calls, before);
  server.resume();
  for (auto& fut : futs) {
    EXPECT_EQ(fut.get().batch, simd::pack_width_v<double>);
  }
  EXPECT_EQ(server.stats().dispatch_calls, before + 1);
}

} // namespace
} // namespace iatf::serve
