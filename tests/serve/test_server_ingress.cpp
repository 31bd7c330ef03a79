// The lock-free submit path of iatf::serve::Server (DESIGN.md section
// 12.5): submits with room in the queue push onto an ingress stack that
// dispatchers splice into the tenant queues, and only a full queue, a
// quota, armed faults or a lifecycle refusal take the locked path. These
// tests pin what must not change with it: exactly-once resolution and
// the counters' balance across stop() and drain() races, the queued
// count and FIFO order behind a pause, and every overload policy at a
// full queue. Labelled `serve`, so the ASan and TSan jobs run them.
#include <atomic>
#include <barrier>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::serve {
namespace {

using resilience::OverloadPolicy;

Engine& ingress_engine() {
  static Engine engine(CacheInfo::kunpeng920());
  static bool init = [] {
    engine.set_kernel_verification(false);
    return true;
  }();
  (void)init;
  return engine;
}

/// One 2x2x2 double GEMM class; every request writes its own output.
struct Outputs {
  CompactBuffer<double> a, b;
  std::vector<CompactBuffer<double>> c;

  explicit Outputs(std::size_t requests) {
    Rng rng(41);
    const index_t batch = simd::pack_width_v<double>;
    a = test::random_batch<double>(2, 2, batch, rng).to_compact();
    b = test::random_batch<double>(2, 2, batch, rng).to_compact();
    const test::HostBatch<double> c0 =
        test::random_batch<double>(2, 2, batch, rng);
    c.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      c.push_back(c0.to_compact());
    }
  }

  std::future<BatchHealth> submit(Server& server, std::size_t i,
                                  SubmitOptions opts = {},
                                  Server::Completion cb = nullptr) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b,
                                      0.0, c[i], opts, std::move(cb));
  }
};

/// True once `fut` holds a value or an error; a second resolution would
/// have thrown std::future_error inside the server instead.
bool resolved(std::future<BatchHealth>& fut) {
  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return false;
  }
  try {
    (void)fut.get();
  } catch (const Error&) {
  }
  return true;
}

// Four submitters race stop() and drain() on the lock-free path: every
// request resolves exactly once, and the counters balance.
TEST(ServeIngress, FastSubmittersRaceStopAndDrain) {
#if defined(__SANITIZE_THREAD__) || defined(IATF_TSAN)
  constexpr int kIterations = 20;
#else
  constexpr int kIterations = 100;
#endif
  constexpr int kSubmitters = 4;
  constexpr std::size_t kPerThread = 64;
  Outputs fx(kSubmitters * kPerThread);
  std::uint64_t lock_free = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    ServeConfig config;
    config.dispatchers = 3;
    Server server(ingress_engine(), config);
    std::vector<std::atomic<int>> calls(kSubmitters * kPerThread);
    std::vector<std::future<BatchHealth>> futs(kSubmitters * kPerThread);
    std::barrier start(kSubmitters + 2);
    std::vector<std::thread> threads;
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t id = static_cast<std::size_t>(t) * kPerThread + i;
          SubmitOptions opts;
          opts.tenant = static_cast<TenantId>(t);
          futs[id] = fx.submit(server, id, opts,
                               [&calls, id](Status, const BatchHealth&) {
                                 calls[id].fetch_add(1);
                               });
        }
      });
    }
    // Stop and drain from two threads, both after the submitters began.
    threads.emplace_back([&] {
      start.arrive_and_wait();
      std::this_thread::sleep_for(std::chrono::microseconds(iter % 7 * 10));
      server.stop();
    });
    start.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::microseconds(iter % 5 * 10));
    server.drain();
    for (auto& th : threads) {
      th.join();
    }
    for (std::size_t id = 0; id < futs.size(); ++id) {
      ASSERT_TRUE(resolved(futs[id])) << "request " << id;
      EXPECT_EQ(calls[id].load(), 1) << "request " << id;
    }
    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, futs.size());
    EXPECT_EQ(s.submitted,
              s.completed + s.cancelled + s.shed_expired + s.shed_overflow);
    EXPECT_EQ(s.queued, 0u);
    EXPECT_EQ(s.inflight, 0u);
    lock_free += s.submitted - s.locked_submits;
  }
  EXPECT_GT(lock_free, 0u) << "no submit took the lock-free path";
}

// Submits behind a pause are counted as queued, and after resume() one
// submitter's requests run in the order it submitted them. The one
// dispatcher is held inside a completion callback meanwhile, so it stays
// awake: the submits take the lock-free path and pile up on the ingress,
// which splices them oldest first.
TEST(ServeIngress, PausedSubmitsAreQueuedAndRunInFifoOrder) {
  constexpr std::size_t kRequests = 200;
  Outputs fx(kRequests + 1);
  ServeConfig config;
  config.dispatchers = 1;
  config.max_coalesce = 1; // one request per dispatch: run order is pick order
  Server server(ingress_engine(), config);
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto holder = fx.submit(server, kRequests, {},
                          [&entered, released](Status, const BatchHealth&) {
                            entered.set_value();
                            released.wait();
                          });
  entered.get_future().wait();
  server.pause();
  std::mutex mu;
  std::vector<std::size_t> order;
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(fx.submit(server, i, {},
                             [&mu, &order, i](Status, const BatchHealth&) {
                               std::lock_guard<std::mutex> lk(mu);
                               order.push_back(i);
                             }));
  }
  const ServerStats held = server.stats();
  EXPECT_EQ(held.queued, kRequests);
  EXPECT_EQ(held.submitted, kRequests + 1);
  EXPECT_EQ(held.dispatch_calls, 1u);
  EXPECT_LT(held.locked_submits, held.submitted)
      << "every submit took the queue lock";
  release.set_value();
  EXPECT_TRUE(holder.get().clean());
  server.resume();
  for (auto& fut : futs) {
    EXPECT_TRUE(fut.get().clean());
  }
  server.drain();
  ASSERT_EQ(order.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(order[i], i) << "dispatch " << i << " ran out of order";
  }
}

// The park handshake: a submit that pushes while the only dispatcher is
// between its last look at the queue and its park reads it as awake and
// takes no lock, so the dispatcher's re-check of the ingress after it
// announces the park is all that serves the request.
TEST(ServeIngress, PushWhileADispatcherParksIsServed) {
  Outputs fx(1);
  // The new server's dispatcher finds nothing to do, spins, and stalls
  // 100 ms in its first park, after its last look at the queue.
  fault::ScopedFault stall("serve.park");
  ServeConfig config;
  config.dispatchers = 1;
  Server server(ingress_engine(), config);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (fault::hits("serve.park") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::hits("serve.park"), 1) << "the dispatcher never parked";
  auto fut = fx.submit(server, 0);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(2)), std::future_status::ready)
      << "a push during the park was lost";
  EXPECT_TRUE(fut.get().clean());
  EXPECT_EQ(server.stats().locked_submits, 0u)
      << "the submit took the queue lock, so the window went untested";
}

// A full queue behind lock-free admissions applies each overload policy
// as the locked path always did, and the slots come back once the queue
// drains: a second fill sheds, blocks or degrades exactly as the first.
TEST(ServeIngress, FullQueueKeepsEachOverloadPolicy) {
  constexpr std::size_t kCapacity = 4;
  for (const OverloadPolicy policy :
       {OverloadPolicy::ShedNewest, OverloadPolicy::DegradeToRef,
        OverloadPolicy::Block}) {
    SCOPED_TRACE(::testing::Message()
                 << "policy " << static_cast<int>(policy));
    Outputs fx(2 * (kCapacity + 1));
    ServeConfig config;
    config.queue_capacity = kCapacity;
    config.overload = policy;
    Server server(ingress_engine(), config);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      const std::size_t base = static_cast<std::size_t>(round) *
                               (kCapacity + 1);
      server.pause();
      std::vector<std::future<BatchHealth>> queued;
      for (std::size_t i = 0; i < kCapacity; ++i) {
        queued.push_back(fx.submit(server, base + i));
      }
      EXPECT_EQ(server.stats().queued, kCapacity);
      std::future<BatchHealth> over;
      std::thread blocked;
      std::atomic<bool> returned{false};
      if (policy == OverloadPolicy::Block) {
        blocked = std::thread([&] {
          over = fx.submit(server, base + kCapacity);
          returned.store(true);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_FALSE(returned.load()) << "a full queue did not block";
      } else {
        over = fx.submit(server, base + kCapacity);
        ASSERT_EQ(over.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "the overflow was not resolved at submit";
      }
      server.resume();
      if (blocked.joinable()) {
        blocked.join();
      }
      for (auto& fut : queued) {
        EXPECT_TRUE(fut.get().clean());
      }
      if (policy == OverloadPolicy::ShedNewest) {
        EXPECT_THROW(over.get(), OverloadError);
      } else {
        EXPECT_TRUE(over.get().clean());
      }
    }
    server.drain();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 2 * (kCapacity + 1));
    EXPECT_EQ(s.shed_overflow,
              policy == OverloadPolicy::ShedNewest ? 2u : 0u);
    EXPECT_EQ(s.degraded_inline,
              policy == OverloadPolicy::DegradeToRef ? 2u : 0u);
    EXPECT_EQ(s.completed + s.shed_overflow, s.submitted);
  }
}

// A per-tenant quota below the shared bound needs exact tenant queue
// lengths, so every submit takes the locked path and the quota sheds
// exactly the noisy tenant's overflow.
TEST(ServeIngress, QuotaBelowCapacityTakesTheLockedPath) {
  Outputs fx(5);
  ServeConfig config;
  config.queue_capacity = 8;
  config.per_tenant_quota = 2;
  config.overload = OverloadPolicy::ShedNewest;
  Server server(ingress_engine(), config);
  server.pause();
  SubmitOptions noisy;
  noisy.tenant = 1;
  SubmitOptions quiet;
  quiet.tenant = 2;
  std::vector<std::future<BatchHealth>> ok;
  ok.push_back(fx.submit(server, 0, noisy));
  ok.push_back(fx.submit(server, 1, noisy));
  auto over = fx.submit(server, 2, noisy);
  ok.push_back(fx.submit(server, 3, quiet));
  ok.push_back(fx.submit(server, 4, quiet));
  EXPECT_THROW(over.get(), OverloadError);
  server.resume();
  for (auto& fut : ok) {
    EXPECT_TRUE(fut.get().clean());
  }
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.locked_submits, s.submitted);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].shed_overflow, 1u);
  EXPECT_EQ(s.tenants[1].shed_overflow, 0u);
}

} // namespace
} // namespace iatf::serve
