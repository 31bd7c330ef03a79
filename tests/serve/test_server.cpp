// iatf::serve::Server unit behaviour: async submission and resolution,
// cross-tenant coalescing onto grouped dispatches, weighted-fair
// dequeue, per-tenant quotas, queue-full policies, deadline shedding,
// the drain/stop lifecycle, and the serve.* fault-injection sites.
//
// Determinism tool: pause() freezes the dispatcher so a test can stage
// an exact queue state, then resume()/drain() releases it; every
// scenario asserts on both the futures and the stats counters.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::serve {
namespace {

using resilience::OverloadPolicy;

class ServeTest : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// --- WeightedPicker ------------------------------------------------------

TEST_F(ServeTest, PickerAlternatesEqualWeights) {
  WeightedPicker p;
  const std::vector<TenantId> both{0, 1};
  // Equal weights: strict alternation, ties to the lower id.
  EXPECT_EQ(p.pick(both), 0u);
  p.charge(0);
  EXPECT_EQ(p.pick(both), 1u);
  p.charge(1);
  EXPECT_EQ(p.pick(both), 0u);
  p.charge(0);
  EXPECT_EQ(p.pick(both), 1u);
}

TEST_F(ServeTest, PickerHonoursWeightRatios) {
  WeightedPicker p;
  p.set_weight(0, 3);
  p.set_weight(1, 1);
  const std::vector<TenantId> both{0, 1};
  int served0 = 0;
  for (int i = 0; i < 40; ++i) {
    const TenantId t = p.pick(both);
    p.charge(t);
    served0 += t == 0 ? 1 : 0;
  }
  EXPECT_EQ(served0, 30); // exactly 3:1 over a full number of rounds
}

TEST_F(ServeTest, PickerActivateForfeitsIdleCredit) {
  WeightedPicker p;
  const std::vector<TenantId> both{0, 1};
  // Tenant 0 alone consumes a lot of virtual time.
  for (int i = 0; i < 100; ++i) {
    p.charge(0);
  }
  // Tenant 1 wakes: activate() aligns it with the current virtual time,
  // so it may not monopolise dispatches to "catch up".
  p.activate(1);
  int consecutive1 = 0;
  while (p.pick(both) == 1) {
    p.charge(1);
    ++consecutive1;
    ASSERT_LT(consecutive1, 3);
  }
  EXPECT_LE(consecutive1, 1);
}

// --- Fixtures -------------------------------------------------------------

// A pool of identical-descriptor double GEMM problems (same ClassKey, so
// they coalesce) with per-request output buffers and a shared reference.
struct GemmPool {
  index_t m = 4, n = 4, k = 4, batch;
  test::HostBatch<double> a, b;
  CompactBuffer<double> ca, cb;
  std::vector<test::HostBatch<double>> cs;
  std::vector<CompactBuffer<double>> ccs;
  test::HostBatch<double> expected;

  explicit GemmPool(std::size_t requests, unsigned seed = 99) {
    Rng rng(seed);
    batch = simd::pack_width_v<double> + 1;
    a = test::random_batch<double>(m, k, batch, rng);
    b = test::random_batch<double>(k, n, batch, rng);
    ca = a.to_compact();
    cb = b.to_compact();
    test::HostBatch<double> c0 =
        test::random_batch<double>(m, n, batch, rng);
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

  std::future<BatchHealth> submit(Server& server, std::size_t i,
                                  SubmitOptions opts = {},
                                  Server::Completion cb = nullptr) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, ca,
                                      cb_buffer(), 0.0, ccs[i], opts,
                                      std::move(cb));
  }

  const CompactBuffer<double>& cb_buffer() const { return cb; }

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

// --- Async submission ------------------------------------------------------

TEST_F(ServeTest, SubmitGemmResolvesWithCorrectResult) {
  Server server(test_engine());
  GemmPool pool(1);
  auto fut = pool.submit(server, 0);
  const BatchHealth h = fut.get();
  EXPECT_TRUE(h.clean());
  pool.expect_correct(0, "async gemm");
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.queued, 0u);
}

TEST_F(ServeTest, SubmitTrsmResolves) {
  Server server(test_engine());
  Rng rng(7);
  const index_t m = 4, n = 3;
  const index_t batch = simd::pack_width_v<double>;
  test::HostBatch<double> a =
      test::random_triangular_batch<double>(m, batch, rng);
  test::HostBatch<double> b = test::random_batch<double>(m, n, batch, rng);
  CompactBuffer<double> cab = a.to_compact();
  CompactBuffer<double> cbb = b.to_compact();
  auto fut = server.submit_trsm<double>(Side::Left, Uplo::Lower,
                                        Op::NoTrans, Diag::NonUnit, 1.0,
                                        cab, cbb);
  EXPECT_TRUE(fut.get().clean());
}

TEST_F(ServeTest, SubmitGroupedGemmResolvesPerSegment) {
  Server server(test_engine());
  GemmPool pool(2);
  std::vector<sched::GemmSegment<double>> segs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    segs[i].alpha = 1.0;
    segs[i].beta = 0.0;
    segs[i].a = &pool.ca;
    segs[i].b = &pool.cb;
    segs[i].c = &pool.ccs[i];
  }
  auto fut = server.submit_grouped<double>(
      std::span<const sched::GemmSegment<double>>(segs));
  const std::vector<BatchHealth> healths = fut.get();
  ASSERT_EQ(healths.size(), 2u);
  pool.expect_correct(0, "grouped segment 0");
  pool.expect_correct(1, "grouped segment 1");
}

TEST_F(ServeTest, CompletionCallbackSeesFinalStatus) {
  Server server(test_engine());
  GemmPool pool(1);
  std::promise<Status> seen;
  auto fut = pool.submit(server, 0, {},
                         [&](Status st, const BatchHealth&) {
                           seen.set_value(st);
                         });
  EXPECT_EQ(seen.get_future().get(), Status::Ok);
  EXPECT_TRUE(fut.get().clean());
}

TEST_F(ServeTest, ThrowingCallbackDoesNotKillTheDispatcher) {
  Server server(test_engine());
  GemmPool pool(2);
  auto fut0 = pool.submit(server, 0, {},
                          [](Status, const BatchHealth&) {
                            throw std::runtime_error("bad callback");
                          });
  EXPECT_TRUE(fut0.get().clean()); // future resolves despite the throw
  auto fut1 = pool.submit(server, 1); // dispatcher still alive
  EXPECT_TRUE(fut1.get().clean());
}

// --- Cross-tenant coalescing ----------------------------------------------

TEST_F(ServeTest, CoalescesSameClassAcrossTenants) {
  Server server(test_engine());
  constexpr std::size_t kRequests = 4;
  GemmPool pool(kRequests);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    SubmitOptions opts;
    opts.tenant = static_cast<TenantId>(i); // one request per tenant
    futs.push_back(pool.submit(server, i, opts));
  }
  server.drain(); // overrides the pause
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(futs[i].get().clean());
    pool.expect_correct(i, "coalesced request " + std::to_string(i));
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dispatch_calls, 1u); // one grouped call served all four
  EXPECT_EQ(s.coalesced_requests, kRequests);
  EXPECT_EQ(s.coalesce_hist[2], 1u); // bucket "<= 4 per dispatch"
  ASSERT_EQ(s.tenants.size(), kRequests);
  for (const TenantStats& t : s.tenants) {
    EXPECT_EQ(t.served, 1u);
  }
}

TEST_F(ServeTest, DifferentClassesDoNotCoalesce) {
  Server server(test_engine());
  GemmPool small(1);
  server.pause();
  auto f0 = small.submit(server, 0);
  // A different shape: distinct ClassKey, must not join the batch.
  Rng rng(3);
  const index_t batch = simd::pack_width_v<double> + 1;
  test::HostBatch<double> a = test::random_batch<double>(6, 5, batch, rng);
  test::HostBatch<double> b = test::random_batch<double>(5, 3, batch, rng);
  test::HostBatch<double> c = test::random_batch<double>(6, 3, batch, rng);
  CompactBuffer<double> ca = a.to_compact();
  CompactBuffer<double> cb = b.to_compact();
  CompactBuffer<double> cc = c.to_compact();
  auto f1 = server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, ca,
                                       cb, 0.0, cc);
  server.drain();
  EXPECT_TRUE(f0.get().clean());
  EXPECT_TRUE(f1.get().clean());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dispatch_calls, 2u);
  EXPECT_EQ(s.coalesced_requests, 0u);
  EXPECT_EQ(s.coalesce_hist[0], 2u); // two single-request dispatches
}

TEST_F(ServeTest, MaxCoalesceBoundsTheBatch) {
  ServeConfig config;
  config.max_coalesce = 2;
  Server server(test_engine(), config);
  GemmPool pool(4);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 4; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  server.drain();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().clean());
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dispatch_calls, 2u); // 4 requests in pairs
  EXPECT_EQ(s.coalesce_hist[1], 2u);
}

TEST_F(ServeTest, GroupedSubmissionsDispatchAsIs) {
  Server server(test_engine());
  GemmPool pool(3);
  server.pause();
  std::vector<sched::GemmSegment<double>> segs(1);
  segs[0].alpha = 1.0;
  segs[0].beta = 0.0;
  segs[0].a = &pool.ca;
  segs[0].b = &pool.cb;
  segs[0].c = &pool.ccs[0];
  auto fg = server.submit_grouped<double>(
      std::span<const sched::GemmSegment<double>>(segs));
  auto f1 = pool.submit(server, 1);
  auto f2 = pool.submit(server, 2);
  server.drain();
  EXPECT_EQ(fg.get().size(), 1u);
  EXPECT_TRUE(f1.get().clean());
  EXPECT_TRUE(f2.get().clean());
  const ServerStats s = server.stats();
  // The grouped request dispatches alone; the two singles coalesce.
  EXPECT_EQ(s.dispatch_calls, 2u);
  EXPECT_EQ(s.coalesced_requests, 2u);
}

// --- Deadline shedding ------------------------------------------------------

TEST_F(ServeTest, ExpiredRequestIsShedAtDequeueNotDispatched) {
  Server server(test_engine());
  GemmPool pool(1);
  server.pause();
  SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(5);
  auto fut = pool.submit(server, 0, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain();
  EXPECT_THROW(fut.get(), TimeoutError);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.dispatch_calls, 0u); // dead work never reached the engine
}

TEST_F(ServeTest, ExpiredCoalesceMateIsShedButHeadRuns) {
  Server server(test_engine());
  GemmPool pool(2);
  server.pause();
  SubmitOptions expired;
  expired.deadline = std::chrono::milliseconds(5);
  auto dead = pool.submit(server, 0, expired);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto live = pool.submit(server, 1); // no deadline
  server.drain();
  // Whichever request the dispatcher dequeues first, the expired one
  // resolves with TimeoutError and the live one completes.
  EXPECT_THROW(dead.get(), TimeoutError);
  EXPECT_TRUE(live.get().clean());
  EXPECT_EQ(server.stats().shed_expired, 1u);
}

TEST_F(ServeTest, DefaultDeadlineAppliesToUnboundedSubmissions) {
  ServeConfig config;
  config.default_deadline = std::chrono::milliseconds(5);
  Server server(test_engine(), config);
  GemmPool pool(1);
  server.pause();
  auto fut = pool.submit(server, 0); // inherits the server default
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.drain();
  EXPECT_THROW(fut.get(), TimeoutError);
}

// --- Queue-full policies ----------------------------------------------------

TEST_F(ServeTest, ShedNewestResolvesOverflowWithOverloadError) {
  ServeConfig config;
  config.queue_capacity = 1;
  config.overload = OverloadPolicy::ShedNewest;
  Server server(test_engine(), config);
  GemmPool pool(2);
  server.pause();
  auto queued = pool.submit(server, 0);
  auto shed = pool.submit(server, 1);
  EXPECT_THROW(shed.get(), OverloadError); // resolved at submit time
  server.drain();
  EXPECT_TRUE(queued.get().clean());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shed_overflow, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST_F(ServeTest, PerTenantQuotaShedsOnlyTheNoisyTenant) {
  ServeConfig config;
  config.queue_capacity = 8;
  config.per_tenant_quota = 1;
  config.overload = OverloadPolicy::ShedNewest;
  Server server(test_engine(), config);
  GemmPool pool(3);
  server.pause();
  SubmitOptions noisy;
  noisy.tenant = 1;
  auto ok1 = pool.submit(server, 0, noisy);
  auto over = pool.submit(server, 1, noisy); // quota 1 exceeded
  SubmitOptions other;
  other.tenant = 2;
  auto ok2 = pool.submit(server, 2, other); // other tenant unaffected
  EXPECT_THROW(over.get(), OverloadError);
  server.drain();
  EXPECT_TRUE(ok1.get().clean());
  EXPECT_TRUE(ok2.get().clean());
  const ServerStats s = server.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].tenant, 1u);
  EXPECT_EQ(s.tenants[0].shed_overflow, 1u);
  EXPECT_EQ(s.tenants[1].shed_overflow, 0u);
}

TEST_F(ServeTest, BlockWaitsForSpaceThenCompletes) {
  ServeConfig config;
  config.queue_capacity = 1;
  config.overload = OverloadPolicy::Block;
  Server server(test_engine(), config);
  GemmPool pool(2);
  server.pause();
  auto first = pool.submit(server, 0);
  std::atomic<bool> blocked_submit_returned{false};
  std::thread submitter([&] {
    auto second = pool.submit(server, 1); // blocks: queue full
    blocked_submit_returned.store(true);
    EXPECT_TRUE(second.get().clean());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked_submit_returned.load());
  server.resume(); // dispatching frees the slot, unblocking the submit
  submitter.join();
  server.drain();
  EXPECT_TRUE(first.get().clean());
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST_F(ServeTest, BlockedSubmitTimesOutAtItsOwnDeadline) {
  ServeConfig config;
  config.queue_capacity = 1;
  config.overload = OverloadPolicy::Block;
  Server server(test_engine(), config);
  GemmPool pool(2);
  server.pause(); // nothing ever dequeues: the wait must time out
  auto first = pool.submit(server, 0);
  SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(30);
  const auto start = std::chrono::steady_clock::now();
  auto second = pool.submit(server, 1, opts);
  EXPECT_THROW(second.get(), TimeoutError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  EXPECT_EQ(server.stats().shed_expired, 1u);
  server.stop();
  EXPECT_THROW(first.get(), CancelledError);
}

TEST_F(ServeTest, DegradeToRefRunsOverflowInlineOnTheSubmitter) {
  ServeConfig config;
  config.queue_capacity = 1;
  config.overload = OverloadPolicy::DegradeToRef;
  Server server(test_engine(), config);
  GemmPool pool(2);
  server.pause();
  auto queued = pool.submit(server, 0);
  using namespace std::chrono_literals;
  auto inline_run = pool.submit(server, 1);
  // Inline execution resolves before submit returns.
  ASSERT_EQ(inline_run.wait_for(0s), std::future_status::ready);
  EXPECT_TRUE(inline_run.get().clean());
  pool.expect_correct(1, "inline degraded request");
  server.drain();
  EXPECT_TRUE(queued.get().clean());
  EXPECT_EQ(server.stats().degraded_inline, 1u);
}

TEST_F(ServeTest, PolicyFlipReleasesBlockedSubmitters) {
  ServeConfig config;
  config.queue_capacity = 1;
  config.overload = OverloadPolicy::Block;
  Server server(test_engine(), config);
  GemmPool pool(2);
  server.pause();
  auto first = pool.submit(server, 0);
  std::thread submitter([&] {
    auto second = pool.submit(server, 1); // blocks under Block
    // After the flip the waiter re-applies the new policy: shed.
    EXPECT_THROW(second.get(), OverloadError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.set_overload_policy(OverloadPolicy::ShedNewest);
  submitter.join();
  server.drain();
  EXPECT_TRUE(first.get().clean());
}

// --- Weighted fairness -------------------------------------------------------

TEST_F(ServeTest, TenantWeightsShapeDispatchOrder) {
  ServeConfig config;
  config.max_coalesce = 1; // isolate ordering from coalescing
  // Completion order is the dispatch order only with one dispatcher;
  // concurrent dispatches may complete in any order.
  config.dispatchers = 1;
  Server server(test_engine(), config);
  server.set_tenant_weight(1, 3);
  server.set_tenant_weight(2, 1);
  GemmPool pool(8);
  std::mutex order_mu;
  std::vector<TenantId> order;
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 8; ++i) {
    const TenantId tenant = i < 4 ? 1 : 2;
    SubmitOptions opts;
    opts.tenant = tenant;
    futs.push_back(pool.submit(server, i, opts,
                               [&, tenant](Status, const BatchHealth&) {
                                 std::lock_guard<std::mutex> lk(order_mu);
                                 order.push_back(tenant);
                               }));
  }
  server.drain();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().clean());
  }
  ASSERT_EQ(order.size(), 8u);
  // Weight 3:1 -- among the first four dispatches, tenant 1 gets three.
  const int early1 = static_cast<int>(
      std::count(order.begin(), order.begin() + 4, TenantId{1}));
  EXPECT_EQ(early1, 3);
}

// --- Lifecycle ---------------------------------------------------------------

TEST_F(ServeTest, DrainCompletesQueuedWorkAndRefusesNew) {
  Server server(test_engine());
  GemmPool pool(4);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  server.drain();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(futs[i].get().clean());
    pool.expect_correct(i, "drained request " + std::to_string(i));
  }
  EXPECT_FALSE(server.accepting());
  auto late = pool.submit(server, 3);
  EXPECT_THROW(late.get(), CancelledError);
  EXPECT_GE(server.stats().cancelled, 1u);
}

TEST_F(ServeTest, StopCancelsQueuedWorkWithCancelledError) {
  Server server(test_engine());
  GemmPool pool(3);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  server.stop();
  for (auto& f : futs) {
    EXPECT_THROW(f.get(), CancelledError);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.cancelled, 3u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.dispatch_calls, 0u);
}

TEST_F(ServeTest, LifecycleCallsAreIdempotentAndConcurrent) {
  Server server(test_engine());
  GemmPool pool(2);
  auto f0 = pool.submit(server, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) {
        server.drain();
      } else {
        server.stop();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // The queued request resolved one way or the other.
  try {
    (void)f0.get();
  } catch (const CancelledError&) {
  }
  auto late = pool.submit(server, 1);
  EXPECT_THROW(late.get(), CancelledError);
}

TEST_F(ServeTest, DestructorResolvesOutstandingFutures) {
  GemmPool pool(3);
  std::vector<std::future<BatchHealth>> futs;
  {
    Server server(test_engine());
    server.pause();
    for (std::size_t i = 0; i < 3; ++i) {
      futs.push_back(pool.submit(server, i));
    }
  } // ~Server == stop(): queued work cancelled, dispatcher joined
  for (auto& f : futs) {
    EXPECT_THROW(f.get(), CancelledError);
  }
}

TEST_F(ServeTest, PauseFreezesDispatchUntilResume) {
  Server server(test_engine());
  GemmPool pool(1);
  server.pause();
  auto fut = pool.submit(server, 0);
  using namespace std::chrono_literals;
  EXPECT_EQ(fut.wait_for(50ms), std::future_status::timeout);
  EXPECT_EQ(server.stats().queued, 1u);
  server.resume();
  EXPECT_TRUE(fut.get().clean());
  server.drain();
}

// --- Fault-injection sites ---------------------------------------------------

TEST_F(ServeTest, EnqueueFaultFailsOnlyTheInjectedRequest) {
  Server server(test_engine());
  GemmPool pool(2);
  {
    fault::ScopedFault f("serve.enqueue", 0, 1);
    auto failed = pool.submit(server, 0);
    EXPECT_THROW(failed.get(), fault::FaultInjected);
  }
  auto ok = pool.submit(server, 1); // the server took no damage
  EXPECT_TRUE(ok.get().clean());
}

TEST_F(ServeTest, CoalesceFaultFallsBackToSmallerDispatches) {
  Server server(test_engine());
  GemmPool pool(4);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 4; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  fault::arm("serve.coalesce", 0, 100); // every mate scan fails
  server.drain();
  fault::disarm_all();
  // Coalescing degrades, correctness does not: every request completes.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(futs[i].get().clean());
    pool.expect_correct(i, "uncoalesced request " + std::to_string(i));
  }
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST_F(ServeTest, DispatchFaultOnSingleRequestFailsItsFuture) {
  Server server(test_engine());
  GemmPool pool(2);
  {
    fault::ScopedFault f("serve.dispatch", 0, 1);
    auto failed = pool.submit(server, 0);
    EXPECT_THROW(failed.get(), fault::FaultInjected);
  }
  auto ok = pool.submit(server, 1);
  EXPECT_TRUE(ok.get().clean());
}

TEST_F(ServeTest, DispatchFaultOnCoalescedBatchIsolatesPerRequest) {
  Server server(test_engine());
  GemmPool pool(3);
  server.pause();
  std::vector<std::future<BatchHealth>> futs;
  for (std::size_t i = 0; i < 3; ++i) {
    futs.push_back(pool.submit(server, i));
  }
  fault::arm("serve.dispatch", 0, 1); // fail the grouped dispatch once
  server.drain();
  fault::disarm_all();
  // The batch retries request-by-request: everyone still completes.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(futs[i].get().clean());
    pool.expect_correct(i, "isolated retry " + std::to_string(i));
  }
}

} // namespace
} // namespace iatf::serve
