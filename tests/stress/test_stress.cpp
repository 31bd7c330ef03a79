// Race/stress suite for the concurrency-hardened engine. Every test here
// races real compute traffic (gemm/trsm through the sharded plan cache)
// against a mutator -- cache clears, tuning-table reloads, policy flips,
// capacity churn -- and asserts the documented invariants hold. The CI
// ThreadSanitizer job (-DIATF_SANITIZE=thread) runs this binary to turn
// "no data race" from a claim into a checked property; without TSan the
// tests still catch duplication, lost-update, and deadlock bugs.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/tune/descriptor.hpp"
#include "iatf/tune/tuning_table.hpp"

namespace iatf {
namespace {

// Small enough to keep iterations fast, large enough that a compute call
// spans several cache-snapshot loads and batch-slice iterations.
GemmShape hot_gemm_shape(index_t m = 4) {
  return GemmShape{m, 4, 4, Op::NoTrans, Op::NoTrans, 64};
}

class StressRace : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// Compute threads hammer gemm while a mutator clears the plan cache in a
// tight loop. Cleared plans stay alive through the callers' shared_ptrs;
// no call may fail, wedge, or observe a half-built cache.
TEST_F(StressRace, GemmRacesClearPlanCache) {
  Engine engine(CacheInfo::kunpeng920());
  constexpr int kThreads = 4;
  constexpr int kIters = 150;

  CompactBuffer<float> a(4, 4, 64), b(4, 4, 64), c(4, 4, 64);
  std::atomic<bool> stop{false};
  std::atomic<int> calls{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CompactBuffer<float> cc(4, 4, 64);
      for (int i = 0; i < kIters; ++i) {
        const BatchHealth health = engine.gemm<float>(
            Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, cc);
        ASSERT_EQ(health.batch, 64);
        // A per-thread cold descriptor keeps miss traffic flowing too.
        auto plan = engine.plan_gemm<float>(
            hot_gemm_shape(static_cast<index_t>(t + i % 3 + 1)));
        ASSERT_NE(plan, nullptr);
      }
      calls.fetch_add(kIters);
    });
  }
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.clear_plan_cache();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true);
  mutator.join();
  EXPECT_EQ(calls.load(), kThreads * kIters);
  // Post-race sanity: the cache still works.
  auto p1 = engine.plan_gemm<float>(hot_gemm_shape());
  auto p2 = engine.plan_gemm<float>(hot_gemm_shape());
  EXPECT_EQ(p1.get(), p2.get());
}

// Tuning reloads swap an immutable snapshot: compute threads racing the
// swap must see either the complete old config or the complete new one.
// After the race settles, a fresh plan must reflect the final table.
TEST_F(StressRace, TuningReloadIsTornFree) {
  Engine engine(CacheInfo::kunpeng920());
  const GemmShape shape = hot_gemm_shape();

  auto table = std::make_shared<tune::TuningTable>();
  tune::TuneRecord rec;
  rec.slice_groups = 2;
  table->insert(tune::gemm_key<float>(shape), rec);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto plan = engine.plan_gemm<float>(shape);
        // The table's record forces slice_groups == 2; the analytical
        // model picks something else for this shape. Either is a
        // coherent config -- a torn read would be anything else.
        ASSERT_NE(plan, nullptr);
        auto seen = engine.tuning_table();
        ASSERT_TRUE(seen == nullptr || seen->size() == 1);
      }
    });
  }
  std::thread mutator([&] {
    for (int i = 0; i < 200; ++i) {
      engine.set_tuning_table(i % 2 == 0 ? table : nullptr);
    }
    stop.store(true);
  });
  mutator.join();
  for (auto& th : threads) {
    th.join();
  }

  engine.set_tuning_table(table);
  auto plan = engine.plan_gemm<float>(shape);
  EXPECT_EQ(plan->slice_groups(), 2);
  EXPECT_EQ(engine.plan_cache_tuned(), 1u);
}

// Policy flips race compute: every call must run under *some* coherent
// policy; Fast/Check/Fallback all produce the same (healthy) output here.
TEST_F(StressRace, PolicyFlipsDuringCompute) {
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<double> a(5, 5, 48), b(5, 5, 48);
  a.pad_identity();
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      CompactBuffer<double> bb(5, 5, 48);
      while (!stop.load(std::memory_order_relaxed)) {
        const BatchHealth health = engine.trsm<double>(
            Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit, 1.0, a, bb);
        ASSERT_EQ(health.batch, 48);
        ASSERT_EQ(health.fallback, 0); // zero RHS: never a hazard
      }
    });
  }
  const ExecPolicy cycle[] = {ExecPolicy::Fast, ExecPolicy::Check,
                              ExecPolicy::Fallback};
  for (int i = 0; i < 300; ++i) {
    engine.set_policy(cycle[i % 3]);
  }
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
}

// A tiny capacity under a stream of distinct descriptors: the cache must
// stay bounded (per-shard LRU), keep evicting, and never hand back a bad
// plan. This is the adversarial-traffic memory bound.
TEST_F(StressRace, CapacityChurnStaysBounded) {
  Engine engine(CacheInfo::kunpeng920(), 4);
  const std::size_t per_shard =
      (4 + Engine::kPlanCacheShards - 1) / Engine::kPlanCacheShards;
  const std::size_t bound = per_shard * Engine::kPlanCacheShards;

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const index_t m = static_cast<index_t>(1 + (t * 200 + i) % 24);
        auto plan = engine.plan_gemm<float>(hot_gemm_shape(m));
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->shape().m, m);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(engine.plan_cache_size(), bound);
  EXPECT_GT(engine.plan_cache_evictions(), 0u);
  EXPECT_EQ(engine.plan_cache_evictions(),
            engine.plan_cache_builds() - engine.plan_cache_size());
}

// Single-flight: N threads missing on one cold descriptor must produce
// exactly one plan build. The armed "plan.stall" fault widens the build
// window so every thread really does arrive while the build is in flight.
TEST_F(StressRace, ConcurrentMissesBuildExactlyOnePlan) {
  Engine engine(CacheInfo::kunpeng920());
  constexpr int kThreads = 8;
  fault::ScopedFault stall("plan.stall", 0, 1);

  std::vector<const void*> got(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      got[static_cast<std::size_t>(t)] =
          engine.plan_gemm<float>(hot_gemm_shape()).get();
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(engine.plan_cache_builds(), 1u);
  EXPECT_EQ(engine.plan_cache_hits() + engine.plan_cache_misses(),
            static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0]);
    EXPECT_NE(got[static_cast<std::size_t>(t)], nullptr);
  }
}

// Engine::stats() reads every shard's plan-map snapshot while another
// thread publishes new ones, one per cold plan build. Under TSan this
// checks the snapshot's publication against a reader that is not on the
// call path. Each shard's map only grows, so the summed size read in
// one snapshot never shrinks from the last.
TEST_F(StressRace, StatsReadsRacePlanBuilds) {
  Engine engine(CacheInfo::kunpeng920());
  constexpr index_t kPlans = 48;
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread builder([&] {
    while (!reading.load()) {
    }
    for (index_t m = 1; m <= kPlans; ++m) {
      EXPECT_NE(engine.plan_gemm<float>(hot_gemm_shape(m)), nullptr);
    }
    done.store(true);
  });
  std::size_t seen = 0;
  do {
    const std::size_t size = engine.stats().plan_cache_size;
    EXPECT_GE(size, seen);
    seen = size;
    reading.store(true);
  } while (!done.load());
  builder.join();
  EXPECT_EQ(engine.stats().plan_cache_size,
            static_cast<std::size_t>(kPlans));
}

// A failed single-flight build must deliver the same exception to the
// leader and every joiner, and leave the descriptor rebuildable.
TEST_F(StressRace, FailedBuildPropagatesToAllWaiters) {
  Engine engine(CacheInfo::kunpeng920());
  constexpr int kThreads = 6;
  // First hit stalls is not needed here: every build attempt fails once.
  fault::ScopedFault fail("plan.gemm", 0, 1);

  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        auto plan = engine.plan_gemm<float>(hot_gemm_shape());
        ASSERT_NE(plan, nullptr);
        successes.fetch_add(1);
      } catch (const Error& e) {
        ASSERT_EQ(e.status(), Status::Unsupported);
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load() + successes.load(), kThreads);
  EXPECT_GE(failures.load(), 1); // at least the armed build's cohort
  // The failure was not cached: the descriptor rebuilds cleanly.
  EXPECT_NE(engine.plan_gemm<float>(hot_gemm_shape()), nullptr);
}

// Deadline flips race compute: calls observe either no deadline or an
// immediately-expired one; Timeout surfaces as an exception and the
// engine (and its counters) stay coherent throughout.
TEST_F(StressRace, DeadlineFlipsDuringCompute) {
  Engine engine(CacheInfo::kunpeng920());
  CompactBuffer<float> a(4, 4, 64), b(4, 4, 64);
  std::atomic<bool> stop{false};
  std::atomic<int> timeouts{0};
  std::atomic<int> completions{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      CompactBuffer<float> cc(4, 4, 64);
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          engine.gemm<float>(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f,
                             cc);
          completions.fetch_add(1);
        } catch (const Error& e) {
          ASSERT_EQ(e.status(), Status::Timeout);
          timeouts.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    engine.set_call_deadline(std::chrono::nanoseconds(i % 2 == 0 ? 1 : 0));
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  engine.set_call_deadline(std::chrono::nanoseconds(0));
  stop.store(true);
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(completions.load(), 0);
  EXPECT_EQ(engine.stats().timeout_calls,
            static_cast<std::size_t>(timeouts.load()));
}

// Teardown regression: the process-wide engine must be constructible and
// usable from many threads at once (first-use race) and tear down
// cleanly at exit with its worker-owning dependencies (the global pool is
// a function-local static joined before earlier statics die). The real
// assertion is this binary exiting cleanly under TSan/ASan.
TEST_F(StressRace, DefaultEngineSharedAcrossThreads) {
  std::vector<std::thread> threads;
  std::vector<Engine*> seen(6, nullptr);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Engine& engine = Engine::default_engine();
      seen[static_cast<std::size_t>(t)] = &engine;
      auto plan = engine.plan_gemm<float>(hot_gemm_shape(3));
      ASSERT_NE(plan, nullptr);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 1; t < 6; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
}

// Engines are also constructed/destroyed concurrently by embedders (one
// per request context): construction must not share hidden mutable state.
TEST_F(StressRace, ConcurrentEngineConstructDestroy) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Engine engine(CacheInfo::kunpeng920(), 8);
        auto plan = engine.plan_gemm<float>(
            hot_gemm_shape(static_cast<index_t>(1 + i % 5)));
        ASSERT_NE(plan, nullptr);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
}

} // namespace
} // namespace iatf
