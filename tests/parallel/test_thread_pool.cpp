#include <atomic>
#include <complex>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)]++;
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](index_t, index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(0, 2, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 2);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(0, 10, [&](index_t, index_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](index_t b, index_t) {
                                   if (b > 0) {
                                     throw Error("boom");
                                   }
                                 }),
               Error);
  // The pool remains usable afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(0, 10, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, InvertedRangeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(5, 2, [](index_t, index_t) {}), Error);
}

// Hardening regression: every chunk throws -- including the calling
// thread's own chunk -- and the pool must neither deadlock waiting on
// pending work nor stay poisoned for later calls.
TEST(ThreadPool, EveryChunkThrowingCannotDeadlock) {
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(pool.parallel_for(0, 400,
                                   [](index_t, index_t) {
                                     throw Error("all chunks fail");
                                   }),
                 Error);
  }
  std::atomic<int> total{0};
  pool.parallel_for(0, 100, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, CallerChunkThrowStillDrainsWorkers) {
  ThreadPool pool(3);
  std::atomic<int> worker_chunks{0};
  const auto caller = std::this_thread::get_id();
  EXPECT_THROW(
      pool.parallel_for(0, 300,
                        [&](index_t, index_t) {
                          if (std::this_thread::get_id() == caller) {
                            throw Error("caller chunk fails");
                          }
                          ++worker_chunks;
                        }),
      Error);
  // All queued worker chunks completed before parallel_for unwound (the
  // chunk function lives on the caller's stack, so returning with work
  // still queued would be a use-after-free).
  EXPECT_EQ(worker_chunks.load(), 2);
}

TEST(ThreadPool, ErrorDoesNotLeakIntoNextCall) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](index_t b, index_t) {
                                   if (b == 0) {
                                     throw Error("once");
                                   }
                                 }),
               Error);
  // The same pool, a fresh call: no stale first_error may resurface.
  for (int round = 0; round < 4; ++round) {
    EXPECT_NO_THROW(pool.parallel_for(0, 100, [](index_t, index_t) {}));
  }
}

TEST(ThreadPool, InjectedWorkerFaultPropagates) {
  ThreadPool pool(4);
  fault::ScopedFault guard("threadpool.worker", 0, 1);
  try {
    pool.parallel_for(0, 400, [](index_t, index_t) {});
    FAIL() << "expected FaultInjected";
  } catch (const fault::FaultInjected& f) {
    EXPECT_EQ(f.site(), "threadpool.worker");
  }
  fault::disarm_all();
  EXPECT_NO_THROW(pool.parallel_for(0, 10, [](index_t, index_t) {}));
}

TEST(ThreadPool, InjectedDispatchFaultPropagates) {
  ThreadPool pool(4);
  fault::ScopedFault guard("threadpool.dispatch", 0, 1);
  EXPECT_THROW(pool.parallel_for(0, 400, [](index_t, index_t) {}),
               fault::FaultInjected);
  fault::disarm_all();
  EXPECT_NO_THROW(pool.parallel_for(0, 10, [](index_t, index_t) {}));
}

TEST(ThreadPool, ConcurrentParallelForsStayIndependent) {
  // Two threads sharing one pool: each invocation carries its own Job, so
  // one caller's failure must not surface in the other's call.
  ThreadPool pool(4);
  std::atomic<int> clean_total{0};
  std::thread failing([&] {
    for (int i = 0; i < 20; ++i) {
      try {
        pool.parallel_for(0, 100, [](index_t b, index_t) {
          if (b == 0) {
            throw Error("noisy neighbour");
          }
        });
      } catch (const Error&) {
        // expected
      }
    }
  });
  for (int i = 0; i < 20; ++i) {
    pool.parallel_for(0, 100, [&](index_t b, index_t e) {
      clean_total += static_cast<int>(e - b);
    });
  }
  failing.join();
  EXPECT_EQ(clean_total.load(), 20 * 100);
}

// Parallel plan execution must be bit-identical to serial execution:
// groups are disjoint, so there is no accumulation-order ambiguity.
template <class T> class ParallelPlanTyped : public ::testing::Test {};
using ScalarTypes = ::testing::Types<float, double, std::complex<float>,
                                     std::complex<double>>;
TYPED_TEST_SUITE(ParallelPlanTyped, ScalarTypes);

TYPED_TEST(ParallelPlanTyped, GemmParallelMatchesSerial) {
  using T = TypeParam;
  Rng rng(71);
  const index_t m = 9, n = 7, k = 5;
  const index_t batch = simd::pack_width_v<T> * 13 + 1;
  auto a = test::random_batch<T>(m, k, batch, rng);
  auto b = test::random_batch<T>(k, n, batch, rng);
  auto c = test::random_batch<T>(m, n, batch, rng);
  auto ca = a.to_compact();
  auto cb = b.to_compact();
  auto cc1 = c.to_compact();
  auto cc2 = c.to_compact();

  const GemmShape shape{m, n, k, Op::NoTrans, Op::Trans, batch};
  // op_b mismatched with buffer shape on purpose? No: build B for Trans.
  const GemmShape nn{m, n, k, Op::NoTrans, Op::NoTrans, batch};
  plan::GemmPlan<T> plan(nn, CacheInfo::kunpeng920());
  (void)shape;
  plan.execute(ca, cb, cc1, T(2), T(-1));
  ThreadPool pool(5); // oversubscribed on a small host: still correct
  pool.parallel_for(
      0, cc2.groups(),
      [&](index_t g_begin, index_t g_end) {
        plan.execute_range(ca, cb, cc2, T(2), T(-1), g_begin, g_end);
      },
      plan.chunk_groups());

  for (index_t l = 0; l < batch; ++l) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        ASSERT_EQ(cc1.get(l, i, j), cc2.get(l, i, j))
            << "batch " << l << " (" << i << "," << j << ")";
      }
    }
  }
}

TYPED_TEST(ParallelPlanTyped, TrsmParallelMatchesSerial) {
  using T = TypeParam;
  Rng rng(72);
  const index_t m = 11, n = 6;
  const index_t batch = simd::pack_width_v<T> * 9 + 2;
  auto a = test::random_triangular_batch<T>(m, batch, rng);
  auto b = test::random_batch<T>(m, n, batch, rng);
  auto ca = a.to_compact();
  ca.pad_identity();
  auto cb1 = b.to_compact();
  auto cb2 = b.to_compact();

  const TrsmShape shape{m, n, Side::Left, Uplo::Upper, Op::NoTrans,
                        Diag::NonUnit, batch};
  plan::TrsmPlan<T> plan(shape, CacheInfo::kunpeng920());
  plan.execute(ca, cb1, T(1.5));
  ThreadPool pool(4);
  pool.parallel_for(
      0, cb2.groups(),
      [&](index_t g_begin, index_t g_end) {
        plan.execute_range(ca, cb2, T(1.5), g_begin, g_end);
      },
      plan.chunk_groups());

  for (index_t l = 0; l < batch; ++l) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        ASSERT_EQ(cb1.get(l, i, j), cb2.get(l, i, j))
            << "batch " << l << " (" << i << "," << j << ")";
      }
    }
  }
}

// Factorisations run on an attached pool like GEMM and TRSM: each
// segment's interleave groups are cut into work items across the
// workers. Groups are independent, so single and grouped calls must
// match a run with no pool bit for bit, under Check and its recorders
// too.
TEST(ParallelFactor, PoolMatchesSequentialBitExact) {
  const index_t pw = simd::pack_width_v<double>;
  Rng rng(73);
  const index_t m = 6;
  const index_t batch = 7 * pw + 1;
  struct Input {
    factor::FactorOp op;
    Uplo uplo;
    test::HostBatch<double> host;
  };
  const std::vector<Input> inputs{
      {factor::FactorOp::Potrf, Uplo::Lower,
       test::random_spd_batch<double>(m, batch, rng)},
      {factor::FactorOp::GetrfNp, Uplo::Lower,
       test::random_diag_dominant_batch<double>(m, batch, rng)},
      {factor::FactorOp::Trtri, Uplo::Upper,
       test::random_triangular_batch<double>(m, batch, rng)}};

  ThreadPool pool(3);
  for (const ExecPolicy policy : {ExecPolicy::Fast, ExecPolicy::Check}) {
    Engine seq(CacheInfo::kunpeng920());
    Engine par(CacheInfo::kunpeng920());
    par.set_thread_pool(&pool);
    std::vector<CompactBuffer<double>> seq_out, par_out;
    std::vector<sched::FactorSegment<double>> seq_segs, par_segs;
    for (Engine* e : {&seq, &par}) {
      e->set_policy(policy);
      const bool pooled = e == &par;
      auto& outs = pooled ? par_out : seq_out;
      for (const Input& in : inputs) {
        CompactBuffer<double> a = in.host.to_compact();
        BatchHealth h;
        switch (in.op) {
        case factor::FactorOp::Potrf:
          h = e->potrf_batch<double>(a);
          break;
        case factor::FactorOp::GetrfNp:
          h = e->getrf_nopiv_batch<double>(a);
          break;
        case factor::FactorOp::Trtri:
          h = e->trtri_batch<double>(in.uplo, Diag::NonUnit, a);
          break;
        }
        EXPECT_TRUE(h.clean());
        outs.push_back(std::move(a));
      }
      // The same three routines as one grouped call.
      for (const Input& in : inputs) {
        outs.push_back(in.host.to_compact());
      }
      auto& segs = pooled ? par_segs : seq_segs;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        segs.push_back({inputs[i].op, inputs[i].uplo, Diag::NonUnit,
                        &outs[inputs.size() + i]});
      }
      for (const BatchHealth& h : e->factor_grouped<double>(
               std::span<const sched::FactorSegment<double>>(segs))) {
        EXPECT_TRUE(h.clean());
      }
    }
    ASSERT_EQ(seq_out.size(), par_out.size());
    for (std::size_t i = 0; i < seq_out.size(); ++i) {
      ASSERT_EQ(seq_out[i].size(), par_out[i].size());
      EXPECT_EQ(std::memcmp(seq_out[i].data(), par_out[i].data(),
                            seq_out[i].size() * sizeof(double)),
                0)
          << (i < inputs.size() ? "single call " : "grouped segment ")
          << i % inputs.size() << ", policy "
          << static_cast<int>(policy);
    }
  }
}

} // namespace
} // namespace iatf
