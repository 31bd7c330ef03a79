// Engine-level self-healing behaviour: kernel verify-and-quarantine with
// per-descriptor-class blast radius, admission control (Block /
// ShedNewest / DegradeToRef), the degradation circuit breaker's
// deterministic trip/recover cycle, transient-fault retry, and the
// stats/health observability contract.
#include <chrono>
#include <complex>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/ref/ref_blas.hpp"

namespace iatf {
namespace {

class EngineResilience : public ::testing::Test {
protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// A small double GEMM with its host-side reference; run() rebuilds the
// compact C so the fixture can drive the same descriptor repeatedly.
// Transposed operands keep the plan's packing stage (and its live
// workspace allocation -- the "alloc" fault site) on the fast path.
struct MiniGemm {
  index_t m, n, k, batch;
  test::HostBatch<double> a, b, c, expected;
  CompactBuffer<double> ca, cb, cc;

  MiniGemm(index_t m_, index_t n_, index_t k_, unsigned seed = 77)
      : m(m_), n(n_), k(k_) {
    Rng rng(seed);
    batch = simd::pack_width_v<double> * 2 + 1;
    a = test::random_batch<double>(k, m, batch, rng); // Trans: A is k x m
    b = test::random_batch<double>(n, k, batch, rng); // Trans: B is n x k
    c = test::random_batch<double>(m, n, batch, rng);
    expected = c;
    for (index_t l = 0; l < batch; ++l) {
      ref::gemm(Op::Trans, Op::Trans, m, n, k, 1.5, a.mat(l), a.ld(),
                b.mat(l), b.ld(), 0.25, expected.mat(l), expected.ld());
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

  // Split for fault tests: prepare() allocates the compact C outside any
  // armed fault window so an "alloc" fault hits only the engine.
  void prepare() { cc = c.to_compact(); }

  BatchHealth run_prepared(Engine& e) {
    return e.gemm<double>(Op::Trans, Op::Trans, 1.5, ca, cb, 0.25, cc);
  }

  void expect_matches_reference(const std::string& ctx) {
    test::HostBatch<double> out = c;
    out.from_compact(cc);
    test::expect_batch_near(expected, out, test::ulp_tolerance<double>(k),
                            ctx);
  }
};

// --- Kernel verify-and-quarantine ----------------------------------------

TEST_F(EngineResilience, FirstDispatchVerifiesKernelsAgainstRef) {
  Engine e(CacheInfo::kunpeng920());
  ASSERT_TRUE(e.kernel_verification());
  MiniGemm fx(8, 8, 4);
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(h.clean());
  fx.expect_matches_reference("verified first dispatch");
  const EngineStats s = e.stats();
  EXPECT_GE(s.verified_kernels, 1u);
  EXPECT_EQ(s.quarantined_kernels, 0u);
}

TEST_F(EngineResilience, QuarantineDegradesOnlyItsOwnDescriptorClass) {
  Engine e(CacheInfo::kunpeng920());
  MiniGemm big(8, 8, 4);
  {
    // Every canary fails: the 8x8 plan's kernels are quarantined and the
    // call is served on the reference path -- correct, just degraded.
    fault::ScopedFault verify("resilience.verify", 0, 1000);
    const BatchHealth h = big.run(e);
    EXPECT_TRUE(has_event(h.events, DegradeEvent::QuarantinedKernel));
    EXPECT_EQ(h.fallback, big.batch);
    big.expect_matches_reference("quarantined ref route");
  }
  const EngineStats after = e.stats();
  EXPECT_GE(after.quarantined_kernels, 1u);
  EXPECT_GE(after.ref_routed_calls, 1u);

  // A different descriptor class (3x3 uses its own kernel) is untouched:
  // its canary now passes and the fast path serves it.
  MiniGemm small(3, 3, 3, /*seed=*/78);
  const BatchHealth hs = small.run(e);
  EXPECT_TRUE(hs.clean());
  small.expect_matches_reference("unaffected class");
  EXPECT_GT(e.stats().verified_kernels, 0u);
}

TEST_F(EngineResilience, QuarantinedClassHealsViaSubstituteKernels) {
  Engine e(CacheInfo::kunpeng920());
  MiniGemm fx(8, 8, 4);
  {
    fault::ScopedFault verify("resilience.verify", 0, 1000);
    const BatchHealth h = fx.run(e);
    ASSERT_TRUE(has_event(h.events, DegradeEvent::QuarantinedKernel));
  }
  // With the fault gone, the same descriptor replans around the
  // quarantined kernel (smaller tile caps) and returns to the fast path.
  const BatchHealth h2 = fx.run(e);
  EXPECT_TRUE(h2.clean());
  fx.expect_matches_reference("substituted plan");
  // The quarantine itself is permanent until reset: the bad kernel stays
  // out of dispatch even though the class recovered.
  EXPECT_GE(e.stats().quarantined_kernels, 1u);
}

TEST_F(EngineResilience, QuarantinedPlansRebuildExactlyOnce) {
  Engine e(CacheInfo::kunpeng920());
  MiniGemm fx(8, 8, 4);
  {
    fault::ScopedFault verify("resilience.verify", 0, 1000);
    (void)fx.run(e);
  }
  const std::size_t builds_before = e.stats().builds;
  // Four threads hammer the invalidated descriptor concurrently; the
  // single-flight build machinery must rebuild the substitute plan once.
  std::vector<std::thread> workers;
  std::vector<MiniGemm> fixtures;
  fixtures.reserve(4);
  for (int t = 0; t < 4; ++t) {
    fixtures.emplace_back(8, 8, 4, /*seed=*/100 + t);
  }
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&e, &fixtures, t] {
      const BatchHealth h = fixtures[static_cast<std::size_t>(t)].run(e);
      EXPECT_TRUE(h.clean());
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(e.stats().builds, builds_before + 1);
  for (int t = 0; t < 4; ++t) {
    fixtures[static_cast<std::size_t>(t)].expect_matches_reference(
        "concurrent rebuild " + std::to_string(t));
  }
}

// Registry kernels of one dtype at one width: the GEMM grid, the
// triangular grid twice (solve 't' and multiply 'm') and the rect grid.
template <class T> std::size_t registry_kernels() {
  using L = kernels::KernelLimits<T>;
  return static_cast<std::size_t>(L::gemm_max_mc * L::gemm_max_nc +
                                  2 * L::tri_max_m * L::tri_max_nc +
                                  L::rect_max_mc * L::rect_max_nc);
}

TEST_F(EngineResilience, SelfTestSweepsTheRegistry) {
  Engine e(CacheInfo::kunpeng920());
  EXPECT_EQ(e.self_test(), 0u);
  const EngineHealth h = e.health();
  // Every kernel of every dtype at all three widths, 'm' included.
  EXPECT_EQ(h.verified_kernels,
            3 * (registry_kernels<float>() + registry_kernels<double>() +
                 registry_kernels<std::complex<float>>() +
                 registry_kernels<std::complex<double>>()));
  EXPECT_EQ(h.quarantined_kernels, 0u);
}

// TRMM runs the engine's kernel gate: a failing canary quarantines its
// kernels and the call is served, correct, on the reference path.
TEST_F(EngineResilience, QuarantinedTrmmKernelRoutesToTheReference) {
  Engine e(CacheInfo::kunpeng920());
  Rng rng(79);
  const index_t m = 6, n = 5;
  const index_t batch = simd::pack_width_v<double> * 2 + 1;
  auto a = test::random_triangular_batch<double>(m, batch, rng);
  auto b = test::random_batch<double>(m, n, batch, rng);
  auto expected = b;
  for (index_t l = 0; l < batch; ++l) {
    ref::trmm(Side::Left, Uplo::Upper, Op::Trans, Diag::NonUnit, m, n, 1.5,
              a.mat(l), a.ld(), expected.mat(l), expected.ld());
  }
  auto ca = a.to_compact();
  auto cb = b.to_compact();
  fault::ScopedFault verify("resilience.verify", 0, 1000);
  const BatchHealth h = e.trmm<double>(Side::Left, Uplo::Upper, Op::Trans,
                                       Diag::NonUnit, 1.5, ca, cb);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::QuarantinedKernel));
  EXPECT_EQ(h.fallback, batch);
  EXPECT_GE(e.stats().quarantined_kernels, 1u);
  test::HostBatch<double> out = b;
  out.from_compact(cb);
  test::expect_batch_near(expected, out, test::ulp_tolerance<double>(m),
                          "quarantined trmm ref route");
}

TEST_F(EngineResilience, SelfTestQuarantinesAFailingCanary) {
  Engine e(CacheInfo::kunpeng920());
  fault::ScopedFault verify("resilience.verify", 0, 1);
  EXPECT_EQ(e.self_test(), 1u);
  EXPECT_EQ(e.health().quarantined_kernels, 1u);
}

TEST_F(EngineResilience, VerificationOffRestoresUnconditionalTrust) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  fault::ScopedFault verify("resilience.verify", 0, 1000);
  MiniGemm fx(8, 8, 4);
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(h.clean()); // no canaries run, the armed site is never hit
  EXPECT_EQ(fault::hits("resilience.verify"), 0);
  EXPECT_EQ(e.stats().verified_kernels, 0u);
}

// --- Admission control ----------------------------------------------------

// Launch a worker that holds the engine's one admission slot for tens of
// milliseconds (armed "plan.stall" stretches its plan build), and wait
// until the admission gate sees it in flight.
class Occupied {
public:
  Occupied(Engine& e, MiniGemm& fx) : engine_(e) {
    fault::arm("plan.stall", 0, 20);
    worker_ = std::thread([&e, &fx] {
      try {
        (void)fx.run(e);
      } catch (...) {
        // Deadline-bounded variants may time the worker out; the test
        // only needs the admission slot held for a while.
      }
    });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine_.health().inflight == 0) {
      if (std::chrono::steady_clock::now() >= give_up) {
        ADD_FAILURE() << "worker never entered the engine";
        break;
      }
      std::this_thread::yield();
    }
  }

  ~Occupied() {
    worker_.join();
    fault::disarm_all();
  }

private:
  Engine& engine_;
  std::thread worker_;
};

TEST_F(EngineResilience, ShedNewestThrowsOverloadError) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_max_inflight(1);
  e.set_overload_policy(resilience::OverloadPolicy::ShedNewest);
  MiniGemm held(6, 6, 4), shed(6, 6, 4, /*seed=*/79);
  {
    Occupied occupied(e, held);
    try {
      (void)shed.run(e);
      FAIL() << "expected OverloadError";
    } catch (const Error& err) {
      EXPECT_EQ(err.status(), Status::Overloaded);
    }
  }
  EXPECT_EQ(e.stats().shed_calls, 1u);
  // Capacity released: the same call is admitted once the worker exits.
  const BatchHealth h = shed.run(e);
  EXPECT_TRUE(h.clean());
  shed.expect_matches_reference("post-shed retry");
}

TEST_F(EngineResilience, DegradeToRefServesOverflowOnTheRefPath) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_max_inflight(1);
  e.set_overload_policy(resilience::OverloadPolicy::DegradeToRef);
  MiniGemm held(6, 6, 4), overflow(5, 4, 3, /*seed=*/80);
  {
    Occupied occupied(e, held);
    const BatchHealth h = overflow.run(e);
    EXPECT_TRUE(has_event(h.events, DegradeEvent::Overloaded));
    EXPECT_EQ(h.fallback, overflow.batch);
    overflow.expect_matches_reference("overload degrade");
  }
  EXPECT_GE(e.stats().ref_routed_calls, 1u);
  EXPECT_EQ(e.stats().shed_calls, 0u);
}

TEST_F(EngineResilience, BlockWaitsForCapacity) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_max_inflight(1);
  ASSERT_EQ(e.overload_policy(), resilience::OverloadPolicy::Block);
  MiniGemm held(6, 6, 4), blocked(5, 4, 3, /*seed=*/81);
  {
    Occupied occupied(e, held);
    const BatchHealth h = blocked.run(e); // waits, then runs normally
    EXPECT_TRUE(h.clean());
    blocked.expect_matches_reference("blocked call");
  }
  EXPECT_EQ(e.stats().shed_calls, 0u);
  EXPECT_EQ(e.stats().ref_routed_calls, 0u);
}

TEST_F(EngineResilience, BlockTimesOutAtTheCallDeadline) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_max_inflight(1);
  e.set_call_deadline(std::chrono::milliseconds(5));
  MiniGemm held(6, 6, 4), late(5, 4, 3, /*seed=*/82);
  {
    Occupied occupied(e, held);
    try {
      (void)late.run(e);
      FAIL() << "expected TimeoutError";
    } catch (const Error& err) {
      EXPECT_EQ(err.status(), Status::Timeout);
    }
  }
  EXPECT_GE(e.stats().timeout_calls, 1u);
}

// --- Transient-fault retry ------------------------------------------------

TEST_F(EngineResilience, RetryRecoversFromTransientAllocFaults) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_retry_policy({/*max_attempts=*/3,
                      /*base_delay=*/std::chrono::microseconds(10)});
  MiniGemm fx(8, 8, 4);
  fx.prepare();
  fault::ScopedFault alloc("alloc", 0, 2); // first two attempts fail
  const BatchHealth h = fx.run_prepared(e);
  EXPECT_TRUE(h.clean()); // the third attempt succeeded on the fast path
  EXPECT_EQ(h.fallback, 0);
  fx.expect_matches_reference("retry recovery");
  EXPECT_EQ(e.stats().retries, 2u);
}

TEST_F(EngineResilience, RetryExhaustionFallsBackToRef) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_retry_policy({/*max_attempts=*/2,
                      /*base_delay=*/std::chrono::microseconds(10)});
  MiniGemm fx(8, 8, 4);
  fx.prepare();
  fault::ScopedFault alloc("alloc", 0, 100); // never recovers
  const BatchHealth h = fx.run_prepared(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::AllocFailure));
  EXPECT_EQ(h.fallback, fx.batch);
  fx.expect_matches_reference("retry exhaustion");
  EXPECT_EQ(e.stats().retries, 1u);
}

TEST_F(EngineResilience, RetryDisabledDegradesImmediately) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  ASSERT_EQ(e.retry_policy().max_attempts, 1);
  MiniGemm fx(8, 8, 4);
  fx.prepare();
  fault::ScopedFault alloc("alloc", 0, 100);
  const BatchHealth h = fx.run_prepared(e);
  EXPECT_EQ(h.fallback, fx.batch);
  EXPECT_EQ(e.stats().retries, 0u);
}

// Regression: the retry backoff sleep must be clamped to the remaining
// call deadline. With a base delay far past the deadline, a transient
// fault's retry wait must consume at most the deadline budget -- the
// call returns (fallback, success or Timeout) near the deadline, never
// after the full base delay.
TEST_F(EngineResilience, RetryBackoffClampedToCallDeadline) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_retry_policy({/*max_attempts=*/3,
                      /*base_delay=*/std::chrono::seconds(30)});
  e.set_call_deadline(std::chrono::milliseconds(200));
  MiniGemm fx(8, 8, 4);
  fx.prepare();
  fault::ScopedFault alloc("alloc", 0, 1); // first attempt fails
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)fx.run_prepared(e); // retry may succeed or hit the deadline
  } catch (const TimeoutError&) {
    // The clamped sleep can legitimately consume the whole budget.
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "backoff slept past the call deadline";
  EXPECT_EQ(e.stats().retries, 1u);
}

// --- Degradation circuit breaker ------------------------------------------

// Drive one engine through the canonical trip/recover schedule: two
// degraded calls (window 2, threshold 1), one ref-routed cooldown call,
// the recovering probe, and one healthy call. Returns the breaker state
// after each call plus the cumulative transition count.
std::vector<std::pair<resilience::BreakerState, std::size_t>>
drive_breaker_schedule(Engine& e) {
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/1});
  MiniGemm fx(8, 8, 4);
  std::vector<std::pair<resilience::BreakerState, std::size_t>> trace;
  for (int call = 0; call < 5; ++call) {
    fx.prepare();
    if (call < 2) {
      fault::arm("alloc", 0, 1); // degrade the first two calls
    }
    const BatchHealth h = fx.run_prepared(e);
    fault::disarm_all();
    EXPECT_EQ(h.batch, fx.batch);
    fx.expect_matches_reference("breaker call " +
                                std::to_string(call));
    trace.emplace_back(e.breaker_state(fx.key()),
                       e.stats().breaker_transitions);
  }
  return trace;
}

TEST_F(EngineResilience, BreakerTripsCoolsDownAndRecovers) {
  Engine e(CacheInfo::kunpeng920());
  const auto trace = drive_breaker_schedule(e);
  using resilience::BreakerState;
  ASSERT_EQ(trace.size(), 5u);
  // call 0: first degraded call, window not yet full.
  EXPECT_EQ(trace[0].first, BreakerState::Closed);
  EXPECT_EQ(trace[0].second, 0u);
  // call 1: window of 2 complete with 2 degraded >= threshold 1: Open.
  EXPECT_EQ(trace[1].first, BreakerState::Open);
  EXPECT_EQ(trace[1].second, 1u);
  // call 2: ref-routed cooldown call, still Open.
  EXPECT_EQ(trace[2].first, BreakerState::Open);
  EXPECT_EQ(trace[2].second, 1u);
  // call 3: the probe runs clean and restores Closed
  // (Open->HalfOpen->Closed adds two transitions).
  EXPECT_EQ(trace[3].first, BreakerState::Closed);
  EXPECT_EQ(trace[3].second, 3u);
  // call 4: healthy fast-path call, no further transitions.
  EXPECT_EQ(trace[4].first, BreakerState::Closed);
  EXPECT_EQ(trace[4].second, 3u);
}

TEST_F(EngineResilience, BreakerCooldownCallCarriesBreakerOpenEvent) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_breaker_config({2, 1, 1});
  MiniGemm fx(8, 8, 4);
  for (int call = 0; call < 2; ++call) {
    fx.prepare();
    fault::arm("alloc", 0, 1);
    (void)fx.run_prepared(e);
    fault::disarm_all();
  }
  ASSERT_EQ(e.breaker_state(fx.key()),
            resilience::BreakerState::Open);
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::BreakerOpen));
  EXPECT_EQ(h.fallback, fx.batch);
  fx.expect_matches_reference("breaker cooldown");
  const EngineHealth health = e.health();
  EXPECT_EQ(health.breaker_open, 1u);
  EXPECT_EQ(health.breaker_closed,
            resilience::CircuitBreaker::kSlots - 1);
}

TEST_F(EngineResilience, BreakerScheduleIsBitReproducible) {
  Engine first(CacheInfo::kunpeng920());
  Engine second(CacheInfo::kunpeng920());
  const auto t1 = drive_breaker_schedule(first);
  const auto t2 = drive_breaker_schedule(second);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].first, t2[i].first) << "state diverged at call " << i;
    EXPECT_EQ(t1[i].second, t2[i].second)
        << "transition count diverged at call " << i;
  }
}

TEST_F(EngineResilience, FailedProbeReopensTheSlot) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_policy(ExecPolicy::Fallback);
  e.set_breaker_config({2, 1, 1});
  MiniGemm fx(8, 8, 4);
  for (int call = 0; call < 2; ++call) {
    fx.prepare();
    fault::arm("alloc", 0, 1);
    (void)fx.run_prepared(e);
    fault::disarm_all();
  }
  (void)fx.run(e); // cooldown call
  ASSERT_EQ(e.breaker_state(fx.key()),
            resilience::BreakerState::Open);
  // The next call is the probe; an armed "resilience.probe" fails it.
  fault::ScopedFault probe("resilience.probe", 0, 1);
  const BatchHealth h = fx.run(e);
  EXPECT_TRUE(has_event(h.events, DegradeEvent::BreakerOpen));
  fx.expect_matches_reference("failed probe");
  EXPECT_EQ(e.breaker_state(fx.key()),
            resilience::BreakerState::Open);
}

// Regression: a grouped call admitted as its class's HalfOpen probe must
// report the probe's verdict even when its plan build throws. Otherwise
// the class stays HalfOpen with its probe in flight and every later
// call is sent to the reference path.
TEST_F(EngineResilience, GroupedProbeWhosePlanThrowsReopensTheSlot) {
  constexpr int kCooldown = 2;
  for (const ExecPolicy policy : {ExecPolicy::Fast, ExecPolicy::Fallback}) {
    SCOPED_TRACE(policy == ExecPolicy::Fast ? "Fast" : "Fallback");
    Engine e(CacheInfo::kunpeng920());
    e.set_kernel_verification(false);
    e.set_policy(policy);
    e.set_breaker_config({/*window=*/2, /*threshold=*/1, kCooldown});
    MiniGemm fx(8, 8, 4);
    const sched::GemmSegment<double> seg{
        Op::Trans, Op::Trans, 1.5, 0.25, &fx.ca, &fx.cb, &fx.cc};
    const auto grouped = [&] {
      return e.gemm_grouped<double>(
          std::span<const sched::GemmSegment<double>>(&seg, 1));
    };
    const auto state = [&] { return e.breaker_state(fx.key()); };

    e.trip_class(fx.key(), 0); // the next call is the probe
    e.clear_plan_cache();                     // ... and must build a plan
    fx.prepare();
    {
      fault::ScopedFault plan("plan.gemm", 0, 1);
      if (policy == ExecPolicy::Fast) {
        EXPECT_THROW((void)grouped(), Error);
      } else {
        const auto h = grouped();
        EXPECT_TRUE(has_event(h[0].events, DegradeEvent::UnsupportedPlan));
        fx.expect_matches_reference("failed probe");
      }
    }
    EXPECT_EQ(state(), resilience::BreakerState::Open);

    for (int call = 0; call < kCooldown; ++call) {
      fx.prepare();
      const auto h = grouped();
      EXPECT_TRUE(has_event(h[0].events, DegradeEvent::BreakerOpen));
      fx.expect_matches_reference("cooldown call " + std::to_string(call));
      EXPECT_EQ(state(), resilience::BreakerState::Open);
    }
    fx.prepare();
    const auto probe = grouped(); // the next probe runs clean
    EXPECT_TRUE(probe[0].clean());
    fx.expect_matches_reference("recovering probe");
    EXPECT_EQ(state(), resilience::BreakerState::Closed);
    EXPECT_EQ(e.stats().ref_routed_calls, static_cast<std::size_t>(kCooldown));
  }
}

// --- One operand contract per call ---------------------------------------

template <class Call>
void expect_invalid_arg(const Call& call, const std::string& ctx) {
  try {
    (void)call();
    ADD_FAILURE() << ctx << ": expected InvalidArg";
  } catch (const Error& err) {
    EXPECT_EQ(err.status(), Status::InvalidArg) << ctx << ": " << err.what();
  }
}

// A malformed call must be refused on every route, not only on the plan
// path: under Fallback a faulting plan build, an Open class breaker
// (`key`; factorisations have no breaker) and DegradeToRef overload each
// skip the plan, and each must still throw InvalidArg.
template <class Call>
void expect_refused_on_every_route(const char* plan_site,
                                   std::optional<sched::ClassKey> key,
                                   const Call& call) {
  const auto fresh = [] {
    auto e = std::make_unique<Engine>(CacheInfo::kunpeng920());
    e->set_kernel_verification(false);
    e->set_policy(ExecPolicy::Fallback);
    return e;
  };
  {
    auto e = fresh();
    fault::ScopedFault plan(plan_site, 0, 1);
    expect_invalid_arg([&] { return call(*e); }, "plan build faults");
    EXPECT_EQ(e->health().inflight, 0u);
  }
  if (key) {
    auto e = fresh();
    e->set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/4});
    e->trip_class(*key, 4);
    ASSERT_EQ(e->breaker_state(*key), resilience::BreakerState::Open);
    expect_invalid_arg([&] { return call(*e); }, "breaker open");
    EXPECT_EQ(e->stats().ref_routed_calls, 0u);
  }
  {
    auto e = fresh();
    e->set_max_inflight(1);
    e->set_overload_policy(resilience::OverloadPolicy::DegradeToRef);
    {
      MiniGemm held(6, 6, 4);
      Occupied occupied(*e, held);
      expect_invalid_arg([&] { return call(*e); }, "overload degrades");
    }
    EXPECT_EQ(e->stats().ref_routed_calls, 0u);
  }
}

// Identity matrices of order 4 interleaved `pw` lanes per group: twice
// the 128-bit width of double is another kernel class's layout.
constexpr index_t kOtherWidth = 2 * simd::pack_width_v<double>;

CompactBuffer<double> identity_batch(index_t pw) {
  CompactBuffer<double> buf(4, 4, 5, pw);
  for (index_t lane = 0; lane < buf.batch(); ++lane) {
    for (index_t i = 0; i < 4; ++i) {
      buf.set(lane, i, i, 1.0);
    }
  }
  return buf;
}

TEST_F(EngineResilience, WrongWidthGemmIsRefusedOnEveryRoute) {
  CompactBuffer<double> a = identity_batch(kOtherWidth);
  CompactBuffer<double> b = identity_batch(kOtherWidth);
  CompactBuffer<double> c = identity_batch(kOtherWidth);
  const sched::GemmSegment<double> seg{Op::NoTrans, Op::NoTrans, 1.0, 0.0,
                                       &a, &b, &c};
  expect_refused_on_every_route(
      "plan.gemm", sched::class_key<double>(sched::shape_of(seg), 16),
      [&](Engine& e) {
        return e.gemm<double, 16>(Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0,
                                  c);
      });
}

TEST_F(EngineResilience, WrongWidthTriangularCallIsRefusedOnEveryRoute) {
  for (const TriOp op : {TriOp::Solve, TriOp::Multiply}) {
    SCOPED_TRACE(op == TriOp::Solve ? "trsm" : "trmm");
    CompactBuffer<double> a = identity_batch(kOtherWidth);
    CompactBuffer<double> b = identity_batch(kOtherWidth);
    const sched::TrsmSegment<double> seg{Side::Left, Uplo::Lower,
                                         Op::NoTrans, Diag::NonUnit,
                                         1.0, &a, &b, op};
    expect_refused_on_every_route(
        "plan.trsm", sched::class_key<double>(sched::shape_of(seg), 16),
        [&](Engine& e) {
          return op == TriOp::Solve
                     ? e.trsm<double, 16>(Side::Left, Uplo::Lower,
                                          Op::NoTrans, Diag::NonUnit, 1.0,
                                          a, b)
                     : e.trmm<double, 16>(Side::Left, Uplo::Lower,
                                          Op::NoTrans, Diag::NonUnit, 1.0,
                                          a, b);
        });
  }
}

TEST_F(EngineResilience, WrongWidthPotrfIsRefusedOnEveryRoute) {
  CompactBuffer<double> a = identity_batch(kOtherWidth);
  expect_refused_on_every_route("plan.factor", std::nullopt,
                                [&](Engine& e) {
                                  return e.potrf_batch<double, 16>(a);
                                });
}

TEST_F(EngineResilience, GroupedCallWithAWrongWidthSegmentIsRefused) {
  const index_t pw = simd::pack_width_v<double>;
  CompactBuffer<double> a0 = identity_batch(pw);
  CompactBuffer<double> b0 = identity_batch(pw);
  CompactBuffer<double> c0 = identity_batch(pw);
  CompactBuffer<double> a1 = identity_batch(kOtherWidth);
  CompactBuffer<double> b1 = identity_batch(kOtherWidth);
  CompactBuffer<double> c1 = identity_batch(kOtherWidth);
  const std::vector<sched::GemmSegment<double>> segs = {
      {Op::NoTrans, Op::NoTrans, 1.0, 0.0, &a0, &b0, &c0},
      {Op::NoTrans, Op::NoTrans, 1.0, 0.0, &a1, &b1, &c1}};
  expect_refused_on_every_route(
      "plan.gemm", sched::class_key<double>(sched::shape_of(segs[0]), 16),
      [&](Engine& e) {
        return e.gemm_grouped<double, 16>(
            std::span<const sched::GemmSegment<double>>(segs));
      });
}

// One caller's malformed calls must not open the breaker of a class that
// every other caller of that descriptor shares.
TEST_F(EngineResilience, MalformedCallsNeverTripTheBreaker) {
  Engine e(CacheInfo::kunpeng920());
  e.set_kernel_verification(false);
  e.set_breaker_config({/*window=*/2, /*threshold=*/1, /*cooldown=*/4});
  MiniGemm fx(8, 8, 4);
  // A of one lane fewer: the same descriptor class as fx's calls (C
  // sets the batch), but a batch mismatch.
  const CompactBuffer<double> short_a(fx.k, fx.m, fx.batch - 1);
  fx.prepare();
  for (int call = 0; call < 4; ++call) {
    expect_invalid_arg(
        [&] {
          return e.gemm<double>(Op::Trans, Op::Trans, 1.5, short_a, fx.cb,
                                0.25, fx.cc);
        },
        "malformed call " + std::to_string(call));
  }
  EXPECT_EQ(e.breaker_state(fx.key()), resilience::BreakerState::Closed);
  EXPECT_EQ(e.stats().breaker_transitions, 0u);

  const BatchHealth h = fx.run(e);
  EXPECT_FALSE(has_event(h.events, DegradeEvent::BreakerOpen));
  EXPECT_TRUE(h.clean());
  EXPECT_EQ(e.stats().ref_routed_calls, 0u);
  EXPECT_EQ(e.stats().builds, 1u) << "the valid call runs the plan";
  fx.expect_matches_reference("valid call after malformed ones");
}

// --- Stats / health / env knobs -------------------------------------------

TEST_F(EngineResilience, ResetStatsZeroesCountersButKeepsState) {
  Engine e(CacheInfo::kunpeng920());
  MiniGemm fx(8, 8, 4);
  (void)fx.run(e);
  (void)fx.run(e);
  const EngineStats before = e.stats();
  ASSERT_GT(before.misses + before.hits, 0u);
  ASSERT_GT(before.verified_kernels, 0u);
  const std::size_t cached = before.plan_cache_size;

  e.reset_stats();
  const EngineStats after = e.stats();
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.builds, 0u);
  EXPECT_EQ(after.degraded_calls, 0u);
  EXPECT_EQ(after.fallback_lanes, 0u);
  EXPECT_EQ(after.shed_calls, 0u);
  EXPECT_EQ(after.ref_routed_calls, 0u);
  EXPECT_EQ(after.retries, 0u);
  // State, not statistics: cached plans and the trust ledger survive.
  EXPECT_EQ(after.plan_cache_size, cached);
  EXPECT_EQ(after.verified_kernels, before.verified_kernels);
  // A post-reset call counts from zero.
  (void)fx.run(e);
  EXPECT_EQ(e.stats().hits, 1u);
}

TEST_F(EngineResilience, HealthSnapshotIsConsistent) {
  Engine e(CacheInfo::kunpeng920());
  e.set_max_inflight(7);
  MiniGemm fx(6, 6, 4);
  (void)fx.run(e);
  const EngineHealth h = e.health();
  EXPECT_EQ(h.max_inflight, 7u);
  EXPECT_EQ(h.inflight, 0u); // nothing in flight between calls
  EXPECT_EQ(h.breaker_closed + h.breaker_open + h.breaker_half_open,
            resilience::CircuitBreaker::kSlots);
  EXPECT_GT(h.verified_kernels, 0u);
}

TEST_F(EngineResilience, EnvironmentKnobsSeedTheConstructor) {
  ::setenv("IATF_MAX_INFLIGHT", "2", 1);
  ::setenv("IATF_BREAKER_WINDOW", "8", 1);
  ::setenv("IATF_RETRY_MAX", "3", 1);
  Engine e(CacheInfo::kunpeng920());
  ::unsetenv("IATF_MAX_INFLIGHT");
  ::unsetenv("IATF_BREAKER_WINDOW");
  ::unsetenv("IATF_RETRY_MAX");
  EXPECT_EQ(e.max_inflight(), 2u);
  const resilience::BreakerConfig config = e.breaker_config();
  EXPECT_EQ(config.window, 8);
  EXPECT_EQ(config.threshold, 2);
  EXPECT_EQ(config.cooldown, 16);
  EXPECT_EQ(e.retry_policy().max_attempts, 3);
}

// --- Grouped per-class isolation ------------------------------------------

TEST_F(EngineResilience, GroupedQuarantineDegradesOneClassOnly) {
  Engine e(CacheInfo::kunpeng920());
  Rng rng(4243);
  const index_t pw = simd::pack_width_v<double>;

  // Segment 0: 8x8x4 (its kernel canary will fail). Segment 1: 3x3x3.
  struct Seg {
    index_t m, n, k, batch;
    test::HostBatch<double> a, b, c, expected;
    CompactBuffer<double> ca, cb, cc;
  };
  std::vector<Seg> segs_data;
  const index_t dims[2][3] = {{8, 8, 4}, {3, 3, 3}};
  for (int i = 0; i < 2; ++i) {
    Seg s;
    s.m = dims[i][0];
    s.n = dims[i][1];
    s.k = dims[i][2];
    s.batch = pw + 1;
    s.a = test::random_batch<double>(s.m, s.k, s.batch, rng);
    s.b = test::random_batch<double>(s.k, s.n, s.batch, rng);
    s.c = test::random_batch<double>(s.m, s.n, s.batch, rng);
    s.expected = s.c;
    for (index_t l = 0; l < s.batch; ++l) {
      ref::gemm(Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, 1.0, s.a.mat(l),
                s.a.ld(), s.b.mat(l), s.b.ld(), 0.0, s.expected.mat(l),
                s.expected.ld());
    }
    s.ca = s.a.to_compact();
    s.cb = s.b.to_compact();
    s.cc = s.c.to_compact();
    segs_data.push_back(std::move(s));
  }
  std::vector<sched::GemmSegment<double>> segs;
  for (Seg& s : segs_data) {
    segs.push_back(
        {Op::NoTrans, Op::NoTrans, 1.0, 0.0, &s.ca, &s.cb, &s.cc});
  }

  // Exactly one canary failure: the first class planned (segment order)
  // loses its kernel; the second class verifies cleanly.
  fault::ScopedFault verify("resilience.verify", 0, 1);
  const auto healths = e.gemm_grouped<double>(
      std::span<const sched::GemmSegment<double>>(segs));
  ASSERT_EQ(healths.size(), 2u);
  EXPECT_TRUE(
      has_event(healths[0].events, DegradeEvent::QuarantinedKernel));
  EXPECT_EQ(healths[0].fallback, segs_data[0].batch);
  EXPECT_TRUE(healths[1].clean());

  for (std::size_t i = 0; i < segs_data.size(); ++i) {
    Seg& s = segs_data[i];
    test::HostBatch<double> out = s.c;
    out.from_compact(s.cc);
    test::expect_batch_near(s.expected, out,
                            test::ulp_tolerance<double>(s.k),
                            "grouped segment " + std::to_string(i));
  }
}

} // namespace
} // namespace iatf
