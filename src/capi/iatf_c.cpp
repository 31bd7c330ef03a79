// C interface implementation: thin exception-to-error-code shims over the
// C++ core, with the opaque buffer structs wrapping CompactBuffer. Every
// compute entry point is a one-line forward to one typed template per op
// (gemm, triangular for trsm and trmm, factor, gemm_grouped,
// trsm_grouped), and each template takes the same steps: null-check the
// operands, convert the C enums, dispatch the width once on the written
// operand, call the default engine, and fold the health reports into a
// status (guarded_compute).
#include "iatf/capi/iatf.h"

#include "capi_buffers.hpp"

#include <chrono>
#include <complex>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/resilience/resilience.hpp"
#include "iatf/sched/group_scheduler.hpp"
#include "iatf/simd/isa.hpp"
#include "iatf/tune/search.hpp"
#include "iatf/tune/tuning_table.hpp"
#include "iatf/version.hpp"

namespace {

namespace sched = iatf::sched;
using iatf::Op;
using iatf::TriOp;
using iatf::capi::enum_bits;
using iatf::capi::enum_in_range;
using iatf::capi::ms_to_ns;
using iatf::factor::FactorOp;
using iatf::capi::to_diag;
using iatf::capi::to_op;
using iatf::capi::to_side;
using iatf::capi::to_uplo;

// The C status codes are the C++ Status values, by definition.
static_assert(IATF_STATUS_OK == static_cast<int>(iatf::Status::Ok));
static_assert(IATF_STATUS_INVALID_ARG ==
              static_cast<int>(iatf::Status::InvalidArg));
static_assert(IATF_STATUS_UNSUPPORTED ==
              static_cast<int>(iatf::Status::Unsupported));
static_assert(IATF_STATUS_ALLOC_FAILURE ==
              static_cast<int>(iatf::Status::AllocFailure));
static_assert(IATF_STATUS_NUMERICAL_HAZARD ==
              static_cast<int>(iatf::Status::NumericalHazard));
static_assert(IATF_STATUS_INTERNAL ==
              static_cast<int>(iatf::Status::Internal));
static_assert(IATF_STATUS_TIMEOUT ==
              static_cast<int>(iatf::Status::Timeout));
static_assert(IATF_STATUS_OVERLOADED ==
              static_cast<int>(iatf::Status::Overloaded));
static_assert(IATF_STATUS_WATCHDOG ==
              static_cast<int>(iatf::Status::Watchdog));
static_assert(IATF_OVERLOAD_BLOCK ==
              static_cast<int>(iatf::resilience::OverloadPolicy::Block));
static_assert(IATF_OVERLOAD_SHED ==
              static_cast<int>(iatf::resilience::OverloadPolicy::ShedNewest));
static_assert(IATF_OVERLOAD_DEGRADE ==
              static_cast<int>(iatf::resilience::OverloadPolicy::DegradeToRef));
static_assert(IATF_EVENT_QUARANTINED_KERNEL ==
              static_cast<unsigned>(iatf::DegradeEvent::QuarantinedKernel));
static_assert(IATF_EVENT_BREAKER_OPEN ==
              static_cast<unsigned>(iatf::DegradeEvent::BreakerOpen));
static_assert(IATF_EVENT_OVERLOADED ==
              static_cast<unsigned>(iatf::DegradeEvent::Overloaded));
static_assert(IATF_EXEC_FAST == static_cast<int>(iatf::ExecPolicy::Fast));
static_assert(IATF_EXEC_CHECK == static_cast<int>(iatf::ExecPolicy::Check));
static_assert(IATF_EXEC_FALLBACK ==
              static_cast<int>(iatf::ExecPolicy::Fallback));

thread_local std::string g_last_error;

// Failing-descriptor attribution for iatf_last_error_detail(): every
// compute shim builds its call's detail with detail_of and stores it on
// failure or on a resilience degradation (quarantine / breaker /
// overload).
thread_local iatf_error_detail g_last_detail;
thread_local bool g_has_detail = false;

constexpr unsigned kDetailEvents = IATF_EVENT_QUARANTINED_KERNEL |
                                   IATF_EVENT_BREAKER_OPEN |
                                   IATF_EVENT_OVERLOADED;

/// The raw bits of a call's C mode enums; -1 where a field does not
/// apply to the op.
struct ModeBits {
  int op_a = -1, op_b = -1, side = -1, uplo = -1, diag = -1;
};

/// The one source of iatf_error_detail: op, dtype and sizes are the
/// call's class key (sched::class_key of its descriptor, or of an empty
/// descriptor when an operand is null), the mode fields the enum bits as
/// passed. The detail reports no register width, so the shims key their
/// calls with bytes 0.
iatf_error_detail detail_of(const iatf::sched::ClassKey& key,
                            const ModeBits& bits) {
  iatf_error_detail d{};
  d.op = key.op;
  d.dtype = key.dtype;
  d.m = key.m;
  d.n = key.n;
  d.k = key.k;
  d.batch = key.batch;
  d.op_a = bits.op_a;
  d.op_b = bits.op_b;
  d.side = bits.side;
  d.uplo = bits.uplo;
  d.diag = bits.diag;
  return d;
}

/// Record the in-flight exception and map it to its stable status code.
int record_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    g_last_error = e.what();
  } catch (...) {
    g_last_error = "unknown error";
  }
  return static_cast<int>(iatf::status_of(std::current_exception()));
}

template <class Fn> int guarded(Fn&& fn) {
  try {
    fn();
    return IATF_STATUS_OK;
  } catch (...) {
    return record_exception();
  }
}

void store_detail(iatf_error_detail detail, int status, unsigned events) {
  detail.status = status;
  detail.events = events;
  g_last_detail = detail;
  g_has_detail = true;
}

/// The health-to-status fold of every compute shim. `fn` returns the
/// engine's report: one BatchHealth (a single call is a span of one) or
/// one per segment. Hazards the engine detected but did not repair (the
/// Check policy observes without retrying) surface as
/// IATF_STATUS_NUMERICAL_HAZARD, so C callers get the report without the
/// BatchHealth struct; `detail` is stored when the call fails or
/// silently degrades.
template <class Fn>
int guarded_compute(const iatf_error_detail& detail, Fn&& fn) {
  try {
    const auto result = fn();
    std::span<const iatf::BatchHealth> healths;
    if constexpr (std::is_same_v<decltype(result), const iatf::BatchHealth>) {
      healths = {&result, 1};
    } else {
      healths = result;
    }
    iatf::index_t nonfinite = 0;
    iatf::index_t singular = 0;
    unsigned events = 0;
    for (const iatf::BatchHealth& health : healths) {
      events |= static_cast<unsigned>(health.events) & kDetailEvents;
      if ((health.nonfinite != 0 || health.singular != 0) &&
          health.fallback == 0) {
        nonfinite += health.nonfinite;
        singular += health.singular;
      }
    }
    if (nonfinite != 0 || singular != 0) {
      g_last_error = "iatf: numerical hazard detected (" +
                     std::to_string(nonfinite) + " non-finite, " +
                     std::to_string(singular) +
                     " singular-diagonal matrices)";
      store_detail(detail, IATF_STATUS_NUMERICAL_HAZARD, events);
      return IATF_STATUS_NUMERICAL_HAZARD;
    }
    if (events != 0) {
      store_detail(detail, IATF_STATUS_OK, events);
    }
    return IATF_STATUS_OK;
  } catch (...) {
    const int rc = record_exception();
    store_detail(detail, rc, 0);
    return rc;
  }
}

// The two C handle kinds: opaque buffers (`buf`) and packed handles
// (`h`). The engine overloads every single call on both; the descriptor
// is read from the compact storage either kind wraps.
template <class H> constexpr bool kIsBuffer = requires(H& x) { x.buf; };

template <class H> auto& operand(H& x) {
  if constexpr (kIsBuffer<H>) {
    return x.buf;
  } else {
    return x.h;
  }
}

template <class H> auto& storage(H& x) {
  if constexpr (kIsBuffer<H>) {
    return x.buf;
  } else {
    return x.h.buffer();
  }
}

template <class H> std::string null_operand(const char* fn) {
  return std::string(fn) + (kIsBuffer<H> ? ": null buffer" : ": null handle");
}

/// The width of a single call, as sched::width_of reads it for the
/// grouped entry points and the server: its written operand's.
template <class Seg> int call_width(const Seg& seg) {
  return sched::width_of(std::span<const Seg>(&seg, 1));
}

/// The op that sizes a GEMM detail's k: anything but IATF_NOTRANS reads
/// A transposed, so garbage op bits still report A's extents.
Op sizing_op(const iatf_op& op) {
  return enum_bits(op) == IATF_NOTRANS ? Op::NoTrans : Op::Trans;
}

template <class T, class H>
int gemm(const char* fn, const iatf_op& op_a, const iatf_op& op_b, T alpha,
         const H* a, const H* b, T beta, H* c) {
  sched::GemmSegment<T> seg;
  seg.op_a = sizing_op(op_a);
  seg.a = a != nullptr ? &storage(*a) : nullptr;
  seg.c = c != nullptr ? &storage(*c) : nullptr;
  const auto key = sched::class_key<T>(
      seg.a != nullptr && seg.c != nullptr ? sched::shape_of(seg)
                                           : iatf::GemmShape{},
      /*bytes=*/0);
  return guarded_compute(
      detail_of(key, {enum_bits(op_a), enum_bits(op_b)}),
      [&] {
        IATF_CHECK(a != nullptr && b != nullptr && c != nullptr,
                   null_operand<H>(fn));
        const Op ta = to_op(op_a);
        const Op tb = to_op(op_b);
        return iatf::dispatch_bytes<T>(call_width(seg), [&](auto w) {
          return iatf::Engine::default_engine().gemm<T, decltype(w)::value>(
              ta, tb, alpha, operand(*a), operand(*b), beta, operand(*c));
        });
      });
}

/// trsm (kOp Solve) and trmm (kOp Multiply) on a buffer or handle.
template <TriOp kOp, class T, class H>
int triangular(const char* fn, const iatf_side& side, const iatf_uplo& uplo,
               const iatf_op& op_a, const iatf_diag& diag, T alpha,
               const H* a, H* b) {
  sched::TrsmSegment<T> seg;
  seg.op = kOp;
  seg.b = b != nullptr ? &storage(*b) : nullptr;
  iatf::TrsmShape empty;
  empty.op = kOp;
  const auto key = sched::class_key<T>(
      seg.b != nullptr ? sched::shape_of(seg) : empty, /*bytes=*/0);
  return guarded_compute(
      detail_of(key, {.op_a = enum_bits(op_a),
                      .side = enum_bits(side),
                      .uplo = enum_bits(uplo),
                      .diag = enum_bits(diag)}),
      [&] {
        IATF_CHECK(a != nullptr && b != nullptr, null_operand<H>(fn));
        const iatf::Side s = to_side(side);
        const iatf::Uplo u = to_uplo(uplo);
        const Op t = to_op(op_a);
        const iatf::Diag d = to_diag(diag);
        return iatf::dispatch_bytes<T>(call_width(seg), [&](auto w) {
          constexpr int kBytes = decltype(w)::value;
          iatf::Engine& engine = iatf::Engine::default_engine();
          if constexpr (kOp == TriOp::Solve) {
            return engine.trsm<T, kBytes>(s, u, t, d, alpha, operand(*a),
                                          operand(*b));
          } else {
            return engine.trmm<T, kBytes>(s, u, t, d, alpha, operand(*a),
                                          operand(*b));
          }
        });
      });
}

/// potrf, getrfnp and trtri in place on a buffer or handle. `uplo` and
/// `diag` are trtri's mode (null for the other two).
template <FactorOp kOp, class T, class H>
int factor(const char* fn, H* a, const iatf_uplo* uplo = nullptr,
           const iatf_diag* diag = nullptr) {
  sched::FactorSegment<T> seg;
  seg.op = kOp;
  seg.a = a != nullptr ? &storage(*a) : nullptr;
  iatf::factor::FactorShape empty;
  empty.op = kOp;
  const auto key = sched::class_key<T>(
      seg.a != nullptr ? sched::shape_of(seg) : empty, /*bytes=*/0);
  ModeBits bits;
  if constexpr (kOp == FactorOp::Trtri) {
    bits.uplo = enum_bits(*uplo);
    bits.diag = enum_bits(*diag);
  }
  return guarded_compute(detail_of(key, bits), [&] {
    IATF_CHECK(a != nullptr, null_operand<H>(fn));
    return iatf::dispatch_bytes<T>(call_width(seg), [&](auto w) {
      constexpr int kBytes = decltype(w)::value;
      iatf::Engine& engine = iatf::Engine::default_engine();
      if constexpr (kOp == FactorOp::Potrf) {
        return engine.potrf_batch<T, kBytes>(operand(*a));
      } else if constexpr (kOp == FactorOp::GetrfNp) {
        return engine.getrf_nopiv_batch<T, kBytes>(operand(*a));
      } else {
        return engine.trtri_batch<T, kBytes>(to_uplo(*uplo), to_diag(*diag),
                                             operand(*a));
      }
    });
  });
}

// Grouped segments carry their scalars as T (real) or as (re, im) pairs
// of the real type (complex).
template <class T, class Seg> T alpha_of(const Seg& s) {
  if constexpr (iatf::is_complex_v<T>) {
    return T{s.alpha_re, s.alpha_im};
  } else {
    return s.alpha;
  }
}

template <class T, class Seg> T beta_of(const Seg& s) {
  if constexpr (iatf::is_complex_v<T>) {
    return T{s.beta_re, s.beta_im};
  } else {
    return s.beta;
  }
}

/// Grouped calls have no single descriptor: the detail carries the call
/// kind, dtype and group count, the per-matrix sizes unset (-1).
template <class T>
iatf::sched::ClassKey grouped_key(char op, int64_t group_count) {
  return {.op = op, .dtype = *iatf::blas_prefix_v<T>, .m = -1, .n = -1,
          .k = -1, .batch = group_count};
}

void check_segments(const char* fn, const void* segments,
                    int64_t group_count) {
  IATF_CHECK(group_count >= 0 && (group_count == 0 || segments != nullptr),
             std::string(fn) + ": invalid segment array");
}

template <class T, class Seg>
int gemm_grouped(const char* fn, const Seg* segments, int64_t group_count) {
  return guarded_compute(
      detail_of(grouped_key<T>('g', group_count), {}),
      [&] {
        check_segments(fn, segments, group_count);
        std::vector<sched::GemmSegment<T>> segs;
        segs.reserve(static_cast<std::size_t>(group_count));
        for (const Seg& in : std::span(segments, group_count)) {
          IATF_CHECK(in.a != nullptr && in.b != nullptr && in.c != nullptr,
                     std::string(fn) + ": segment with a null buffer");
          segs.push_back({to_op(in.op_a), to_op(in.op_b), alpha_of<T>(in),
                          beta_of<T>(in), &in.a->buf, &in.b->buf,
                          &in.c->buf});
        }
        return iatf::compact_gemm_grouped<T>(segs);
      });
}

template <class T, class Seg>
int trsm_grouped(const char* fn, const Seg* segments, int64_t group_count) {
  return guarded_compute(
      detail_of(grouped_key<T>('t', group_count), {}),
      [&] {
        check_segments(fn, segments, group_count);
        std::vector<sched::TrsmSegment<T>> segs;
        segs.reserve(static_cast<std::size_t>(group_count));
        for (const Seg& in : std::span(segments, group_count)) {
          IATF_CHECK(in.a != nullptr && in.b != nullptr,
                     std::string(fn) + ": segment with a null buffer");
          segs.push_back({to_side(in.side), to_uplo(in.uplo), to_op(in.op_a),
                          to_diag(in.diag), alpha_of<T>(in), &in.a->buf,
                          &in.b->buf});
        }
        return iatf::compact_trsm_grouped<T>(segs);
      });
}

// Process-wide tuning table behind the C API. Mutations publish an
// immutable copy to the default engine, which clears its plan cache.
std::mutex g_tune_mutex;
iatf::tune::TuningTable& tune_table_locked() {
  static iatf::tune::TuningTable table;
  return table;
}

void publish_tune_table_locked() {
  iatf::Engine::default_engine().set_tuning_table(
      std::make_shared<const iatf::tune::TuningTable>(tune_table_locked()));
}

iatf::tune::TuneOptions tune_options(int64_t batch, int reps) {
  iatf::tune::TuneOptions opts;
  if (batch > 0) {
    opts.batch = static_cast<iatf::index_t>(batch);
  }
  if (reps > 0) {
    opts.reps = reps;
  }
  return opts;
}

/// Insert a tuned record under the key it was timed at and publish.
void publish_tuned(const iatf::tune::TunedRecord& tuned) {
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  tune_table_locked().insert(tuned.key, tuned.record);
  publish_tune_table_locked();
}

std::string tune_path(const char* path) {
  return path != nullptr && path[0] != '\0'
             ? std::string(path)
             : iatf::tune::TuningTable::default_path();
}

} // namespace

extern "C" const char* iatf_version(void) {
  return iatf::version_string();
}

extern "C" const char* iatf_last_error(void) {
  return g_last_error.c_str();
}

extern "C" void iatf_clear_error(void) {
  g_last_error.clear();
  // Blank the descriptor too, not just the availability flag: a later
  // out-of-contract read of the struct must see no stale descriptor or
  // event bits from before the clear.
  g_last_detail = detail_of({}, {});
  g_has_detail = false;
}

extern "C" int iatf_last_error_detail(iatf_error_detail* detail) {
  if (!g_has_detail) {
    return 0;
  }
  if (detail != nullptr) {
    *detail = g_last_detail;
  }
  return 1;
}

extern "C" void iatf_set_exec_policy(iatf_exec_policy policy) {
  // Void setter: an out-of-range value keeps the current policy.
  if (const auto p =
          enum_in_range<iatf::ExecPolicy>(policy, IATF_EXEC_FALLBACK)) {
    iatf::Engine::default_engine().set_policy(*p);
  }
}

extern "C" iatf_exec_policy iatf_get_exec_policy(void) {
  return static_cast<iatf_exec_policy>(
      iatf::Engine::default_engine().policy());
}

extern "C" void iatf_set_call_deadline_ms(double ms) {
  iatf::Engine::default_engine().set_call_deadline(ms_to_ns(ms));
}

extern "C" double iatf_get_call_deadline_ms(void) {
  return std::chrono::duration<double, std::milli>(
             iatf::Engine::default_engine().call_deadline())
      .count();
}

extern "C" int iatf_get_engine_stats(iatf_engine_stats* stats) {
  return guarded([&] {
    IATF_CHECK(stats != nullptr, "iatf_get_engine_stats: null stats");
    const iatf::EngineStats s = iatf::Engine::default_engine().stats();
    stats->plan_cache_size = static_cast<int64_t>(s.plan_cache_size);
    stats->plan_cache_capacity =
        static_cast<int64_t>(s.plan_cache_capacity);
    stats->hits = static_cast<int64_t>(s.hits);
    stats->misses = static_cast<int64_t>(s.misses);
    stats->builds = static_cast<int64_t>(s.builds);
    stats->tuned = static_cast<int64_t>(s.tuned);
    stats->evictions = static_cast<int64_t>(s.evictions);
    stats->degraded_calls = static_cast<int64_t>(s.degraded_calls);
    stats->fallback_lanes = static_cast<int64_t>(s.fallback_lanes);
    stats->timeout_calls = static_cast<int64_t>(s.timeout_calls);
    stats->grouped_calls = static_cast<int64_t>(s.grouped_calls);
    for (std::size_t i = 0; i < iatf::EngineStats::kGroupedPlanBuckets;
         ++i) {
      stats->grouped_plan_hist[i] =
          static_cast<int64_t>(s.distinct_plans_per_call[i]);
    }
    stats->shed_calls = static_cast<int64_t>(s.shed_calls);
    stats->ref_routed_calls = static_cast<int64_t>(s.ref_routed_calls);
    stats->retries = static_cast<int64_t>(s.retries);
    stats->verified_kernels = static_cast<int64_t>(s.verified_kernels);
    stats->quarantined_kernels =
        static_cast<int64_t>(s.quarantined_kernels);
    stats->breaker_transitions =
        static_cast<int64_t>(s.breaker_transitions);
    stats->packed_reuse_hits = static_cast<int64_t>(s.packed_reuse_hits);
    stats->packed_repacks = static_cast<int64_t>(s.packed_repacks);
    stats->width16_calls = static_cast<int64_t>(s.width16_calls);
    stats->width32_calls = static_cast<int64_t>(s.width32_calls);
    stats->width64_calls = static_cast<int64_t>(s.width64_calls);
  });
}

extern "C" void iatf_engine_stats_reset(void) {
  iatf::Engine::default_engine().reset_stats();
}

extern "C" int iatf_get_engine_health(iatf_engine_health* health) {
  return guarded([&] {
    IATF_CHECK(health != nullptr, "iatf_get_engine_health: null health");
    const iatf::EngineHealth h = iatf::Engine::default_engine().health();
    health->verified_kernels = static_cast<int64_t>(h.verified_kernels);
    health->quarantined_kernels =
        static_cast<int64_t>(h.quarantined_kernels);
    health->breaker_closed = static_cast<int64_t>(h.breaker_closed);
    health->breaker_open = static_cast<int64_t>(h.breaker_open);
    health->breaker_half_open = static_cast<int64_t>(h.breaker_half_open);
    health->breaker_transitions =
        static_cast<int64_t>(h.breaker_transitions);
    health->inflight = static_cast<int64_t>(h.inflight);
    health->max_inflight = static_cast<int64_t>(h.max_inflight);
    health->shed_calls = static_cast<int64_t>(h.shed_calls);
    health->ref_routed_calls = static_cast<int64_t>(h.ref_routed_calls);
    health->retries = static_cast<int64_t>(h.retries);
  });
}

extern "C" void iatf_set_kernel_verification(int on) {
  iatf::Engine::default_engine().set_kernel_verification(on != 0);
}

extern "C" int iatf_get_kernel_verification(void) {
  return iatf::Engine::default_engine().kernel_verification() ? 1 : 0;
}

extern "C" int64_t iatf_engine_self_test(void) {
  const int rc = guarded(
      [] { (void)iatf::Engine::default_engine().self_test(); });
  if (rc != IATF_STATUS_OK) {
    return -1;
  }
  return static_cast<int64_t>(
      iatf::Engine::default_engine().health().quarantined_kernels);
}

extern "C" void iatf_set_max_inflight(int64_t max) {
  iatf::Engine::default_engine().set_max_inflight(
      max > 0 ? static_cast<std::size_t>(max) : 0);
}

extern "C" int64_t iatf_get_max_inflight(void) {
  return static_cast<int64_t>(
      iatf::Engine::default_engine().max_inflight());
}

extern "C" void iatf_set_overload_policy(iatf_overload_policy policy) {
  // Void setter: an out-of-range value keeps the current policy.
  if (const auto p = enum_in_range<iatf::resilience::OverloadPolicy>(
          policy, IATF_OVERLOAD_DEGRADE)) {
    iatf::Engine::default_engine().set_overload_policy(*p);
  }
}

extern "C" iatf_overload_policy iatf_get_overload_policy(void) {
  return static_cast<iatf_overload_policy>(
      iatf::Engine::default_engine().overload_policy());
}

extern "C" void iatf_set_retry_policy(int max_attempts,
                                      double base_delay_ms) {
  // Preserve the jitter seed: attempts/delay and the seed are set
  // through independent C entry points.
  iatf::resilience::RetryPolicy policy =
      iatf::Engine::default_engine().retry_policy();
  policy.max_attempts = max_attempts > 1 ? max_attempts : 1;
  policy.base_delay = ms_to_ns(base_delay_ms);
  iatf::Engine::default_engine().set_retry_policy(policy);
}

extern "C" void iatf_set_retry_jitter_seed(uint64_t seed) {
  iatf::resilience::RetryPolicy policy =
      iatf::Engine::default_engine().retry_policy();
  policy.jitter_seed = seed;
  iatf::Engine::default_engine().set_retry_policy(policy);
}

extern "C" void iatf_set_breaker(int window, int threshold, int cooldown) {
  iatf::resilience::BreakerConfig config;
  config.window = window > 0 ? window : 0;
  config.threshold = threshold > 0 ? threshold : 1;
  config.cooldown = cooldown > 0 ? cooldown : 1;
  iatf::Engine::default_engine().set_breaker_config(config);
}

// Crash-consistent health ledger (attach / replay / compact on the
// default engine; see DESIGN.md section 14).

extern "C" int iatf_health_ledger_load(const char* path) {
  return guarded([&] {
    const std::string resolved =
        path != nullptr && path[0] != '\0'
            ? std::string(path)
            : iatf::resilience::HealthLedger::default_path();
    IATF_CHECK(!resolved.empty(),
               "iatf_health_ledger_load: no path given and "
               "$IATF_HEALTH_LEDGER is unset");
    const iatf::resilience::LedgerLoad result =
        iatf::Engine::default_engine().set_health_ledger(resolved);
    IATF_CHECK_AS(
        result != iatf::resilience::LedgerLoad::Corrupt &&
            result != iatf::resilience::LedgerLoad::HardwareMismatch,
        iatf::Status::Unsupported,
        std::string("iatf_health_ledger_load: ") +
            iatf::resilience::to_string(result));
  });
}

extern "C" int iatf_health_ledger_save(void) {
  return guarded([&] {
    const auto ledger = iatf::Engine::default_engine().health_ledger();
    IATF_CHECK(ledger != nullptr,
               "iatf_health_ledger_save: no ledger attached");
    IATF_CHECK_AS(ledger->save(), iatf::Status::AllocFailure,
                  "iatf_health_ledger_save: could not write the ledger");
  });
}

extern "C" const char* iatf_health_ledger_path(void) {
  static thread_local std::string g_ledger_path;
  const auto ledger = iatf::Engine::default_engine().health_ledger();
  g_ledger_path = ledger ? ledger->path() : std::string();
  return g_ledger_path.c_str();
}

extern "C" int
iatf_health_ledger_get_stats(iatf_health_ledger_stats* stats) {
  return guarded([&] {
    IATF_CHECK(stats != nullptr,
               "iatf_health_ledger_get_stats: null stats");
    *stats = iatf_health_ledger_stats{};
    if (const auto ledger =
            iatf::Engine::default_engine().health_ledger()) {
      const iatf::resilience::LedgerStats s = ledger->stats();
      stats->records = static_cast<int64_t>(s.records);
      stats->quarantines = static_cast<int64_t>(s.quarantines);
      stats->breaker_trips = static_cast<int64_t>(s.breaker_trips);
      stats->degrades = static_cast<int64_t>(s.degrades);
      stats->watchdog_reclaims =
          static_cast<int64_t>(s.watchdog_reclaims);
    }
  });
}

extern "C" int iatf_set_plan_cache_capacity(int64_t capacity) {
  return guarded([&] {
    IATF_CHECK(capacity >= 1,
               "iatf_set_plan_cache_capacity: capacity must be >= 1");
    iatf::Engine::default_engine().set_plan_cache_capacity(
        static_cast<std::size_t>(capacity));
  });
}

extern "C" void iatf_clear_plan_cache(void) {
  iatf::Engine::default_engine().clear_plan_cache();
}

// Per-type buffer management. For complex types the C-side scalar array
// is interleaved (re, im), which std::complex guarantees layout-wise.
#define IATF_DEFINE_BUFFER(P, BUF, T, SCALAR)                                \
  extern "C" BUF* iatf_##P##create(int64_t rows, int64_t cols,              \
                                   int64_t batch) {                         \
    BUF* out = nullptr;                                                     \
    const int rc = guarded([&] {                                            \
      out = new BUF{iatf::CompactBuffer<T>(                                 \
          rows, cols, batch, iatf::simd::active_pack_width<T>())};            \
    });                                                                     \
    return rc == 0 ? out : nullptr;                                         \
  }                                                                         \
  extern "C" void iatf_##P##destroy(BUF* buf) { delete buf; }               \
  extern "C" int64_t iatf_##P##rows(const BUF* buf) {                       \
    return buf != nullptr ? buf->buf.rows() : -1;                           \
  }                                                                         \
  extern "C" int64_t iatf_##P##cols(const BUF* buf) {                       \
    return buf != nullptr ? buf->buf.cols() : -1;                           \
  }                                                                         \
  extern "C" int64_t iatf_##P##batch(const BUF* buf) {                      \
    return buf != nullptr ? buf->buf.batch() : -1;                          \
  }                                                                         \
  extern "C" int iatf_##P##import(BUF* buf, int64_t b, const SCALAR* src,   \
                                  int64_t ld) {                             \
    return guarded([&] {                                                    \
      IATF_CHECK(buf != nullptr && src != nullptr,                          \
                 "iatf_" #P "import: null buffer or source");               \
      IATF_CHECK(b >= 0 && b < buf->buf.batch(),                            \
                 "iatf_" #P "import: batch index out of range");            \
      buf->buf.import_colmajor(b, reinterpret_cast<const T*>(src), ld);     \
    });                                                                     \
  }                                                                         \
  extern "C" int iatf_##P##export(const BUF* buf, int64_t b, SCALAR* dst,   \
                                  int64_t ld) {                             \
    return guarded([&] {                                                    \
      IATF_CHECK(buf != nullptr && dst != nullptr,                          \
                 "iatf_" #P "export: null buffer or destination");          \
      IATF_CHECK(b >= 0 && b < buf->buf.batch(),                            \
                 "iatf_" #P "export: batch index out of range");            \
      buf->buf.export_colmajor(b, reinterpret_cast<T*>(dst), ld);           \
    });                                                                     \
  }                                                                         \
  extern "C" int iatf_##P##pad_identity(BUF* buf) {                         \
    return guarded([&] {                                                    \
      IATF_CHECK(buf != nullptr, "iatf_" #P "pad_identity: null buffer");   \
      buf->buf.pad_identity();                                              \
    });                                                                     \
  }

IATF_DEFINE_BUFFER(s, iatf_sbuf, float, float)
IATF_DEFINE_BUFFER(d, iatf_dbuf, double, double)
IATF_DEFINE_BUFFER(c, iatf_cbuf, std::complex<float>, float)
IATF_DEFINE_BUFFER(z, iatf_zbuf, std::complex<double>, double)
#undef IATF_DEFINE_BUFFER

// Scalar adaptor for the per-dtype shims below: KIND REAL passes a T
// scalar through; KIND CX takes it as a (re, im) pair of the real type
// and assembles the std::complex. Strided storage is passed as the real
// type and cast (a no-op for real T; for complex T the pairs are
// interleaved, which std::complex guarantees layout-wise).
#define IATF_PARAM_REAL(T, SCALAR, name) T name
#define IATF_VALUE_REAL(T, name) name
#define IATF_PARAM_CX(T, SCALAR, name) SCALAR name##_re, SCALAR name##_im
#define IATF_VALUE_CX(T, name) T{name##_re, name##_im}
#define IATF_PARAM(KIND, T, SCALAR, name) IATF_PARAM_##KIND(T, SCALAR, name)
#define IATF_VALUE(KIND, T, name) IATF_VALUE_##KIND(T, name)

// Compute shims over one C handle kind H (buffers or packed handles):
// BLAS entry points are named iatf_?<op>_<BS>, factorisations
// iatf_?<op>_<FS>.
#define IATF_DEFINE_COMPUTE(P, H, BS, FS, T, SCALAR, KIND)                    \
  extern "C" int iatf_##P##gemm_##BS(                                         \
      iatf_op op_a, iatf_op op_b, IATF_PARAM(KIND, T, SCALAR, alpha),         \
      const H* a, const H* b, IATF_PARAM(KIND, T, SCALAR, beta), H* c) {      \
    return gemm<T>(__func__, op_a, op_b, IATF_VALUE(KIND, T, alpha), a, b,    \
                   IATF_VALUE(KIND, T, beta), c);                             \
  }                                                                           \
  extern "C" int iatf_##P##trsm_##BS(                                         \
      iatf_side side, iatf_uplo uplo, iatf_op op_a, iatf_diag diag,           \
      IATF_PARAM(KIND, T, SCALAR, alpha), const H* a, H* b) {                 \
    return triangular<TriOp::Solve, T>(__func__, side, uplo, op_a, diag,      \
                                       IATF_VALUE(KIND, T, alpha), a, b);     \
  }                                                                           \
  extern "C" int iatf_##P##potrf_##FS(H* a) {                                 \
    return factor<FactorOp::Potrf, T>(__func__, a);                           \
  }                                                                           \
  extern "C" int iatf_##P##getrfnp_##FS(H* a) {                               \
    return factor<FactorOp::GetrfNp, T>(__func__, a);                         \
  }                                                                           \
  extern "C" int iatf_##P##trtri_##FS(iatf_uplo uplo, iatf_diag diag, H* a) { \
    return factor<FactorOp::Trtri, T>(__func__, a, &uplo, &diag);             \
  }

IATF_DEFINE_COMPUTE(s, iatf_sbuf, compact, batch, float, float, REAL)
IATF_DEFINE_COMPUTE(d, iatf_dbuf, compact, batch, double, double, REAL)
IATF_DEFINE_COMPUTE(c, iatf_cbuf, compact, batch, std::complex<float>, float,
                    CX)
IATF_DEFINE_COMPUTE(z, iatf_zbuf, compact, batch, std::complex<double>,
                    double, CX)
IATF_DEFINE_COMPUTE(s, iatf_spacked, packed, packed, float, float, REAL)
IATF_DEFINE_COMPUTE(d, iatf_dpacked, packed, packed, double, double, REAL)
IATF_DEFINE_COMPUTE(c, iatf_cpacked, packed, packed, std::complex<float>,
                    float, CX)
IATF_DEFINE_COMPUTE(z, iatf_zpacked, packed, packed, std::complex<double>,
                    double, CX)
#undef IATF_DEFINE_COMPUTE
#undef IATF_PARAM_REAL
#undef IATF_VALUE_REAL
#undef IATF_PARAM_CX
#undef IATF_VALUE_CX
#undef IATF_PARAM
#undef IATF_VALUE

#define IATF_DEFINE_GROUPED(P, T)                                             \
  extern "C" int iatf_##P##gemm_grouped(                                      \
      const iatf_##P##gemm_segment* segments, int64_t group_count) {          \
    return gemm_grouped<T>(__func__, segments, group_count);                  \
  }                                                                           \
  extern "C" int iatf_##P##trsm_grouped(                                      \
      const iatf_##P##trsm_segment* segments, int64_t group_count) {          \
    return trsm_grouped<T>(__func__, segments, group_count);                  \
  }

IATF_DEFINE_GROUPED(s, float)
IATF_DEFINE_GROUPED(d, double)
IATF_DEFINE_GROUPED(c, std::complex<float>)
IATF_DEFINE_GROUPED(z, std::complex<double>)
#undef IATF_DEFINE_GROUPED

extern "C" int iatf_set_plan_tuning(const iatf_plan_tuning* tuning) {
  return guarded([&] {
    iatf::Engine& engine = iatf::Engine::default_engine();
    if (tuning == nullptr) {
      engine.clear_plan_tuning();
      return;
    }
    iatf::plan::PlanTuning t;
    t.force_pack_a = tuning->force_pack_a;
    t.force_pack_b = tuning->force_pack_b;
    t.slice_override = static_cast<iatf::index_t>(tuning->slice_override);
    t.mc_cap = tuning->mc_cap;
    t.nc_cap = tuning->nc_cap;
    t.chunk_groups = static_cast<iatf::index_t>(tuning->chunk_groups);
    engine.set_plan_tuning(t);
  });
}

extern "C" int iatf_tune_gemm(char dtype, iatf_op op_a, iatf_op op_b,
                              int64_t m, int64_t n, int64_t k,
                              int64_t batch, int reps) {
  return guarded([&] {
    const iatf::GemmShape shape{m, n, k, to_op(op_a), to_op(op_b)};
    publish_tuned(iatf::tune::tune_gemm_dyn(
        dtype, shape, iatf::Engine::default_engine().cache_info(),
        tune_options(batch, reps)));
  });
}

extern "C" int iatf_tune_trsm(char dtype, iatf_side side, iatf_uplo uplo,
                              iatf_op op_a, iatf_diag diag, int64_t m,
                              int64_t n, int64_t batch, int reps) {
  return guarded([&] {
    const iatf::TrsmShape shape{m, n, to_side(side), to_uplo(uplo),
                                to_op(op_a), to_diag(diag)};
    publish_tuned(iatf::tune::tune_trsm_dyn(
        dtype, shape, iatf::Engine::default_engine().cache_info(),
        tune_options(batch, reps)));
  });
}

extern "C" int64_t iatf_tune_count(void) {
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  return static_cast<int64_t>(tune_table_locked().size());
}

extern "C" void iatf_tune_clear(void) {
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  tune_table_locked().clear();
  publish_tune_table_locked();
}

extern "C" int iatf_tune_save(const char* path) {
  return guarded([&] {
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    IATF_CHECK_AS(tune_table_locked().save(tune_path(path)),
                  iatf::Status::AllocFailure,
                  "iatf_tune_save: could not write the tuning table");
  });
}

extern "C" int iatf_tune_load(const char* path) {
  return guarded([&] {
    // Load into a scratch table so a rejected file leaves the current
    // records (and the engine's view of them) untouched.
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    iatf::tune::TuningTable fresh(tune_table_locked().hardware());
    const iatf::tune::LoadResult result = fresh.load(tune_path(path));
    IATF_CHECK_AS(result == iatf::tune::LoadResult::Ok,
                  iatf::Status::Unsupported,
                  std::string("iatf_tune_load: ") +
                      iatf::tune::to_string(result));
    tune_table_locked() = std::move(fresh);
    publish_tune_table_locked();
  });
}

// Packed-layout handle lifecycle and accessors (s/d/c/z); the packed
// compute shims are defined with the buffer ones above, and the
// handle-validity checks live in the engine.
#define IATF_DEFINE_PACKED(P, PACKED, T, SCALAR)                              \
  extern "C" PACKED* iatf_##P##pack(const SCALAR* src, int64_t rows,          \
                                    int64_t cols, int64_t ld,                 \
                                    int64_t matrix_stride, int64_t batch) {   \
    PACKED* out = nullptr;                                                    \
    const int rc = guarded([&] {                                              \
      out = new PACKED{iatf::Engine::default_engine().pack<T>(                \
          reinterpret_cast<const T*>(src), rows, cols, ld, matrix_stride,     \
          batch, iatf::simd::active_pack_width<T>())};                        \
    });                                                                       \
    return rc == 0 ? out : nullptr;                                           \
  }                                                                           \
  extern "C" int iatf_##P##repack(PACKED* p, const SCALAR* src,               \
                                  int64_t ld, int64_t matrix_stride) {        \
    return guarded([&] {                                                      \
      IATF_CHECK(p != nullptr, "iatf_" #P "repack: null handle");             \
      iatf::Engine::default_engine().repack<T>(                               \
          p->h, reinterpret_cast<const T*>(src), ld, matrix_stride);          \
    });                                                                       \
  }                                                                           \
  extern "C" int iatf_##P##unpack(const PACKED* p, SCALAR* dst,               \
                                  int64_t ld, int64_t matrix_stride) {        \
    return guarded([&] {                                                      \
      IATF_CHECK(p != nullptr, "iatf_" #P "unpack: null handle");             \
      iatf::Engine::default_engine().unpack<T>(                               \
          p->h, reinterpret_cast<T*>(dst), ld, matrix_stride);                \
    });                                                                       \
  }                                                                           \
  extern "C" void iatf_##P##free_packed(PACKED* p) { delete p; }              \
  extern "C" int64_t iatf_##P##packed_rows(const PACKED* p) {                 \
    return p != nullptr ? p->h.rows() : -1;                                   \
  }                                                                           \
  extern "C" int64_t iatf_##P##packed_cols(const PACKED* p) {                 \
    return p != nullptr ? p->h.cols() : -1;                                   \
  }                                                                           \
  extern "C" int64_t iatf_##P##packed_batch(const PACKED* p) {                \
    return p != nullptr ? p->h.batch() : -1;                                  \
  }                                                                           \
  extern "C" uint64_t iatf_##P##packed_epoch(const PACKED* p) {               \
    return p != nullptr ? p->h.epoch() : 0;                                   \
  }

IATF_DEFINE_PACKED(s, iatf_spacked, float, float)
IATF_DEFINE_PACKED(d, iatf_dpacked, double, double)
IATF_DEFINE_PACKED(c, iatf_cpacked, std::complex<float>, float)
IATF_DEFINE_PACKED(z, iatf_zpacked, std::complex<double>, double)
#undef IATF_DEFINE_PACKED

// The real-only _compact shims. TRMM is the triangular template's
// multiply; the _compact factorisations are aliases of the _batch entry
// points: one implementation, one status and health contract.
#define IATF_DEFINE_COMPACT_REAL(P, BUF, T)                                   \
  extern "C" int iatf_##P##trmm_compact(iatf_side side, iatf_uplo uplo,       \
                                        iatf_op op_a, iatf_diag diag,         \
                                        T alpha, const BUF* a, BUF* b) {      \
    return triangular<TriOp::Multiply, T>(__func__, side, uplo, op_a, diag,   \
                                          alpha, a, b);                       \
  }                                                                           \
  extern "C" int iatf_##P##getrfnp_compact(BUF* a) {                          \
    return iatf_##P##getrfnp_batch(a);                                        \
  }                                                                           \
  extern "C" int iatf_##P##potrf_compact(BUF* a) {                            \
    return iatf_##P##potrf_batch(a);                                          \
  }

IATF_DEFINE_COMPACT_REAL(s, iatf_sbuf, float)
IATF_DEFINE_COMPACT_REAL(d, iatf_dbuf, double)
#undef IATF_DEFINE_COMPACT_REAL

// Runtime ISA selection (multi-ISA dispatch, DESIGN.md section 15).
// iatf_force_isa refuses an unknown or unavailable backend with
// IATF_STATUS_UNSUPPORTED -- never by executing an illegal instruction.

extern "C" int iatf_force_isa(const char* name) {
  return guarded([&] {
    IATF_CHECK(name != nullptr && name[0] != '\0',
               "iatf_force_isa: null or empty ISA name");
    iatf::simd::Isa isa;
    IATF_CHECK_AS(iatf::simd::parse_isa(name, isa),
                  iatf::Status::Unsupported,
                  std::string("iatf_force_isa: unknown ISA '") + name + "'");
    IATF_CHECK_AS(iatf::simd::set_active_isa(isa) == iatf::Status::Ok,
                  iatf::Status::Unsupported,
                  std::string("iatf_force_isa: ISA '") + name +
                      "' is not supported on this host");
  });
}

extern "C" const char* iatf_active_isa(void) {
  return iatf::simd::isa_name(iatf::simd::active_isa());
}

extern "C" int iatf_isa_supported(const char* name) {
  if (name == nullptr) {
    return 0;
  }
  iatf::simd::Isa isa;
  if (!iatf::simd::parse_isa(name, isa)) {
    return 0;
  }
  return iatf::simd::isa_supported(isa) ? 1 : 0;
}
