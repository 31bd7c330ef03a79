// C interface implementation: thin exception-to-error-code shims over the
// C++ core, with the opaque buffer structs wrapping CompactBuffer.
#include "iatf/capi/iatf.h"

#include "capi_buffers.hpp"

#include <chrono>
#include <complex>
#include <memory>
#include <mutex>
#include <string>

#include "iatf/common/error.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/ext/compact_ext.hpp"
#include "iatf/core/width_dispatch.hpp"
#include "iatf/resilience/resilience.hpp"
#include "iatf/simd/isa.hpp"
#include "iatf/tune/search.hpp"
#include "iatf/tune/tuning_table.hpp"
#include "iatf/version.hpp"

namespace {

using iatf::capi::enum_bits;
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

// Failing-descriptor attribution for iatf_last_error_detail(): compute
// shims prefill a detail from their arguments and store it on failure or
// on a resilience degradation (quarantine / breaker / overload).
thread_local iatf_error_detail g_last_detail;
thread_local bool g_has_detail = false;

constexpr unsigned kDetailEvents = IATF_EVENT_QUARANTINED_KERNEL |
                                   IATF_EVENT_BREAKER_OPEN |
                                   IATF_EVENT_OVERLOADED;

iatf_error_detail blank_detail() {
  iatf_error_detail d{};
  d.op_a = -1;
  d.op_b = -1;
  d.side = -1;
  d.uplo = -1;
  d.diag = -1;
  return d;
}

void store_detail(iatf_error_detail detail, int status, unsigned events) {
  detail.status = status;
  detail.events = events;
  g_last_detail = detail;
  g_has_detail = true;
}

template <class ABuf, class CBuf>
iatf_error_detail gemm_detail(char dtype, const iatf_op& op_a,
                              const iatf_op& op_b, const ABuf* a,
                              const CBuf* c) {
  iatf_error_detail d = blank_detail();
  d.op = 'g';
  d.dtype = dtype;
  d.op_a = enum_bits(op_a);
  d.op_b = enum_bits(op_b);
  if (c != nullptr) {
    d.m = c->buf.rows();
    d.n = c->buf.cols();
    d.batch = c->buf.batch();
  }
  if (a != nullptr) {
    d.k = d.op_a == IATF_NOTRANS ? a->buf.cols() : a->buf.rows();
  }
  return d;
}

template <class BBuf>
iatf_error_detail trsm_detail(char dtype, const iatf_side& side,
                              const iatf_uplo& uplo, const iatf_op& op_a,
                              const iatf_diag& diag, const BBuf* b) {
  iatf_error_detail d = blank_detail();
  d.op = 't';
  d.dtype = dtype;
  d.op_a = enum_bits(op_a);
  d.side = enum_bits(side);
  d.uplo = enum_bits(uplo);
  d.diag = enum_bits(diag);
  if (b != nullptr) {
    d.m = b->buf.rows();
    d.n = b->buf.cols();
    d.batch = b->buf.batch();
  }
  return d;
}

// Factorisation calls: one square descriptor, no second operand.
iatf_error_detail factor_detail(char op, char dtype, int64_t m,
                                int64_t batch, int uplo, int diag) {
  iatf_error_detail d = blank_detail();
  d.op = op;
  d.dtype = dtype;
  d.m = m;
  d.n = m;
  d.batch = batch;
  d.uplo = uplo;
  d.diag = diag;
  return d;
}

// Grouped calls have no single descriptor; attribute the call kind and
// the group count, leaving the per-matrix sizes unset (-1).
iatf_error_detail grouped_detail(char op, char dtype, int64_t group_count) {
  iatf_error_detail d = blank_detail();
  d.op = op;
  d.dtype = dtype;
  d.m = -1;
  d.n = -1;
  d.k = -1;
  d.batch = group_count;
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

/// gemm/trsm shim: hazards the engine detected but did not repair (the
/// Check policy observes without retrying) surface as a status code, so C
/// callers get the report without the BatchHealth struct. The prefilled
/// detail is stored when the call fails or silently degrades.
template <class Fn>
int guarded_blas(const iatf_error_detail& detail, Fn&& fn) {
  try {
    const iatf::BatchHealth health = fn();
    const unsigned events =
        static_cast<unsigned>(health.events) & kDetailEvents;
    if ((health.nonfinite != 0 || health.singular != 0) &&
        health.fallback == 0) {
      g_last_error = "iatf: numerical hazard detected (" +
                     std::to_string(health.nonfinite) + " non-finite, " +
                     std::to_string(health.singular) +
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

/// Grouped shim: the per-segment health reports fold into one status --
/// any segment with an unrepaired hazard makes the whole call report
/// IATF_STATUS_NUMERICAL_HAZARD (matching guarded_blas for one segment).
template <class Fn>
int guarded_grouped(const iatf_error_detail& detail, Fn&& fn) {
  try {
    const std::vector<iatf::BatchHealth> healths = fn();
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
  g_last_detail = blank_detail();
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
  iatf::Engine::default_engine().set_policy(
      static_cast<iatf::ExecPolicy>(policy));
}

extern "C" iatf_exec_policy iatf_get_exec_policy(void) {
  return static_cast<iatf_exec_policy>(
      iatf::Engine::default_engine().policy());
}

extern "C" void iatf_set_call_deadline_ms(double ms) {
  const auto budget =
      ms > 0 ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::duration<double, std::milli>(ms))
             : std::chrono::nanoseconds(0);
  iatf::Engine::default_engine().set_call_deadline(budget);
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
  iatf::Engine::default_engine().set_overload_policy(
      static_cast<iatf::resilience::OverloadPolicy>(policy));
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
  policy.base_delay =
      base_delay_ms > 0
          ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double, std::milli>(base_delay_ms))
          : std::chrono::nanoseconds(0);
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

#define IATF_DEFINE_COMPACT_BLAS(P, BUF, T, SCALAR, KIND)                     \
  extern "C" int iatf_##P##gemm_compact(                                      \
      iatf_op op_a, iatf_op op_b, IATF_PARAM(KIND, T, SCALAR, alpha),         \
      const BUF* a, const BUF* b, IATF_PARAM(KIND, T, SCALAR, beta),          \
      BUF* c) {                                                               \
    return guarded_blas(gemm_detail(*#P, op_a, op_b, a, c), [&] {             \
      IATF_CHECK(a != nullptr && b != nullptr && c != nullptr,                \
                 "iatf_" #P "gemm_compact: null buffer");                     \
      return iatf::compact_gemm<T>(                                           \
          to_op(op_a), to_op(op_b), IATF_VALUE(KIND, T, alpha), a->buf,       \
          b->buf, IATF_VALUE(KIND, T, beta), c->buf);                         \
    });                                                                       \
  }                                                                           \
  extern "C" int iatf_##P##trsm_compact(                                      \
      iatf_side side, iatf_uplo uplo, iatf_op op_a, iatf_diag diag,           \
      IATF_PARAM(KIND, T, SCALAR, alpha), const BUF* a, BUF* b) {             \
    return guarded_blas(trsm_detail(*#P, side, uplo, op_a, diag, b), [&] {    \
      IATF_CHECK(a != nullptr && b != nullptr,                                \
                 "iatf_" #P "trsm_compact: null buffer");                     \
      return iatf::compact_trsm<T>(to_side(side), to_uplo(uplo),              \
                                   to_op(op_a), to_diag(diag),                \
                                   IATF_VALUE(KIND, T, alpha), a->buf,        \
                                   b->buf);                                   \
    });                                                                       \
  }

IATF_DEFINE_COMPACT_BLAS(s, iatf_sbuf, float, float, REAL)
IATF_DEFINE_COMPACT_BLAS(d, iatf_dbuf, double, double, REAL)
IATF_DEFINE_COMPACT_BLAS(c, iatf_cbuf, std::complex<float>, float, CX)
IATF_DEFINE_COMPACT_BLAS(z, iatf_zbuf, std::complex<double>, double, CX)
#undef IATF_DEFINE_COMPACT_BLAS

// Grouped entry points: convert the C segment arrays into the C++
// scheduler segments over the opaque buffers' CompactBuffers. Real and
// complex variants differ only in how the scalars are assembled.
#define IATF_DEFINE_GEMM_GROUPED(P, T, KIND)                                 \
  extern "C" int iatf_##P##gemm_grouped(                                     \
      const iatf_##P##gemm_segment* segments, int64_t group_count) {         \
    return guarded_grouped(grouped_detail('g', *#P, group_count), [&] {      \
      IATF_CHECK(group_count >= 0 &&                                         \
                     (group_count == 0 || segments != nullptr),              \
                 "iatf_" #P "gemm_grouped: invalid segment array");          \
      std::vector<iatf::sched::GemmSegment<T>> segs(                         \
          static_cast<std::size_t>(group_count));                            \
      for (int64_t i = 0; i < group_count; ++i) {                            \
        const iatf_##P##gemm_segment& in = segments[i];                      \
        IATF_CHECK(in.a != nullptr && in.b != nullptr && in.c != nullptr,    \
                   "iatf_" #P "gemm_grouped: segment with a null buffer");   \
        iatf::sched::GemmSegment<T>& out =                                   \
            segs[static_cast<std::size_t>(i)];                               \
        out.op_a = to_op(in.op_a);                                           \
        out.op_b = to_op(in.op_b);                                           \
        out.alpha = IATF_VALUE(KIND, T, in.alpha);                           \
        out.beta = IATF_VALUE(KIND, T, in.beta);                             \
        out.a = &in.a->buf;                                                  \
        out.b = &in.b->buf;                                                  \
        out.c = &in.c->buf;                                                  \
      }                                                                      \
      return iatf::compact_gemm_grouped<T>(segs);                            \
    });                                                                      \
  }

IATF_DEFINE_GEMM_GROUPED(s, float, REAL)
IATF_DEFINE_GEMM_GROUPED(d, double, REAL)
IATF_DEFINE_GEMM_GROUPED(c, std::complex<float>, CX)
IATF_DEFINE_GEMM_GROUPED(z, std::complex<double>, CX)
#undef IATF_DEFINE_GEMM_GROUPED

#define IATF_DEFINE_TRSM_GROUPED(P, T, KIND)                                 \
  extern "C" int iatf_##P##trsm_grouped(                                     \
      const iatf_##P##trsm_segment* segments, int64_t group_count) {         \
    return guarded_grouped(grouped_detail('t', *#P, group_count), [&] {      \
      IATF_CHECK(group_count >= 0 &&                                         \
                     (group_count == 0 || segments != nullptr),              \
                 "iatf_" #P "trsm_grouped: invalid segment array");          \
      std::vector<iatf::sched::TrsmSegment<T>> segs(                         \
          static_cast<std::size_t>(group_count));                            \
      for (int64_t i = 0; i < group_count; ++i) {                            \
        const iatf_##P##trsm_segment& in = segments[i];                      \
        IATF_CHECK(in.a != nullptr && in.b != nullptr,                       \
                   "iatf_" #P "trsm_grouped: segment with a null buffer");   \
        iatf::sched::TrsmSegment<T>& out =                                   \
            segs[static_cast<std::size_t>(i)];                               \
        out.side = to_side(in.side);                                         \
        out.uplo = to_uplo(in.uplo);                                         \
        out.op_a = to_op(in.op_a);                                           \
        out.diag = to_diag(in.diag);                                         \
        out.alpha = IATF_VALUE(KIND, T, in.alpha);                           \
        out.a = &in.a->buf;                                                  \
        out.b = &in.b->buf;                                                  \
      }                                                                      \
      return iatf::compact_trsm_grouped<T>(segs);                            \
    });                                                                      \
  }

IATF_DEFINE_TRSM_GROUPED(s, float, REAL)
IATF_DEFINE_TRSM_GROUPED(d, double, REAL)
IATF_DEFINE_TRSM_GROUPED(c, std::complex<float>, CX)
IATF_DEFINE_TRSM_GROUPED(z, std::complex<double>, CX)
#undef IATF_DEFINE_TRSM_GROUPED

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
    iatf::GemmShape shape;
    shape.m = m;
    shape.n = n;
    shape.k = k;
    shape.op_a = to_op(op_a);
    shape.op_b = to_op(op_b);
    const iatf::CacheInfo cache =
        iatf::Engine::default_engine().cache_info();
    const iatf::tune::TuneRecord rec = iatf::tune::tune_gemm_dyn(
        dtype, shape, cache, tune_options(batch, reps));
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    tune_table_locked().insert(
        iatf::tune::TuneKey{'g', dtype, 16, m, n, k,
                            static_cast<std::uint8_t>(op_a),
                            static_cast<std::uint8_t>(op_b), 0, 0, 0},
        rec);
    publish_tune_table_locked();
  });
}

extern "C" int iatf_tune_trsm(char dtype, iatf_side side, iatf_uplo uplo,
                              iatf_op op_a, iatf_diag diag, int64_t m,
                              int64_t n, int64_t batch, int reps) {
  return guarded([&] {
    iatf::TrsmShape shape;
    shape.m = m;
    shape.n = n;
    shape.side = to_side(side);
    shape.uplo = to_uplo(uplo);
    shape.op_a = to_op(op_a);
    shape.diag = to_diag(diag);
    const iatf::CacheInfo cache =
        iatf::Engine::default_engine().cache_info();
    const iatf::tune::TuneRecord rec = iatf::tune::tune_trsm_dyn(
        dtype, shape, cache, tune_options(batch, reps));
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    tune_table_locked().insert(
        iatf::tune::TuneKey{'t', dtype, 16, m, n, 0,
                            static_cast<std::uint8_t>(op_a), 0,
                            static_cast<std::uint8_t>(side),
                            static_cast<std::uint8_t>(uplo),
                            static_cast<std::uint8_t>(diag)},
        rec);
    publish_tune_table_locked();
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

// Packed-layout handles and batched factorisations (s/d/c/z). The packed
// compute shims reuse guarded_blas so hazard reporting matches the
// _compact routines; the handle-validity checks live in the engine.
#define IATF_DEFINE_PACKED(P, PACKED, BUF, T, SCALAR, KIND)                   \
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
  }                                                                           \
  extern "C" int iatf_##P##gemm_packed(                                       \
      iatf_op op_a, iatf_op op_b, IATF_PARAM(KIND, T, SCALAR, alpha),         \
      const PACKED* a, const PACKED* b, IATF_PARAM(KIND, T, SCALAR, beta),    \
      PACKED* c) {                                                            \
    iatf_error_detail d = blank_detail();                                     \
    d.op = 'g';                                                               \
    d.dtype = *#P;                                                            \
    d.op_a = static_cast<int>(op_a);                                          \
    d.op_b = static_cast<int>(op_b);                                          \
    if (c != nullptr) {                                                       \
      d.m = c->h.rows();                                                      \
      d.n = c->h.cols();                                                      \
      d.batch = c->h.batch();                                                 \
    }                                                                         \
    return guarded_blas(d, [&] {                                              \
      IATF_CHECK(a != nullptr && b != nullptr && c != nullptr,                \
                 "iatf_" #P "gemm_packed: null handle");                      \
      return iatf::dispatch_width<T>(c->h.pack_width(), [&](auto bytes) {     \
        return iatf::Engine::default_engine()                                 \
            .gemm<T, decltype(bytes)::value>(                                 \
                to_op(op_a), to_op(op_b), IATF_VALUE(KIND, T, alpha), a->h,   \
                b->h, IATF_VALUE(KIND, T, beta), c->h);                       \
      });                                                                     \
    });                                                                       \
  }                                                                           \
  extern "C" int iatf_##P##trsm_packed(                                       \
      iatf_side side, iatf_uplo uplo, iatf_op op_a, iatf_diag diag,           \
      IATF_PARAM(KIND, T, SCALAR, alpha), const PACKED* a, PACKED* b) {       \
    iatf_error_detail d = blank_detail();                                     \
    d.op = 't';                                                               \
    d.dtype = *#P;                                                            \
    d.op_a = static_cast<int>(op_a);                                          \
    d.side = static_cast<int>(side);                                          \
    d.uplo = static_cast<int>(uplo);                                          \
    d.diag = static_cast<int>(diag);                                          \
    if (b != nullptr) {                                                       \
      d.m = b->h.rows();                                                      \
      d.n = b->h.cols();                                                      \
      d.batch = b->h.batch();                                                 \
    }                                                                         \
    return guarded_blas(d, [&] {                                              \
      IATF_CHECK(a != nullptr && b != nullptr,                                \
                 "iatf_" #P "trsm_packed: null handle");                      \
      return iatf::dispatch_width<T>(b->h.pack_width(), [&](auto bytes) {     \
        return iatf::Engine::default_engine()                                 \
            .trsm<T, decltype(bytes)::value>(                                 \
                to_side(side), to_uplo(uplo), to_op(op_a), to_diag(diag),     \
                IATF_VALUE(KIND, T, alpha), a->h, b->h);                      \
      });                                                                     \
    });                                                                       \
  }                                                                           \
  extern "C" int iatf_##P##potrf_batch(BUF* a) {                              \
    return guarded_blas(                                                      \
        factor_detail('p', *#P, a != nullptr ? a->buf.rows() : 0,           \
                      a != nullptr ? a->buf.batch() : 0, -1, -1),             \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr, "iatf_" #P "potrf_batch: null buffer");    \
          return iatf::dispatch_width<T>(                                    \
              a->buf.pack_width(), [&](auto bytes) {                          \
                return iatf::Engine::default_engine()                         \
                    .potrf_batch<T, decltype(bytes)::value>(a->buf);          \
              });                                                             \
        });                                                                   \
  }                                                                           \
  extern "C" int iatf_##P##getrfnp_batch(BUF* a) {                            \
    return guarded_blas(                                                      \
        factor_detail('l', *#P, a != nullptr ? a->buf.rows() : 0,           \
                      a != nullptr ? a->buf.batch() : 0, -1, -1),             \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr,                                            \
                     "iatf_" #P "getrfnp_batch: null buffer");                \
          return iatf::dispatch_width<T>(                                    \
              a->buf.pack_width(), [&](auto bytes) {                          \
                return iatf::Engine::default_engine()                         \
                    .getrf_nopiv_batch<T, decltype(bytes)::value>(a->buf);    \
              });                                                             \
        });                                                                   \
  }                                                                           \
  extern "C" int iatf_##P##trtri_batch(iatf_uplo uplo, iatf_diag diag,        \
                                       BUF* a) {                              \
    return guarded_blas(                                                      \
        factor_detail('i', *#P, a != nullptr ? a->buf.rows() : 0,           \
                      a != nullptr ? a->buf.batch() : 0,                      \
                      enum_bits(uplo), enum_bits(diag)),                      \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr, "iatf_" #P "trtri_batch: null buffer");    \
          return iatf::dispatch_width<T>(                                    \
              a->buf.pack_width(), [&](auto bytes) {                          \
                return iatf::Engine::default_engine()                         \
                    .trtri_batch<T, decltype(bytes)::value>(                  \
                        to_uplo(uplo), to_diag(diag), a->buf);                \
              });                                                             \
        });                                                                   \
  }                                                                           \
  extern "C" int iatf_##P##potrf_packed(PACKED* a) {                          \
    return guarded_blas(                                                      \
        factor_detail('p', *#P, a != nullptr ? a->h.rows() : 0,             \
                      a != nullptr ? a->h.batch() : 0, -1, -1),               \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr, "iatf_" #P "potrf_packed: null handle");   \
          return iatf::dispatch_width<T>(                                    \
              a->h.pack_width(), [&](auto bytes) {                            \
                return iatf::Engine::default_engine()                         \
                    .potrf_batch<T, decltype(bytes)::value>(a->h);            \
              });                                                             \
        });                                                                   \
  }                                                                           \
  extern "C" int iatf_##P##getrfnp_packed(PACKED* a) {                        \
    return guarded_blas(                                                      \
        factor_detail('l', *#P, a != nullptr ? a->h.rows() : 0,             \
                      a != nullptr ? a->h.batch() : 0, -1, -1),               \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr,                                            \
                     "iatf_" #P "getrfnp_packed: null handle");               \
          return iatf::dispatch_width<T>(                                    \
              a->h.pack_width(), [&](auto bytes) {                            \
                return iatf::Engine::default_engine()                         \
                    .getrf_nopiv_batch<T, decltype(bytes)::value>(a->h);      \
              });                                                             \
        });                                                                   \
  }                                                                           \
  extern "C" int iatf_##P##trtri_packed(iatf_uplo uplo, iatf_diag diag,       \
                                        PACKED* a) {                          \
    return guarded_blas(                                                      \
        factor_detail('i', *#P, a != nullptr ? a->h.rows() : 0,             \
                      a != nullptr ? a->h.batch() : 0,                        \
                      enum_bits(uplo), enum_bits(diag)),                      \
        [&] {                                                                 \
          IATF_CHECK(a != nullptr, "iatf_" #P "trtri_packed: null handle");   \
          return iatf::dispatch_width<T>(                                    \
              a->h.pack_width(), [&](auto bytes) {                            \
                return iatf::Engine::default_engine()                         \
                    .trtri_batch<T, decltype(bytes)::value>(                  \
                        to_uplo(uplo), to_diag(diag), a->h);                  \
              });                                                             \
        });                                                                   \
  }

IATF_DEFINE_PACKED(s, iatf_spacked, iatf_sbuf, float, float, REAL)
IATF_DEFINE_PACKED(d, iatf_dpacked, iatf_dbuf, double, double, REAL)
IATF_DEFINE_PACKED(c, iatf_cpacked, iatf_cbuf, std::complex<float>, float,
                   CX)
IATF_DEFINE_PACKED(z, iatf_zpacked, iatf_zbuf, std::complex<double>, double,
                   CX)
#undef IATF_DEFINE_PACKED
#undef IATF_PARAM_REAL
#undef IATF_VALUE_REAL
#undef IATF_PARAM_CX
#undef IATF_VALUE_CX
#undef IATF_PARAM
#undef IATF_VALUE

// Legacy real-only extension shims. The _compact factorisations are
// aliases of the _batch entry points: one implementation, one status and
// health contract.
#define IATF_DEFINE_EXT(P, BUF, T)                                            \
  extern "C" int iatf_##P##trmm_compact(iatf_side side, iatf_uplo uplo,       \
                                        iatf_op op_a, iatf_diag diag,         \
                                        T alpha, const BUF* a, BUF* b) {      \
    return guarded([&] {                                                      \
      IATF_CHECK(a != nullptr && b != nullptr,                                \
                 "iatf_" #P "trmm_compact: null buffer");                     \
      iatf::ext::compact_trmm<T>(to_side(side), to_uplo(uplo), to_op(op_a),   \
                                 to_diag(diag), alpha, a->buf, b->buf);       \
    });                                                                       \
  }                                                                           \
  extern "C" int iatf_##P##getrfnp_compact(BUF* a) {                          \
    return iatf_##P##getrfnp_batch(a);                                        \
  }                                                                           \
  extern "C" int iatf_##P##potrf_compact(BUF* a) {                            \
    return iatf_##P##potrf_batch(a);                                          \
  }

IATF_DEFINE_EXT(s, iatf_sbuf, float)
IATF_DEFINE_EXT(d, iatf_dbuf, double)
#undef IATF_DEFINE_EXT

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
