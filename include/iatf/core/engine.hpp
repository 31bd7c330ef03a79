// The run-time stage front end: an Engine owns the plan cache and the
// tuning parameters (cache sizes), and hands out immutable execution plans
// keyed by the input descriptor.
//
// "For large groups of matrix batch operations, the run-time stage
// overhead is not significant, since it only generates this execution plan
// at the beginning" (paper section 5.3) -- the cache is what makes repeat
// calls with the same descriptor plan-free.
//
// Concurrency model (DESIGN.md section 9). The cache is sharded and
// read-mostly: a hit performs one atomic shared_ptr load of the shard's
// immutable map snapshot and takes no exclusive lock, so hundreds of
// threads replaying hot descriptors never serialise on a mutex. Misses
// take the shard mutex only to register a single-flight build -- N
// threads missing on the same cold descriptor produce exactly one plan
// build, with the other N-1 waiting on the leader's result. Each shard
// is a bounded LRU (capacity from the constructor or
// $IATF_PLAN_CACHE_CAP, default 512 plans per engine) so an adversarial
// stream of distinct descriptors evicts old plans instead of exhausting
// memory; in-flight executions keep their plan alive through their own
// shared_ptr regardless of eviction.
//
// Tuning state (table / manual override) is an immutable
// generation-counted snapshot swapped atomically (RCU-style): a plan
// build reads one coherent config, never a half-updated mix, and a build
// that raced a reconfiguration is simply not cached (its generation is
// stale) rather than poisoning the fresh cache.
//
// The engine is also the guarded-execution boundary (common/status.hpp):
// under ExecPolicy::Fast the gemm/trsm entry points behave exactly like
// the raw plans; under Check they additionally report numerical hazards
// in a BatchHealth; under Fallback any classified failure is retried on
// the scalar reference path and recorded instead of thrown. A per-call
// deadline (set_call_deadline) bounds each gemm/trsm: expiry surfaces as
// Status::Timeout with partial-work accounting -- it is rethrown, never
// degraded to a fallback recompute, which could only take longer.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"
#include "iatf/factor/factor_plan.hpp"
#include "iatf/factor/packed_handle.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"
#include "iatf/resilience/health_ledger.hpp"
#include "iatf/resilience/resilience.hpp"
#include "iatf/sched/group_scheduler.hpp"

namespace iatf {

namespace tune {
class TuningTable;
} // namespace tune

namespace detail {
template <class Traits> struct CallSegment;
} // namespace detail

/// One coherent snapshot of every engine counter (mirrored by the C API's
/// iatf_engine_stats). Counters are individually atomic; the snapshot is
/// taken without stopping concurrent traffic, so fields may be a few
/// operations apart from each other under load.
struct EngineStats {
  std::size_t plan_cache_size = 0;     ///< plans currently cached
  std::size_t plan_cache_capacity = 0; ///< configured LRU bound
  std::size_t hits = 0;         ///< lookups served from a snapshot
  std::size_t misses = 0;       ///< lookups that took the build path
  std::size_t builds = 0;       ///< plan constructions (single-flight:
                                ///< concurrent misses share one build)
  std::size_t tuned = 0;        ///< cached plans built from a tuning record
  std::size_t evictions = 0;    ///< plans evicted by the LRU bound
  std::size_t degraded_calls = 0; ///< guarded calls that degraded
  std::size_t fallback_lanes = 0; ///< lanes recomputed on the ref path
  std::size_t timeout_calls = 0;  ///< calls that exceeded their deadline
  std::size_t grouped_calls = 0;  ///< gemm/trsm/factor_grouped calls
  /// Histogram of distinct execution plans per non-empty grouped call;
  /// bucket upper bounds are 1, 2, 4, 8 and unbounded. A serving mix
  /// concentrated in the first buckets means the size-class binning is
  /// collapsing ragged traffic onto few plans (the cache-friendly case).
  static constexpr std::size_t kGroupedPlanBuckets = 5;
  std::array<std::size_t, kGroupedPlanBuckets> distinct_plans_per_call{};
  // Self-healing counters (DESIGN.md section 11).
  std::size_t shed_calls = 0;      ///< calls rejected by admission control
  std::size_t ref_routed_calls = 0; ///< whole calls served on the ref path
  std::size_t retries = 0;         ///< transient-failure retry attempts
  // Persistent packed layouts (DESIGN.md section 13): how often the
  // layout propagation paid off versus how often a conversion ran.
  std::size_t packed_reuse_hits = 0; ///< handle operands consumed without
                                     ///< an interleave conversion
  std::size_t packed_repacks = 0;    ///< interleave conversions performed
                                     ///< (pack + repack calls)
  std::size_t verified_kernels = 0;    ///< kernels that passed their canary
  std::size_t quarantined_kernels = 0; ///< kernels pulled from dispatch
  std::size_t breaker_transitions = 0; ///< breaker state changes
  // Multi-ISA dispatch (DESIGN.md section 15): compute calls served per
  // kernel width class. A serving mix stuck on width16 on an AVX-512
  // host usually means buffers were created before the ISA was forced.
  std::size_t width16_calls = 0; ///< calls on the 128-bit backend
  std::size_t width32_calls = 0; ///< calls on the 256-bit backend
  std::size_t width64_calls = 0; ///< calls on the 512-bit backend
};

/// Liveness snapshot of the self-healing layer (the C API's
/// iatf_engine_health): how much of the kernel population is trusted, what
/// the per-class circuit breakers are doing, and the admission pressure.
struct EngineHealth {
  std::size_t verified_kernels = 0;
  std::size_t quarantined_kernels = 0;
  std::size_t breaker_closed = 0;    ///< descriptor-class slots Closed
  std::size_t breaker_open = 0;      ///< slots currently ref-routing
  std::size_t breaker_half_open = 0; ///< slots probing
  std::size_t breaker_transitions = 0;
  std::size_t inflight = 0;     ///< calls currently inside the engine
  std::size_t max_inflight = 0; ///< admission budget (0 = unlimited)
  std::size_t shed_calls = 0;
  std::size_t ref_routed_calls = 0;
  std::size_t retries = 0;
};

class Engine {
public:
  /// Plans cached per engine when neither the constructor argument nor
  /// $IATF_PLAN_CACHE_CAP says otherwise.
  static constexpr std::size_t kDefaultPlanCacheCapacity = 512;
  static constexpr std::size_t kPlanCacheShards = 8;

  /// Tuning parameters default to the detected host caches; pass
  /// CacheInfo::kunpeng920() to reproduce the paper's decisions exactly.
  /// `plan_cache_capacity` bounds the LRU plan cache; 0 means
  /// $IATF_PLAN_CACHE_CAP if set (and positive), else the default.
  explicit Engine(CacheInfo cache = CacheInfo::detect(),
                  std::size_t plan_cache_capacity = 0);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Aborts the process (never UB) when an iatf::serve::Server is still
  /// attached: a live dispatcher thread would otherwise execute on a
  /// destroyed engine. Destroy (or stop()) every Server before its
  /// engine; for default_engine() that means before static destruction
  /// begins, i.e. before main() returns (DESIGN.md section 12).
  ~Engine();

  /// Get or build the plan for a GEMM descriptor, cached under its
  /// sched::ClassKey. Raw-buffer and packed-handle calls of one
  /// descriptor share the entry.
  template <class T, int Bytes = 16>
  std::shared_ptr<const plan::GemmPlan<T, Bytes>>
  plan_gemm(const GemmShape& shape);

  /// Get or build the plan for a triangular (TRSM or TRMM) descriptor;
  /// see plan_gemm.
  template <class T, int Bytes = 16>
  std::shared_ptr<const plan::TrsmPlan<T, Bytes>>
  plan_trsm(const TrsmShape& shape);

  /// C = alpha * op_a(A) * op_b(B) + beta * C for every matrix in the
  /// batch. Shapes are inferred from the buffers and the ops. The returned
  /// report is empty (batch only) under ExecPolicy::Fast. Operands that
  /// disagree in dimensions, batch or width (`Bytes`) throw InvalidArg
  /// before admission, whatever route the call would take. The call runs
  /// as a one-segment grouped call: admission, breaker, plan, verify,
  /// execute (split into work items on an attached pool like one
  /// gemm_grouped segment), transient retry, lane repair and reference
  /// fallback are the grouped pipeline's; only grouped_calls and
  /// grouped_plan_hist stay untouched.
  template <class T, int Bytes = 16>
  BatchHealth gemm(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
                   const CompactBuffer<T>& b, T beta, CompactBuffer<T>& c);

  /// op_a(A) X = alpha B (Left) or X op_a(A) = alpha B (Right); B is
  /// overwritten by X for every matrix in the batch. Runs as a
  /// one-segment call, like gemm.
  template <class T, int Bytes = 16>
  BatchHealth trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                   const CompactBuffer<T>& a, CompactBuffer<T>& b);

  /// B = alpha * op_a(A) * B (Left) or alpha * B * op_a(A) (Right), A
  /// triangular, for every matrix in the batch. The multiply of TRSM's
  /// plan (TriOp::Multiply), run as a one-segment call like trsm.
  template <class T, int Bytes = 16>
  BatchHealth trmm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                   const CompactBuffer<T>& a, CompactBuffer<T>& b);

  /// Grouped GEMM over variable-size segments: each segment carries its
  /// own shape/mode/scalars/batch. Segments are binned by descriptor
  /// (one plan resolution per distinct size class, through the same
  /// sharded single-flight cache as gemm) and, when a thread pool is
  /// attached, their batch slices are interleaved across workers so one
  /// large segment cannot starve the rest. ExecPolicy, the per-call
  /// deadline, transient-fault retry (the whole call: every segment is
  /// restored and re-run) and per-lane hazard repair apply exactly as
  /// for gemm -- gemm is this call with one segment; the returned vector
  /// holds one BatchHealth per segment, in call order. Counts one
  /// grouped_call and its distinct plans in grouped_plan_hist.
  template <class T, int Bytes = 16>
  std::vector<BatchHealth>
  gemm_grouped(std::span<const sched::GemmSegment<T>> segments);

  /// Grouped TRSM over variable-size segments; see gemm_grouped.
  template <class T, int Bytes = 16>
  std::vector<BatchHealth>
  trsm_grouped(std::span<const sched::TrsmSegment<T>> segments);

  // --- Persistent packed layouts & fused factorisations (iatf::factor,
  // --- DESIGN.md section 13) -------------------------------------------

  /// Convert a strided column-major batch (matrix b at src + b *
  /// matrix_stride, leading dimension ld) into a persistent PackedHandle.
  /// The one conversion is counted in EngineStats::packed_repacks; every
  /// subsequent engine call consuming the handle skips its pack stage and
  /// counts a packed_reuse_hit per handle operand instead.
  /// `pack_width` selects the interleave factor (and thereby the kernel
  /// width class the handle's compute calls dispatch to); the default is
  /// the paper's 128-bit lane count.
  template <class T>
  factor::PackedHandle<T> pack(const T* src, index_t rows, index_t cols,
                               index_t ld, index_t matrix_stride,
                               index_t batch,
                               index_t pack_width = simd::pack_width_v<T>);

  /// Wrap an already-interleaved buffer in a handle, zero-copy (no
  /// conversion, so no repack is counted).
  template <class T> factor::PackedHandle<T> adopt_packed(CompactBuffer<T> buf);

  /// Refresh a valid handle's contents from a strided column-major batch
  /// of the same shape. Counts one packed_repack and bumps the epoch.
  template <class T>
  void repack(factor::PackedHandle<T>& handle, const T* src, index_t ld,
              index_t matrix_stride);

  /// Convert a handle's contents out to a strided column-major batch.
  /// Read-only: the epoch is untouched and nothing is counted -- exporting
  /// results is the pipeline's one unavoidable conversion.
  template <class T>
  void unpack(const factor::PackedHandle<T>& handle, T* dst, index_t ld,
              index_t matrix_stride);

  /// GEMM over packed handles: identical semantics to the buffer overload,
  /// through the same plan and breaker slot; three reuse hits are
  /// counted, and C's epoch is bumped. Every handle must be valid or the
  /// call throws InvalidArg.
  template <class T, int Bytes = 16>
  BatchHealth gemm(Op op_a, Op op_b, T alpha,
                   const factor::PackedHandle<T>& a,
                   const factor::PackedHandle<T>& b, T beta,
                   factor::PackedHandle<T>& c);

  /// TRSM over packed handles; B's epoch is bumped.
  template <class T, int Bytes = 16>
  BatchHealth trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                   const factor::PackedHandle<T>& a,
                   factor::PackedHandle<T>& b);

  /// Batched Cholesky of the lower triangle in place (A = L L^H per
  /// lane). Guarded execution applies: under Check, non-SPD lanes are
  /// flagged singular; under Fallback they are additionally repaired --
  /// restored to their original input -- instead of poisoning the batch,
  /// while healthy lanes keep their factorisation. The strict upper
  /// triangle is not referenced or written; pad lanes are reset to
  /// identity. Factor plans dispatch no registry kernels, so the kernel
  /// verify-and-quarantine gate and the per-class breaker do not apply.
  template <class T, int Bytes = 16>
  BatchHealth potrf_batch(CompactBuffer<T>& a);

  /// Batched unpivoted LU in place (A = L\U, unit lower diagonal) for
  /// diagonally-dominant batches. Zero/subnormal/non-finite pivots flag
  /// the lane under Check and repair it under Fallback (the reference
  /// factorisation result when finite, the original input otherwise).
  template <class T, int Bytes = 16>
  BatchHealth getrf_nopiv_batch(CompactBuffer<T>& a);

  /// Batched in-place triangular inverse of the `uplo` triangle. Bad
  /// diagonals are flagged/repaired like getrf_nopiv_batch.
  template <class T, int Bytes = 16>
  BatchHealth trtri_batch(Uplo uplo, Diag diag, CompactBuffer<T>& a);

  /// Factorisations over packed handles: one reuse hit, epoch bump.
  template <class T, int Bytes = 16>
  BatchHealth potrf_batch(factor::PackedHandle<T>& a);
  template <class T, int Bytes = 16>
  BatchHealth getrf_nopiv_batch(factor::PackedHandle<T>& a);
  template <class T, int Bytes = 16>
  BatchHealth trtri_batch(Uplo uplo, Diag diag,
                          factor::PackedHandle<T>& a);

  /// Grouped heterogeneous factorisation chains: each segment names one
  /// routine and its batch. The same pipeline as gemm_grouped: one
  /// admission slot covers the whole call, plans resolve per distinct
  /// descriptor class through the shared cache, the distinct-plan
  /// histogram is updated, and on an attached pool the segments' groups
  /// are interleaved across workers.
  template <class T, int Bytes = 16>
  std::vector<BatchHealth>
  factor_grouped(std::span<const sched::FactorSegment<T>> segments);

  /// Get or build the plan for a factorisation descriptor; see plan_gemm.
  template <class T, int Bytes = 16>
  std::shared_ptr<const factor::FactorPlan<T, Bytes>>
  plan_factor(const factor::FactorShape& shape);

  const CacheInfo& cache_info() const noexcept { return cache_; }

  /// Guarding level for gemm/trsm. Fast (the default) is the seed
  /// behaviour: failures throw, no health scanning, no snapshots.
  void set_policy(ExecPolicy policy) noexcept {
    policy_.store(policy, std::memory_order_relaxed);
  }
  ExecPolicy policy() const noexcept {
    return policy_.load(std::memory_order_relaxed);
  }

  /// Per-call time budget for gemm/trsm: each call computes its deadline
  /// on entry and the dispatch layers stop at the first slice/chunk
  /// boundary past it, throwing a TimeoutError (Status::Timeout) with
  /// partial-work accounting. <= 0 disables (the default). The output
  /// buffer of a timed-out call is partially updated.
  void set_call_deadline(std::chrono::nanoseconds budget) noexcept {
    deadline_ns_.store(budget.count(), std::memory_order_relaxed);
  }
  std::chrono::nanoseconds call_deadline() const noexcept {
    return std::chrono::nanoseconds(
        deadline_ns_.load(std::memory_order_relaxed));
  }

  /// Attach a (non-owning) thread pool; every call (GEMM, TRSM and the
  /// factorisations, single or grouped) then cuts each segment into work
  /// items of the plan's tuned chunk_groups, else ~2 items per worker
  /// but never finer than one L1 batch slice, and runs them across the
  /// pool's workers. nullptr restores sequential execution. The caller
  /// keeps the pool alive for as long as it is attached.
  void set_thread_pool(ThreadPool* pool) noexcept {
    pool_.store(pool, std::memory_order_relaxed);
  }
  ThreadPool* thread_pool() const noexcept {
    return pool_.load(std::memory_order_relaxed);
  }

  /// Attach an empirical tuning table (tune/tuning_table.hpp). Plans
  /// built after this consult the table first: a record matching the
  /// descriptor overrides the analytical model, a miss falls through to
  /// the manual override / analytical chain. The cache is
  /// cleared so descriptors planned before the table re-plan against it.
  /// nullptr detaches. The swap is torn-free: in-flight calls either see
  /// the complete old table or the complete new one, never a mix.
  void set_tuning_table(std::shared_ptr<const tune::TuningTable> table);
  std::shared_ptr<const tune::TuningTable> tuning_table() const;

  /// Manual plan override applied to every subsequent plan whose
  /// descriptor misses the tuning table (ablations, experiments). Also
  /// clears the plan cache. clear_plan_tuning() restores the analytical
  /// default.
  void set_plan_tuning(const plan::PlanTuning& tuning);
  void clear_plan_tuning();
  plan::PlanTuning plan_tuning() const;

  /// Rebound the LRU plan cache (>= 1), evicting immediately if the new
  /// capacity is smaller than the current population.
  void set_plan_cache_capacity(std::size_t capacity);
  std::size_t plan_cache_capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Plan-cache statistics (for tests and the plan-cache ablation bench).
  /// Lock-free; exact under concurrency (atomic counters).
  std::size_t plan_cache_size() const;
  std::size_t plan_cache_hits() const noexcept {
    return static_cast<std::size_t>(
        hits_.load(std::memory_order_relaxed));
  }
  std::size_t plan_cache_misses() const noexcept {
    return static_cast<std::size_t>(
        misses_.load(std::memory_order_relaxed));
  }
  /// Plan constructions since the last clear. Single-flight keeps this at
  /// one per cold descriptor no matter how many threads miss on it.
  std::size_t plan_cache_builds() const noexcept {
    return static_cast<std::size_t>(
        builds_.load(std::memory_order_relaxed));
  }
  /// Plans inserted into the cache that were built from a tuning-table
  /// record (cumulative since the last clear/reconfiguration).
  std::size_t plan_cache_tuned() const noexcept {
    return static_cast<std::size_t>(
        tuned_.load(std::memory_order_relaxed));
  }
  std::size_t plan_cache_evictions() const noexcept {
    return static_cast<std::size_t>(
        evictions_.load(std::memory_order_relaxed));
  }
  void clear_plan_cache();

  /// Every counter in one struct (the C API's iatf_engine_stats).
  EngineStats stats() const;

  /// Zero every stats() counter (cache hit/miss/build accounting, degrade
  /// and resilience counters, the grouped histogram). Cache contents, the
  /// kernel-trust ledger and breaker slot states are untouched: those are
  /// state, not statistics.
  void reset_stats();

  /// Snapshot of the self-healing layer; see EngineHealth.
  EngineHealth health() const;

  // --- Self-healing serving layer (DESIGN.md section 11) ---------------

  /// Kernel verify-and-quarantine. On (the default), the first dispatch
  /// of each execution plan canary-checks every registry kernel the plan
  /// references against the scalar reference on a tiny deterministic
  /// batch; kernels that mismatch or throw are quarantined, cached plans
  /// referencing them are invalidated, and rebuilt plans substitute
  /// smaller tile caps that avoid the bad kernel (falling back to the
  /// reference path when no substitute exists). Off restores unconditional
  /// trust in generated kernels (the pre-resilience behaviour).
  void set_kernel_verification(bool on) noexcept {
    verify_kernels_.store(on, std::memory_order_relaxed);
  }
  bool kernel_verification() const noexcept {
    return verify_kernels_.load(std::memory_order_relaxed);
  }

  /// Canary-check every registry kernel of every dtype/width up front
  /// (install-time validation instead of first-dispatch validation).
  /// Returns the number of quarantined kernels afterwards.
  std::size_t self_test();

  /// Admission control: at most `max` gemm/trsm/grouped calls inside the
  /// engine at once; 0 (the default, also $IATF_MAX_INFLIGHT) means
  /// unlimited. What happens to excess calls is set_overload_policy():
  /// Block waits for capacity (bounded by the call deadline), ShedNewest
  /// throws OverloadError (Status::Overloaded), DegradeToRef serves the
  /// call immediately on the scalar reference path.
  void set_max_inflight(std::size_t max) noexcept {
    max_inflight_.store(max, std::memory_order_relaxed);
    admit_cv_.notify_all();
  }
  std::size_t max_inflight() const noexcept {
    return max_inflight_.load(std::memory_order_relaxed);
  }
  void set_overload_policy(resilience::OverloadPolicy policy) noexcept {
    overload_policy_.store(static_cast<std::uint8_t>(policy),
                           std::memory_order_relaxed);
  }
  resilience::OverloadPolicy overload_policy() const noexcept {
    return static_cast<resilience::OverloadPolicy>(
        overload_policy_.load(std::memory_order_relaxed));
  }

  /// Transient-fault retry under ExecPolicy::Fallback: allocation and
  /// worker failures are retried up to max_attempts total attempts with
  /// capped exponential backoff before degrading to the reference path.
  /// A retry covers the whole call, single or grouped: every segment is
  /// restored from its snapshot, re-planned and re-executed.
  /// Also seeded from $IATF_RETRY_MAX. Default: no retry.
  void set_retry_policy(const resilience::RetryPolicy& policy) noexcept {
    retry_attempts_.store(policy.max_attempts, std::memory_order_relaxed);
    retry_base_ns_.store(policy.base_delay.count(),
                         std::memory_order_relaxed);
    retry_seed_.store(policy.jitter_seed, std::memory_order_relaxed);
  }
  resilience::RetryPolicy retry_policy() const noexcept {
    resilience::RetryPolicy p;
    p.max_attempts = retry_attempts_.load(std::memory_order_relaxed);
    p.base_delay = std::chrono::nanoseconds(
        retry_base_ns_.load(std::memory_order_relaxed));
    p.jitter_seed = retry_seed_.load(std::memory_order_relaxed);
    return p;
  }

  /// Degradation circuit breaker over descriptor classes; see
  /// resilience::BreakerConfig (window == 0 disables, the default; also
  /// seeded from $IATF_BREAKER_WINDOW). Reconfiguring resets every slot.
  void set_breaker_config(const resilience::BreakerConfig& config) {
    breaker_.configure(config);
  }
  resilience::BreakerConfig breaker_config() const {
    return breaker_.config();
  }
  /// Breaker state of one descriptor class (sched::class_key; tests and
  /// diagnostics).
  resilience::BreakerState breaker_state(const sched::ClassKey& key) const;

  // --- Crash-consistent health ledger (DESIGN.md section 14) -----------

  /// Attach a HealthLedger at `path`, load it, and replay its records:
  /// journaled kernel quarantines re-quarantine (replay never verifies,
  /// so "verify never resurrects" holds across restarts), breaker-trip
  /// and watchdog records seed their class slots toward a HalfOpen probe
  /// (no-op while the breaker is disabled), and cached plans touching a
  /// replayed quarantine are invalidated. Subsequent quarantines, breaker
  /// trips and watchdog reclaims are journaled as they happen. Also wired
  /// from $IATF_HEALTH_LEDGER at construction. Returns the load outcome
  /// (wrong-hardware or corrupt-header ledgers attach empty).
  resilience::LedgerLoad set_health_ledger(const std::string& path);

  /// The attached ledger, or nullptr when none is attached. The pointer
  /// stays valid until the next set_health_ledger() call.
  std::shared_ptr<resilience::HealthLedger> health_ledger() const;

  /// Trip the breaker slot of one descriptor class immediately (the
  /// serve-layer watchdog marking a stalled dispatch) and journal the
  /// reclaim. cooldown_calls < 0 uses the breaker's configured cooldown.
  /// No-op while the breaker is disabled; the journal entry is written
  /// either way so the stall survives restarts as a record.
  void trip_class(const sched::ClassKey& key, int cooldown_calls);

  // --- Serving front-end registration (iatf::serve internals) ----------

  /// Called by iatf::serve::Server's constructor/destructor so ~Engine
  /// can enforce the shutdown ordering contract (servers die first).
  /// Not for user code.
  void attach_server() noexcept {
    servers_.fetch_add(1, std::memory_order_relaxed);
  }
  void detach_server() noexcept {
    servers_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Servers currently bound to this engine (tests, diagnostics).
  std::size_t attached_servers() const noexcept {
    return servers_.load(std::memory_order_relaxed);
  }

  /// The process-wide default engine used by the free functions in
  /// iatf/core/compact_blas.hpp and the C API.
  ///
  /// Teardown contract: the engine is a function-local static, so it is
  /// constructed on first use and destroyed during static destruction in
  /// reverse construction order. The engine owns no threads -- worker
  /// threads live in ThreadPool (whose own destructor joins them), and
  /// single-flight build state is owned by the stacks of the threads in
  /// the call -- so its destructor only releases cached plans. Calling
  /// default_engine() from atexit-era code is therefore safe as long as
  /// that code does not outlive main()'s last use ordering guarantees;
  /// plans handed out earlier stay valid through their shared_ptr even
  /// after the engine itself is gone.
  static Engine& default_engine();

private:
  /// Immutable cache entry; `last_used` is the only mutable field and is
  /// a relaxed atomic so hits can bump recency without any lock.
  /// `kernels` lists the registry kernels the plan dispatches through so
  /// a quarantine can invalidate exactly the entries it taints.
  struct CacheEntry {
    std::shared_ptr<const void> plan;
    bool tuned = false;
    std::vector<resilience::KernelId> kernels;
    mutable std::atomic<std::uint64_t> last_used{0};
  };

  using PlanMap = std::unordered_map<sched::ClassKey,
                                     std::shared_ptr<CacheEntry>,
                                     sched::ClassKeyHash>;

  /// Single-flight build state shared by every thread that missed on the
  /// same cold descriptor: the leader builds, the rest wait on `cv`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::uint64_t generation = 0;
    std::shared_ptr<const void> plan;
    std::exception_ptr error;
  };

  struct Shard {
    mutable std::mutex mu; ///< guards snapshot publication and inflight
    std::atomic<std::shared_ptr<const PlanMap>> snapshot{};
    std::unordered_map<sched::ClassKey, std::shared_ptr<Flight>,
                       sched::ClassKeyHash>
        inflight;
  };

  /// Immutable tuning configuration, swapped whole (RCU-style). A plan
  /// build resolves against exactly one config; `generation` gates the
  /// insert so a build that raced a reconfiguration is not cached.
  struct TuningConfig {
    std::shared_ptr<const tune::TuningTable> table;
    plan::PlanTuning manual{};
    bool has_manual = false;
    std::uint64_t generation = 0;
  };

  Shard& shard_for(const sched::ClassKey& key);

  template <class Plan, class Make>
  std::shared_ptr<const Plan> lookup(const sched::ClassKey& key,
                                     Make&& make);

  /// Publish `plan` into the shard's snapshot (copy-on-write), evicting
  /// the least-recently-used entries past the per-shard bound. No-op when
  /// `generation` is stale (the cache was cleared/re-tuned mid-build).
  void insert_plan(Shard& shard, const sched::ClassKey& key,
                   std::shared_ptr<const void> plan, bool tuned,
                   std::vector<resilience::KernelId> kernels,
                   std::uint64_t generation, std::uint64_t now);

  /// Evict least-recently-used entries until `map` fits `cap`.
  void evict_to_capacity(PlanMap& map, std::size_t cap);

  std::size_t shard_capacity() const noexcept;

  /// Bump the generation, publish `next` as the tuning config (when
  /// non-null) and wipe every shard. Serialised by config_mu_.
  void reconfigure(std::shared_ptr<TuningConfig> next);

  /// Table -> manual override -> analytical default for the class
  /// `key`, resolved against one immutable config snapshot.
  plan::PlanTuning resolve_tuning(const TuningConfig& config,
                                  const sched::ClassKey& key,
                                  bool* from_table) const;

  // --- One call pipeline (DESIGN.md section 11.6) ----------------------
  // Every call of every op runs through run<Traits>, parameterised by the
  // compile-time op traits in src/core/engine_ops.hpp (detail::GemmOp,
  // TrsmOp, FactorOp); a single call is a one-segment call. Dispatch is
  // fully static.

  /// The pipeline: admission, size-class binning, one breaker gate and
  /// plan per class, verify, execute, whole-call transient retry, lane
  /// repair and reference fallback. Writes one BatchHealth per segment
  /// into `healths`; `grouped_call` counts the call's distinct plans in
  /// grouped_plan_hist.
  template <class Traits>
  void run(std::span<detail::CallSegment<Traits>> segs,
           std::span<BatchHealth> healths, bool grouped_call);

  /// Breaker admission of every class leader: route an Open class to
  /// the reference path, or hold its gate (a HalfOpen probe included).
  template <class Traits>
  void admit_classes(std::span<detail::CallSegment<Traits>> segs);

  /// Resolve (and verify) the plan of every class leader not routed
  /// away; a quarantined plan routes its class to the reference path.
  template <class Traits>
  void plan_classes(std::span<detail::CallSegment<Traits>> segs);

  /// Run every segment whose class has a plan: in call order, or as
  /// interleaved work items on `pool`.
  template <class Traits>
  void execute_segments(std::span<detail::CallSegment<Traits>> segs,
                        ThreadPool* pool, const Deadline* deadline);

  /// A single call: `seg` as a one-segment call of run.
  template <class Traits>
  BatchHealth run_one(const typename Traits::Segment& seg);

  /// A grouped call: one grouped_call, then every segment through one
  /// call of run.
  template <class Traits>
  std::vector<BatchHealth>
  grouped(std::span<const typename Traits::Segment> segments);

  /// The plan builder shared by plan_gemm and plan_trsm: resolve the
  /// tuning, build, and rebuild around quarantined kernels.
  template <class Traits>
  std::shared_ptr<const typename Traits::Plan>
  plan_tuned(const typename Traits::Shape& shape);

  /// Count one degraded call that recomputed `lanes` lanes.
  void note_degraded(std::uint64_t lanes) noexcept {
    degraded_calls_.fetch_add(1, std::memory_order_relaxed);
    fallback_lanes_.fetch_add(lanes, std::memory_order_relaxed);
  }

  /// Count one non-empty grouped call that resolved `distinct` plans.
  void record_grouped_plans(std::size_t distinct) noexcept;

  // --- Self-healing internals ------------------------------------------

  /// Outcome of the admission gate for one call.
  enum class Admit : std::uint8_t { Run, RefRoute };

  /// Count the call in and apply the overload policy. Returns RefRoute
  /// for DegradeToRef past the budget; throws OverloadError (ShedNewest)
  /// or TimeoutError (Block past the deadline) WITHOUT counting the call
  /// in. On Run/RefRoute the caller must pair with release_call().
  Admit admit_call(const Deadline* deadline);
  void release_call() noexcept;

  /// First-dispatch gate: resolve the plan's verification verdict,
  /// canary-checking any still-untested kernel. Returns false when the
  /// plan references a quarantined kernel (caller must ref-route).
  template <class Plan> bool ensure_verified(const Plan& plan);

  /// One kernel's trust verdict: its ledger state, or on first use its
  /// canary, marked in the ledger (and journaled when quarantined).
  /// Returns true when the kernel may be dispatched.
  template <class T, int Bytes>
  bool kernel_trusted(const resilience::KernelUse& use);

  /// Canary-check one registry kernel against the scalar reference.
  /// Returns true on match, false on mismatch/throw (caller quarantines).
  template <class T, int Bytes>
  bool verify_kernel(const resilience::KernelUse& use);

  /// Drop every cached entry referencing a quarantined kernel (their
  /// descriptor classes rebuild through single-flight on the next miss).
  void invalidate_quarantined_plans();

  template <class T, int Bytes>
  std::size_t self_test_type();

  /// Journal helpers: no-ops while no ledger is attached. Quarantines
  /// and breaker trips are appended at the moment they happen so a
  /// SIGKILL immediately afterwards still finds them on disk.
  void journal_quarantine(const resilience::KernelId& id);
  void journal_breaker_trip(std::size_t slot_hash);
  void journal_watchdog(std::size_t slot_hash);
  void journal_degrade(unsigned events);

  /// breaker_.record + journal when the call tripped the slot Open.
  void record_breaker(std::size_t slot_hash, bool degraded, bool probe);

  CacheInfo cache_;
  std::atomic<ExecPolicy> policy_{ExecPolicy::Fast};
  std::atomic<ThreadPool*> pool_{nullptr};
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<std::size_t> capacity_{kDefaultPlanCacheCapacity};

  std::array<Shard, kPlanCacheShards> shards_;
  std::atomic<std::shared_ptr<const TuningConfig>> tuning_{};
  std::mutex config_mu_; ///< serialises reconfigurations, not lookups
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> tick_{0}; ///< LRU recency clock

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> tuned_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> degraded_calls_{0};
  std::atomic<std::uint64_t> fallback_lanes_{0};
  std::atomic<std::uint64_t> timeout_calls_{0};
  std::atomic<std::uint64_t> grouped_calls_{0};
  std::array<std::atomic<std::uint64_t>, EngineStats::kGroupedPlanBuckets>
      grouped_plan_hist_{};

  // Self-healing state. All knobs default to the pre-resilience
  // behaviour except kernel verification, which is on (trust is earned).
  resilience::KernelGuard guard_;
  resilience::CircuitBreaker breaker_;
  std::atomic<bool> verify_kernels_{true};
  std::atomic<std::size_t> max_inflight_{0}; ///< 0 = unlimited
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint8_t> overload_policy_{0}; ///< OverloadPolicy::Block
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::atomic<int> retry_attempts_{1};
  std::atomic<std::int64_t> retry_base_ns_{0};
  std::atomic<std::uint64_t> retry_seed_{0};
  std::atomic<std::uint64_t> shed_calls_{0};
  std::atomic<std::uint64_t> ref_routed_calls_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> packed_reuse_hits_{0};
  std::atomic<std::uint64_t> packed_repacks_{0};
  /// Compute calls per kernel width class: [0]=16B, [1]=32B, [2]=64B.
  std::array<std::atomic<std::uint64_t>, 3> width_calls_{};

  /// Count one compute call against its kernel width class.
  void note_width_call(int bytes) {
    const std::size_t idx = bytes == 32 ? 1 : (bytes == 64 ? 2 : 0);
    width_calls_[idx].fetch_add(1, std::memory_order_relaxed);
  }

  /// iatf::serve::Server instances currently bound to this engine; the
  /// destructor aborts while nonzero (shutdown ordering contract).
  std::atomic<std::size_t> servers_{0};

  /// Crash-consistent health journal; nullptr while none is attached.
  /// The mutex guards pointer swaps only -- the ledger itself is
  /// internally synchronised, so journal helpers copy the shared_ptr and
  /// append outside the lock.
  mutable std::mutex ledger_mu_;
  std::shared_ptr<resilience::HealthLedger> ledger_;
};

} // namespace iatf
