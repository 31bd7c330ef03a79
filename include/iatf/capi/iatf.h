/* C89-compatible interface to the IATF compact batched BLAS.
 *
 * Mirrors the shape of vendor compact interfaces (e.g. MKL's
 * mkl_?gemm_compact): buffers hold a batch of fixed-size small matrices
 * in the SIMD-friendly interleaved layout behind an opaque handle, and
 * the compute routines run the input-aware execution plans of the C++
 * core. Four type variants are exposed with the conventional s/d/c/z
 * prefixes; complex scalars are passed as (re, im) pairs.
 *
 * Every routine returns IATF_STATUS_OK (0) on success and a stable
 * iatf_status code on failure; iatf_last_error() returns a thread-local
 * message for the most recent failure on the calling thread.
 */
#ifndef IATF_CAPI_IATF_H
#define IATF_CAPI_IATF_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Library version as "major.minor.patch" (static storage; never
 * free()). The wire protocol version is independent (see DESIGN.md
 * section 16). */
const char* iatf_version(void);

/* Mode enums. The *_MAX_ENUM sentinels are not valid arguments: they pin
 * each enum to int size, so any int a caller passes is a representable
 * value, and every routine rejects values outside the listed modes with
 * IATF_STATUS_INVALID_ARG. */
typedef enum iatf_op {
  IATF_NOTRANS = 0,
  IATF_TRANS = 1,
  IATF_CONJTRANS = 2,
  IATF_OP_MAX_ENUM = 0x7fffffff
} iatf_op;
typedef enum iatf_side {
  IATF_LEFT = 0,
  IATF_RIGHT = 1,
  IATF_SIDE_MAX_ENUM = 0x7fffffff
} iatf_side;
typedef enum iatf_uplo {
  IATF_LOWER = 0,
  IATF_UPPER = 1,
  IATF_UPLO_MAX_ENUM = 0x7fffffff
} iatf_uplo;
typedef enum iatf_diag {
  IATF_NONUNIT = 0,
  IATF_UNIT = 1,
  IATF_DIAG_MAX_ENUM = 0x7fffffff
} iatf_diag;

/* Stable error codes returned by every routine (mirrors the C++
 * iatf::Status enum value-for-value). */
typedef enum iatf_status {
  IATF_STATUS_OK = 0,
  IATF_STATUS_INVALID_ARG = 1,      /* malformed descriptor or buffers */
  IATF_STATUS_UNSUPPORTED = 2,      /* valid request this build can't serve */
  IATF_STATUS_ALLOC_FAILURE = 3,    /* buffer/workspace allocation failed */
  IATF_STATUS_NUMERICAL_HAZARD = 4, /* NaN/Inf output or singular diagonal */
  IATF_STATUS_INTERNAL = 5,         /* invariant violation / unknown error */
  IATF_STATUS_TIMEOUT = 6,          /* per-call deadline exceeded */
  IATF_STATUS_OVERLOADED = 7,       /* admission control shed the call */
  IATF_STATUS_CANCELLED = 8,        /* queued request cancelled by stop() */
  IATF_STATUS_WATCHDOG = 9          /* stalled dispatch reclaimed by the
                                     * server watchdog */
} iatf_status;

/* How much guarding the default engine wraps around gemm/trsm:
 * FAST (default) = no checks, failures return an error code;
 * CHECK = scan outputs, report IATF_STATUS_NUMERICAL_HAZARD on NaN/Inf
 * outputs or singular TRSM diagonals;
 * FALLBACK = CHECK + retry affected matrices on the scalar reference
 * path, returning IATF_STATUS_OK once they complete.
 * iatf_set_exec_policy ignores an out-of-range value (the current policy
 * stays). */
typedef enum iatf_exec_policy {
  IATF_EXEC_FAST = 0,
  IATF_EXEC_CHECK = 1,
  IATF_EXEC_FALLBACK = 2
} iatf_exec_policy;

void iatf_set_exec_policy(iatf_exec_policy policy);
iatf_exec_policy iatf_get_exec_policy(void);

/* Per-call time budget for the compute routines on the default engine.
 * Each gemm/trsm call computes its deadline on entry; dispatch stops at
 * the next chunk/slice boundary past it and the call returns
 * IATF_STATUS_TIMEOUT with the output buffer partially updated. A
 * timed-out call never degrades to the fallback path (a recompute could
 * only take longer) and never poisons the thread pool -- subsequent
 * calls run normally. ms <= 0 (or NaN) disables (the default). Every
 * millisecond argument of this API clamps at 1e12 ms (about 31.7 years,
 * the wire protocol's deadline bound), so infinity means "practically
 * unbounded", never an overflow. */
void iatf_set_call_deadline_ms(double ms);
double iatf_get_call_deadline_ms(void);

/* ---- Runtime ISA selection ------------------------------------------ */

/* The kernels are compiled at several register widths (128/256/512-bit);
 * at runtime the library detects the widest backend the host supports
 * (CPUID on x86-64; NEON on AArch64) and packs new buffers at that
 * width, so compute calls dispatch to the matching kernel class. The
 * environment variable IATF_FORCE_ISA=<name> overrides the choice at
 * first use (silently falling back to the detected backend when the name
 * is unknown or unavailable -- the override must never SIGILL).
 *
 * iatf_force_isa() is the programmatic override: it instead REFUSES an
 * unknown or unavailable backend with IATF_STATUS_UNSUPPORTED and leaves
 * the active backend unchanged. Canonical names: "sse2", "avx2",
 * "avx512", "neon". Changing the active ISA affects buffers and
 * packed handles created afterwards; existing ones keep dispatching to
 * the backend they were packed for. */
int iatf_force_isa(const char* name);

/* Canonical name of the backend new buffers will pack for. */
const char* iatf_active_isa(void);

/* 1 if the named backend is available on this host (and would be
 * accepted by iatf_force_isa), 0 for unknown or unavailable names. */
int iatf_isa_supported(const char* name);

/* ---- Engine observability ------------------------------------------- */

/* One coherent snapshot of the default engine's counters. Fields may be
 * a few operations apart from each other when sampled under load. */
typedef struct iatf_engine_stats {
  int64_t plan_cache_size;     /* plans currently cached */
  int64_t plan_cache_capacity; /* configured LRU bound */
  int64_t hits;                /* lock-free cache hits */
  int64_t misses;              /* lookups that took the build path */
  int64_t builds;              /* plan constructions (single-flight) */
  int64_t tuned;               /* cached plans built from tuning records */
  int64_t evictions;           /* plans evicted by the LRU bound */
  int64_t degraded_calls;      /* guarded calls that degraded */
  int64_t fallback_lanes;      /* lanes recomputed on the reference path */
  int64_t timeout_calls;       /* calls that exceeded their deadline */
  int64_t grouped_calls;       /* *_grouped calls */
  /* Histogram of distinct execution plans per non-empty grouped call;
   * bucket upper bounds are 1, 2, 4, 8 and unbounded. */
  int64_t grouped_plan_hist[5];
  /* Self-healing counters (see "Serving hardening" below). */
  int64_t shed_calls;          /* calls rejected by admission control */
  int64_t ref_routed_calls;    /* whole calls served on the ref path */
  int64_t retries;             /* transient-failure retry attempts */
  int64_t verified_kernels;    /* kernels that passed their canary */
  int64_t quarantined_kernels; /* kernels pulled from dispatch */
  int64_t breaker_transitions; /* circuit-breaker state changes */
  /* Persistent packed layouts (see "Packed layouts & factorisations"). */
  int64_t packed_reuse_hits;   /* handle operands consumed with no pack */
  int64_t packed_repacks;      /* interleave conversions (pack + repack) */
  /* Multi-ISA dispatch: compute calls served per kernel width class. */
  int64_t width16_calls;       /* 128-bit backend (sse2 / neon) */
  int64_t width32_calls;       /* 256-bit backend (avx2) */
  int64_t width64_calls;       /* 512-bit backend (avx512) */
} iatf_engine_stats;

int iatf_get_engine_stats(iatf_engine_stats* stats);

/* Zero every counter reported by iatf_get_engine_stats. Cached plans,
 * the kernel-trust ledger and breaker slot states are untouched (those
 * are state, not statistics; verified/quarantined counts and breaker
 * transitions therefore survive a reset). */
void iatf_engine_stats_reset(void);

/* ---- Serving hardening (self-healing layer) -------------------------
 *
 * The default engine verifies generated kernels against the scalar
 * reference on first dispatch (quarantining mismatches), bounds the
 * number of in-flight calls, trips a per-descriptor-class circuit
 * breaker when a class keeps degrading, and retries transient faults.
 * Environment seeds: $IATF_MAX_INFLIGHT, $IATF_BREAKER_WINDOW,
 * $IATF_RETRY_MAX. */

/* Liveness snapshot of the self-healing layer. */
typedef struct iatf_engine_health {
  int64_t verified_kernels;
  int64_t quarantined_kernels;
  int64_t breaker_closed;    /* descriptor-class slots in Closed */
  int64_t breaker_open;      /* slots currently ref-routing */
  int64_t breaker_half_open; /* slots probing */
  int64_t breaker_transitions;
  int64_t inflight;     /* calls currently inside the engine */
  int64_t max_inflight; /* admission budget (0 = unlimited) */
  int64_t shed_calls;
  int64_t ref_routed_calls;
  int64_t retries;
} iatf_engine_health;

int iatf_get_engine_health(iatf_engine_health* health);

/* Kernel verify-and-quarantine (default on). Off restores unconditional
 * trust in generated kernels. */
void iatf_set_kernel_verification(int on);
int iatf_get_kernel_verification(void);

/* Canary-check every registry kernel of every type up front instead of
 * on first dispatch; returns the number of quarantined kernels. */
int64_t iatf_engine_self_test(void);

/* What happens to a call arriving past the in-flight budget. */
typedef enum iatf_overload_policy {
  IATF_OVERLOAD_BLOCK = 0,   /* wait for capacity (bounded by deadline) */
  IATF_OVERLOAD_SHED = 1,    /* fail fast with IATF_STATUS_OVERLOADED */
  IATF_OVERLOAD_DEGRADE = 2  /* serve on the scalar reference path */
} iatf_overload_policy;

/* At most `max` compute calls inside the default engine at once;
 * max <= 0 means unlimited (the default). iatf_set_overload_policy
 * ignores an out-of-range value (the current policy stays). */
void iatf_set_max_inflight(int64_t max);
int64_t iatf_get_max_inflight(void);
void iatf_set_overload_policy(iatf_overload_policy policy);
iatf_overload_policy iatf_get_overload_policy(void);

/* Retry transient faults (allocation / worker failures under the
 * FALLBACK policy) up to max_attempts total attempts with capped
 * exponential backoff starting at base_delay_ms. max_attempts <= 1
 * disables retry (the default). */
void iatf_set_retry_policy(int max_attempts, double base_delay_ms);

/* Deterministic jitter over the retry backoff: with seed != 0 every
 * retry sleep is drawn from (seed, retry-sequence-number) uniformly in
 * [delay/2, delay], decorrelating concurrent retriers while a fixed
 * seed replays the exact sleep schedule. seed == 0 disables jitter (the
 * default; sleeps are the plain exponential delays). Also seeded from
 * $IATF_RETRY_JITTER_SEED at engine construction. */
void iatf_set_retry_jitter_seed(uint64_t seed);

/* Degradation circuit breaker: every `window` calls of a descriptor
 * class, `threshold`+ degraded ones trip the class onto the reference
 * path for `cooldown` calls, then a probe decides recovery. window <= 0
 * disables (the default). Reconfiguring resets every slot. */
void iatf_set_breaker(int window, int threshold, int cooldown);

/* ---- Crash-consistent health ledger ---------------------------------
 *
 * An append-only, per-record-checksummed journal of the default
 * engine's health transitions (kernel quarantines, breaker trips,
 * watchdog reclaims, degrade events). With a ledger attached, every
 * transition is journaled as it happens; on restart, loading the same
 * ledger replays it -- kernels quarantined before a crash stay
 * quarantined (and are never re-dispatched), and recently-tripped
 * breaker classes restart in the probing posture. A corrupt tail is
 * truncated and recovered; a ledger written on different hardware loads
 * as empty. $IATF_HEALTH_LEDGER attaches a ledger automatically at
 * engine construction. */

typedef struct iatf_health_ledger_stats {
  int64_t records;           /* replayable records currently held */
  int64_t quarantines;       /* kernel-quarantine records */
  int64_t breaker_trips;     /* breaker-trip records */
  int64_t degrades;          /* degrade-event records */
  int64_t watchdog_reclaims; /* watchdog-reclaim records */
} iatf_health_ledger_stats;

/* Attach the ledger at `path` to the default engine and replay it.
 * NULL path selects $IATF_HEALTH_LEDGER (IATF_STATUS_INVALID_ARG when
 * unset). Returns IATF_STATUS_OK for a clean, missing or recovered
 * ledger (missing files start empty; a damaged tail is truncated), and
 * IATF_STATUS_UNSUPPORTED -- with the reason in iatf_last_error() --
 * for a corrupt header or hardware mismatch (the ledger then starts
 * empty but still journals new events). */
int iatf_health_ledger_load(const char* path);

/* Compact the attached ledger to disk (atomic temp file + rename).
 * IATF_STATUS_INVALID_ARG when no ledger is attached. */
int iatf_health_ledger_save(void);

/* Path of the attached ledger ("" when none); thread-local storage,
 * valid until the next call on this thread. */
const char* iatf_health_ledger_path(void);

/* Counters of the attached ledger; zeroed when none is attached. */
int iatf_health_ledger_get_stats(iatf_health_ledger_stats* stats);

/* Degradation-event bits reported in iatf_error_detail.events (mirrors
 * the C++ DegradeEvent bitmask). */
#define IATF_EVENT_QUARANTINED_KERNEL (1u << 5)
#define IATF_EVENT_BREAKER_OPEN (1u << 6)
#define IATF_EVENT_OVERLOADED (1u << 7)

/* Descriptor of the most recent failing (or degraded) compute call on
 * the calling thread, so an IATF_STATUS_OVERLOADED / _TIMEOUT return --
 * or a silent quarantine/breaker degradation -- can be attributed
 * without re-deriving the call site. */
typedef struct iatf_error_detail {
  int status;   /* iatf_status of the call (OK for pure degradations) */
  unsigned events; /* IATF_EVENT_* bits observed on the call */
  char op;      /* 'g' gemm, 't' trsm, 'm' trmm, 'p' potrf,
                 * 'l' getrf_nopiv, 'i' trtri, 0 unset */
  char dtype;   /* 's', 'd', 'c' or 'z', 0 unset */
  int64_t m, n, k; /* failing descriptor (k = 0 for trsm/trmm) */
  int64_t batch;
  int op_a, op_b;     /* iatf_op values; -1 when not applicable */
  int side, uplo, diag; /* trsm/trmm mode; -1 when not applicable */
} iatf_error_detail;

/* Copy the calling thread's last failure/degradation descriptor into
 * *detail. Returns 1 when a detail is available, 0 when no compute call
 * has failed or degraded since the last iatf_clear_error(). */
int iatf_last_error_detail(iatf_error_detail* detail);

/* Rebound the default engine's LRU plan cache (capacity >= 1); plans
 * past the new bound are evicted immediately. The initial capacity is
 * $IATF_PLAN_CACHE_CAP if set, else 512. */
int iatf_set_plan_cache_capacity(int64_t capacity);

/* Drop every cached plan and reset the cache counters. Safe to call
 * while other threads are inside compute routines: they finish on the
 * plans they already hold. */
void iatf_clear_plan_cache(void);

/* Error handling. */
const char* iatf_last_error(void);
/* Reset the calling thread's error message to the empty string. */
void iatf_clear_error(void);

/* Opaque compact-buffer handles, one per scalar type. */
typedef struct iatf_sbuf iatf_sbuf;
typedef struct iatf_dbuf iatf_dbuf;
typedef struct iatf_cbuf iatf_cbuf;
typedef struct iatf_zbuf iatf_zbuf;

#define IATF_DECLARE_TYPE(P, BUF, SCALAR)                                    \
  /* Create a zeroed batch of rows x cols matrices; NULL on failure. */     \
  BUF* iatf_##P##create(int64_t rows, int64_t cols, int64_t batch);         \
  void iatf_##P##destroy(BUF* buf);                                         \
  int64_t iatf_##P##rows(const BUF* buf);                                   \
  int64_t iatf_##P##cols(const BUF* buf);                                   \
  int64_t iatf_##P##batch(const BUF* buf);                                  \
  /* Copy matrix b in/out of column-major storage with leading dim ld.     \
   * For complex types the scalar pointers are interleaved (re, im). */    \
  int iatf_##P##import(BUF* buf, int64_t b, const SCALAR* src,              \
                       int64_t ld);                                         \
  int iatf_##P##export(const BUF* buf, int64_t b, SCALAR* dst,              \
                       int64_t ld);                                         \
  /* Write unit diagonals into padded lanes (required before TRSM /        \
   * factorisations when batch %% pack width != 0). */                      \
  int iatf_##P##pad_identity(BUF* buf);

IATF_DECLARE_TYPE(s, iatf_sbuf, float)
IATF_DECLARE_TYPE(d, iatf_dbuf, double)
IATF_DECLARE_TYPE(c, iatf_cbuf, float)
IATF_DECLARE_TYPE(z, iatf_zbuf, double)
#undef IATF_DECLARE_TYPE

/* C = alpha * op_a(A) * op_b(B) + beta * C for every matrix. */
int iatf_sgemm_compact(iatf_op op_a, iatf_op op_b, float alpha,
                       const iatf_sbuf* a, const iatf_sbuf* b, float beta,
                       iatf_sbuf* c);
int iatf_dgemm_compact(iatf_op op_a, iatf_op op_b, double alpha,
                       const iatf_dbuf* a, const iatf_dbuf* b,
                       double beta, iatf_dbuf* c);
int iatf_cgemm_compact(iatf_op op_a, iatf_op op_b, float alpha_re,
                       float alpha_im, const iatf_cbuf* a,
                       const iatf_cbuf* b, float beta_re, float beta_im,
                       iatf_cbuf* c);
int iatf_zgemm_compact(iatf_op op_a, iatf_op op_b, double alpha_re,
                       double alpha_im, const iatf_zbuf* a,
                       const iatf_zbuf* b, double beta_re, double beta_im,
                       iatf_zbuf* c);

/* op_a(A) X = alpha B (Left) / X op_a(A) = alpha B (Right); B <- X. */
int iatf_strsm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, float alpha, const iatf_sbuf* a,
                       iatf_sbuf* b);
int iatf_dtrsm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, double alpha, const iatf_dbuf* a,
                       iatf_dbuf* b);
int iatf_ctrsm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, float alpha_re, float alpha_im,
                       const iatf_cbuf* a, iatf_cbuf* b);
int iatf_ztrsm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, double alpha_re, double alpha_im,
                       const iatf_zbuf* a, iatf_zbuf* b);

/* ---- Grouped variable-size batches ----------------------------------
 *
 * A grouped call takes `group_count` segments, each with its own
 * descriptor (shape inferred from the buffers, mode, scalars, batch).
 * Segments sharing a descriptor share one cached execution plan, and
 * with a thread pool attached their batch slices are interleaved so a
 * large segment cannot starve small ones. The engine's exec policy and
 * per-call deadline apply to the whole grouped call; an unrepaired
 * numerical hazard in any segment returns
 * IATF_STATUS_NUMERICAL_HAZARD. */

typedef struct iatf_sgemm_segment {
  iatf_op op_a, op_b;
  float alpha, beta;
  const iatf_sbuf* a;
  const iatf_sbuf* b;
  iatf_sbuf* c;
} iatf_sgemm_segment;

typedef struct iatf_dgemm_segment {
  iatf_op op_a, op_b;
  double alpha, beta;
  const iatf_dbuf* a;
  const iatf_dbuf* b;
  iatf_dbuf* c;
} iatf_dgemm_segment;

typedef struct iatf_cgemm_segment {
  iatf_op op_a, op_b;
  float alpha_re, alpha_im, beta_re, beta_im;
  const iatf_cbuf* a;
  const iatf_cbuf* b;
  iatf_cbuf* c;
} iatf_cgemm_segment;

typedef struct iatf_zgemm_segment {
  iatf_op op_a, op_b;
  double alpha_re, alpha_im, beta_re, beta_im;
  const iatf_zbuf* a;
  const iatf_zbuf* b;
  iatf_zbuf* c;
} iatf_zgemm_segment;

typedef struct iatf_strsm_segment {
  iatf_side side;
  iatf_uplo uplo;
  iatf_op op_a;
  iatf_diag diag;
  float alpha;
  const iatf_sbuf* a;
  iatf_sbuf* b;
} iatf_strsm_segment;

typedef struct iatf_dtrsm_segment {
  iatf_side side;
  iatf_uplo uplo;
  iatf_op op_a;
  iatf_diag diag;
  double alpha;
  const iatf_dbuf* a;
  iatf_dbuf* b;
} iatf_dtrsm_segment;

typedef struct iatf_ctrsm_segment {
  iatf_side side;
  iatf_uplo uplo;
  iatf_op op_a;
  iatf_diag diag;
  float alpha_re, alpha_im;
  const iatf_cbuf* a;
  iatf_cbuf* b;
} iatf_ctrsm_segment;

typedef struct iatf_ztrsm_segment {
  iatf_side side;
  iatf_uplo uplo;
  iatf_op op_a;
  iatf_diag diag;
  double alpha_re, alpha_im;
  const iatf_zbuf* a;
  iatf_zbuf* b;
} iatf_ztrsm_segment;

int iatf_sgemm_grouped(const iatf_sgemm_segment* segments,
                       int64_t group_count);
int iatf_dgemm_grouped(const iatf_dgemm_segment* segments,
                       int64_t group_count);
int iatf_cgemm_grouped(const iatf_cgemm_segment* segments,
                       int64_t group_count);
int iatf_zgemm_grouped(const iatf_zgemm_segment* segments,
                       int64_t group_count);

int iatf_strsm_grouped(const iatf_strsm_segment* segments,
                       int64_t group_count);
int iatf_dtrsm_grouped(const iatf_dtrsm_segment* segments,
                       int64_t group_count);
int iatf_ctrsm_grouped(const iatf_ctrsm_segment* segments,
                       int64_t group_count);
int iatf_ztrsm_grouped(const iatf_ztrsm_segment* segments,
                       int64_t group_count);

/* ---- Async serving front-end ----------------------------------------
 *
 * An iatf_server queues compute requests against the default engine:
 * dispatcher threads (up to one per spare CPU; extra ones start and
 * wake only under backlog) dequeue weighted-fair across tenants, merge queued requests
 * carrying the same descriptor (from any tenant) into one grouped
 * call, and shed requests whose deadline expired while queued. Submissions return a ticket; iatf_server_wait() blocks for
 * the result and iatf_server_poll() checks without blocking.
 *
 * Buffers passed to a submission are borrowed until its ticket resolves
 * (wait returns, or poll reports done); destroying or reusing them
 * earlier -- or writing one output buffer from two in-flight requests
 * -- is undefined. Destroy every server before process exit: the
 * default engine aborts at static destruction while servers exist. */

typedef struct iatf_server iatf_server;

typedef struct iatf_serve_config {
  int64_t queue_capacity;     /* <= 0 selects the default (1024) */
  int64_t per_tenant_quota;   /* <= 0 means no per-tenant bound */
  int64_t max_coalesce;       /* <= 0 selects the default (64) */
  iatf_overload_policy overload; /* queue-full behaviour */
  double default_deadline_ms; /* <= 0 means no default deadline */
} iatf_serve_config;

/* NULL config selects all defaults. NULL on failure, including an
 * out-of-range overload policy. */
iatf_server* iatf_server_create(const iatf_serve_config* config);
/* iatf_server_create with at most `dispatchers` dispatcher threads:
 * <= 0 selects the default (one per spare CPU), values above 64 are
 * clamped to 64. One starts with the server, the others on backlog. */
iatf_server* iatf_server_create_with_dispatchers(
    const iatf_serve_config* config, int64_t dispatchers);
/* Stops the server (cancelling queued requests) and frees it. Tickets
 * never waited on are discarded. */
void iatf_server_destroy(iatf_server* server);

/* Weighted-fair share for `tenant` (weight >= 1; default 1). */
int iatf_server_set_tenant_weight(iatf_server* server, uint32_t tenant,
                                  uint32_t weight);
/* Swap the queue-full policy at runtime; IATF_STATUS_INVALID_ARG (and
 * the policy unchanged) for an out-of-range value. */
int iatf_server_set_overload_policy(iatf_server* server,
                                    iatf_overload_policy policy);

/* Watchdog supervision: with grace > 0 a supervisor thread reclaims a
 * dispatch that has not returned after grace x its deadline budget
 * (floor_ms for deadline-less requests, and the minimum budget
 * otherwise; <= 0 keeps the current floor, initially 1000 ms). A
 * reclaimed request resolves with IATF_STATUS_WATCHDOG -- its output
 * buffers may be partially written and stay borrowed until
 * iatf_server_stop/_drain/_destroy returns -- the class's circuit
 * breaker is forced Open (journaled to the health ledger) and a fresh
 * dispatcher replaces the wedged one. grace == 0 disables; a negative,
 * infinite or NaN grace is IATF_STATUS_INVALID_ARG. */
int iatf_server_set_watchdog(iatf_server* server, double grace,
                             double floor_ms);

/* Queue a request for `tenant` with a per-request deadline budget
 * (deadline_ms <= 0 uses the server default). On IATF_STATUS_OK,
 * *ticket identifies the request; any other return means the request
 * was refused or already resolved with that status (overflow shed,
 * enqueue-time cancellation) and no ticket was issued. */
int iatf_server_submit_sgemm(iatf_server* server, iatf_op op_a,
                             iatf_op op_b, float alpha, const iatf_sbuf* a,
                             const iatf_sbuf* b, float beta, iatf_sbuf* c,
                             uint32_t tenant, double deadline_ms,
                             uint64_t* ticket);
int iatf_server_submit_dgemm(iatf_server* server, iatf_op op_a,
                             iatf_op op_b, double alpha,
                             const iatf_dbuf* a, const iatf_dbuf* b,
                             double beta, iatf_dbuf* c, uint32_t tenant,
                             double deadline_ms, uint64_t* ticket);
int iatf_server_submit_strsm(iatf_server* server, iatf_side side,
                             iatf_uplo uplo, iatf_op op_a, iatf_diag diag,
                             float alpha, const iatf_sbuf* a, iatf_sbuf* b,
                             uint32_t tenant, double deadline_ms,
                             uint64_t* ticket);
int iatf_server_submit_dtrsm(iatf_server* server, iatf_side side,
                             iatf_uplo uplo, iatf_op op_a, iatf_diag diag,
                             double alpha, const iatf_dbuf* a,
                             iatf_dbuf* b, uint32_t tenant,
                             double deadline_ms, uint64_t* ticket);

/* Non-blocking check: 1 = resolved (*status holds the request's final
 * iatf_status; the ticket stays valid for iatf_server_wait), 0 = still
 * pending, IATF_STATUS_INVALID_ARG = unknown ticket. */
int iatf_server_poll(iatf_server* server, uint64_t ticket, int* status);
/* Block until the request resolves; returns its final status and
 * consumes the ticket. */
int iatf_server_wait(iatf_server* server, uint64_t ticket);
/* Request cancellation of a pending ticket (advisory). A request still
 * queued resolves with IATF_STATUS_CANCELLED at dequeue; one already
 * dispatched -- alone or coalesced with other requests -- completes
 * normally, and its coalesce-mates are never disturbed. The ticket
 * stays waitable either way. IATF_STATUS_INVALID_ARG = unknown
 * ticket. */
int iatf_server_cancel(iatf_server* server, uint64_t ticket);

/* Refuse new submissions and complete everything queued/in flight. */
int iatf_server_drain(iatf_server* server);
/* Refuse new submissions, finish in-flight work, cancel the queued
 * remainder with IATF_STATUS_CANCELLED. */
int iatf_server_stop(iatf_server* server);

/* Coherent snapshot of the server's counters. */
typedef struct iatf_server_stats {
  int64_t queued;             /* requests currently queued */
  int64_t queue_capacity;     /* configured shared bound */
  int64_t inflight;           /* requests currently executing */
  int64_t submitted;          /* total requests offered */
  int64_t completed;          /* requests that finished execution */
  int64_t dispatch_calls;     /* engine dispatches (1 per batch) */
  int64_t coalesced_requests; /* requests that shared a dispatch */
  /* Requests-per-dispatch histogram; upper bounds 1, 2, 4, 8, inf. */
  int64_t coalesce_hist[5];
  int64_t shed_expired;       /* dequeue-time deadline sheds */
  int64_t shed_overflow;      /* submit-time queue-full sheds */
  int64_t cancelled;          /* stop()-cancelled + late refusals */
  int64_t degraded_inline;    /* queue-full requests served inline */
  int64_t watchdog_kicks;     /* stalled dispatches reclaimed */
  int64_t heartbeats;         /* dispatcher rounds started */
} iatf_server_stats;

int iatf_server_get_stats(iatf_server* server, iatf_server_stats* stats);
/* Dispatcher threads started so far, and the most dispatches that have
 * been inside the engine at once. */
int iatf_server_get_dispatchers(iatf_server* server, int64_t* dispatchers,
                                int64_t* peak_concurrent_dispatches);
/* Requests of `tenant` dequeued for execution so far (-1 on error). */
int64_t iatf_server_tenant_served(iatf_server* server, uint32_t tenant);

/* ---- Autotuning -----------------------------------------------------
 *
 * The process-wide tuning table feeds the default engine: records are
 * consulted whenever a plan is built for a matching descriptor, and
 * missing descriptors fall back to the manual override (below), then
 * to the analytical model. */

/* Manual plan overrides for descriptors the tuning table does not
 * cover. force_pack_* : -1 keeps the analytical choice, 0 forces
 * no-pack, 1 forces pack; zero slice/caps/chunk mean "analytical".
 * Forcing no-pack for an operand the plan must gather is reported as
 * IATF_STATUS_INVALID_ARG by the compute routine that builds the plan. */
typedef struct iatf_plan_tuning {
  int force_pack_a;
  int force_pack_b;
  int64_t slice_override;
  int mc_cap;
  int nc_cap;
  int64_t chunk_groups;
} iatf_plan_tuning;

/* Install (or, with NULL, remove) the manual override on the default
 * engine; either way the plan cache is invalidated. */
int iatf_set_plan_tuning(const iatf_plan_tuning* tuning);

/* Empirically tune one descriptor (dtype is 's','d','c' or 'z') and
 * store the winning record in the process-wide table. batch <= 0 and
 * reps <= 0 select the defaults (256 matrices, 5 repetitions). */
int iatf_tune_gemm(char dtype, iatf_op op_a, iatf_op op_b, int64_t m,
                   int64_t n, int64_t k, int64_t batch, int reps);
int iatf_tune_trsm(char dtype, iatf_side side, iatf_uplo uplo,
                   iatf_op op_a, iatf_diag diag, int64_t m, int64_t n,
                   int64_t batch, int reps);

/* Records currently in the process-wide table. */
int64_t iatf_tune_count(void);
/* Drop every record (the engine reverts to the analytical model). */
void iatf_tune_clear(void);

/* Persist / restore the table. NULL path selects $IATF_TUNE_FILE, else
 * "iatf_tune.tbl" in the working directory. Saving is atomic (temp file
 * + rename). Loading a missing, corrupt or hardware-mismatched file
 * keeps the current table untouched and returns
 * IATF_STATUS_UNSUPPORTED with the reason in iatf_last_error(). */
int iatf_tune_save(const char* path);
int iatf_tune_load(const char* path);

/* ---- Packed layouts & factorisations --------------------------------
 *
 * A packed handle holds a batch persistently in the interleaved compact
 * layout: iatf_?pack() converts a strided column-major array exactly
 * once, every *_packed compute routine then consumes the handle with no
 * per-call conversion (counted in iatf_engine_stats.packed_reuse_hits /
 * packed_repacks), and iatf_?unpack() converts the result back out.
 *
 * The batched factorisations run under the engine's exec policy like
 * gemm/trsm: with IATF_EXEC_CHECK a non-SPD / hard-singular matrix is
 * reported as IATF_STATUS_NUMERICAL_HAZARD; with IATF_EXEC_FALLBACK the
 * affected matrices are repaired on the scalar reference path (restored
 * to their original input when even the reference refuses them) and the
 * call returns IATF_STATUS_OK, never poisoning the healthy remainder. */

typedef struct iatf_spacked iatf_spacked;
typedef struct iatf_dpacked iatf_dpacked;
typedef struct iatf_cpacked iatf_cpacked;
typedef struct iatf_zpacked iatf_zpacked;

#define IATF_DECLARE_PACKED(P, PACKED, BUF, SCALAR)                          \
  /* Pack matrix b at src + b*matrix_stride (column-major, leading        \
   * dimension ld) for b in [0, batch); NULL on failure. */               \
  PACKED* iatf_##P##pack(const SCALAR* src, int64_t rows, int64_t cols,     \
                         int64_t ld, int64_t matrix_stride, int64_t batch); \
  /* Refresh a handle's contents in place (same shape, counted repack). */ \
  int iatf_##P##repack(PACKED* p, const SCALAR* src, int64_t ld,            \
                       int64_t matrix_stride);                              \
  /* Convert the handle's contents back out (no conversion counted). */    \
  int iatf_##P##unpack(const PACKED* p, SCALAR* dst, int64_t ld,            \
                       int64_t matrix_stride);                              \
  void iatf_##P##free_packed(PACKED* p);                                    \
  int64_t iatf_##P##packed_rows(const PACKED* p);                           \
  int64_t iatf_##P##packed_cols(const PACKED* p);                           \
  int64_t iatf_##P##packed_batch(const PACKED* p);                          \
  /* Mutation epoch: bumped by every routine that writes the handle. */    \
  uint64_t iatf_##P##packed_epoch(const PACKED* p);                         \
  /* GEMM / TRSM over packed handles (semantics of the _compact calls). */ \
  int iatf_##P##gemm_packed(iatf_op op_a, iatf_op op_b, SCALAR alpha,       \
                            const PACKED* a, const PACKED* b, SCALAR beta,  \
                            PACKED* c);                                     \
  int iatf_##P##trsm_packed(iatf_side side, iatf_uplo uplo, iatf_op op_a,   \
                            iatf_diag diag, SCALAR alpha, const PACKED* a,  \
                            PACKED* b);                                     \
  /* Batched factorisations, over compact buffers and packed handles:     \
   * blocked Cholesky (lower), unpivoted LU for diagonally-dominant       \
   * batches, in-place triangular inverse. */                              \
  int iatf_##P##potrf_batch(BUF* a);                                        \
  int iatf_##P##getrfnp_batch(BUF* a);                                      \
  int iatf_##P##trtri_batch(iatf_uplo uplo, iatf_diag diag, BUF* a);        \
  int iatf_##P##potrf_packed(PACKED* a);                                    \
  int iatf_##P##getrfnp_packed(PACKED* a);                                  \
  int iatf_##P##trtri_packed(iatf_uplo uplo, iatf_diag diag, PACKED* a);

IATF_DECLARE_PACKED(s, iatf_spacked, iatf_sbuf, float)
IATF_DECLARE_PACKED(d, iatf_dpacked, iatf_dbuf, double)
#undef IATF_DECLARE_PACKED

/* Complex variants: identical surface, with scalars passed as (re, im)
 * pairs and strided storage interleaved (re, im) per element, so SCALAR*
 * pointers address 2*rows*cols real values per matrix. */
#define IATF_DECLARE_PACKED_CX(P, PACKED, BUF, SCALAR)                       \
  PACKED* iatf_##P##pack(const SCALAR* src, int64_t rows, int64_t cols,     \
                         int64_t ld, int64_t matrix_stride, int64_t batch); \
  int iatf_##P##repack(PACKED* p, const SCALAR* src, int64_t ld,            \
                       int64_t matrix_stride);                              \
  int iatf_##P##unpack(const PACKED* p, SCALAR* dst, int64_t ld,            \
                       int64_t matrix_stride);                              \
  void iatf_##P##free_packed(PACKED* p);                                    \
  int64_t iatf_##P##packed_rows(const PACKED* p);                           \
  int64_t iatf_##P##packed_cols(const PACKED* p);                           \
  int64_t iatf_##P##packed_batch(const PACKED* p);                          \
  uint64_t iatf_##P##packed_epoch(const PACKED* p);                         \
  int iatf_##P##gemm_packed(iatf_op op_a, iatf_op op_b, SCALAR alpha_re,    \
                            SCALAR alpha_im, const PACKED* a,               \
                            const PACKED* b, SCALAR beta_re,                \
                            SCALAR beta_im, PACKED* c);                     \
  int iatf_##P##trsm_packed(iatf_side side, iatf_uplo uplo, iatf_op op_a,   \
                            iatf_diag diag, SCALAR alpha_re,                \
                            SCALAR alpha_im, const PACKED* a, PACKED* b);   \
  int iatf_##P##potrf_batch(BUF* a);                                        \
  int iatf_##P##getrfnp_batch(BUF* a);                                      \
  int iatf_##P##trtri_batch(iatf_uplo uplo, iatf_diag diag, BUF* a);        \
  int iatf_##P##potrf_packed(PACKED* a);                                    \
  int iatf_##P##getrfnp_packed(PACKED* a);                                  \
  int iatf_##P##trtri_packed(iatf_uplo uplo, iatf_diag diag, PACKED* a);

IATF_DECLARE_PACKED_CX(c, iatf_cpacked, iatf_cbuf, float)
IATF_DECLARE_PACKED_CX(z, iatf_zpacked, iatf_zbuf, double)
#undef IATF_DECLARE_PACKED_CX

/* Real-only _compact entry points. iatf_?trmm_compact computes
 * B = alpha * op(tri(A)) * B (Left) or alpha * B * op(tri(A)) (Right)
 * through the engine's triangular plan, with the status codes, error
 * detail (op 'm') and exec-policy health semantics of iatf_?trsm_compact.
 * The _compact factorisations are aliases of iatf_?getrfnp_batch and
 * iatf_?potrf_batch: same status codes, error detail, automatic pad-lane
 * identity and exec-policy health semantics. */
int iatf_strmm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, float alpha, const iatf_sbuf* a,
                       iatf_sbuf* b);
int iatf_dtrmm_compact(iatf_side side, iatf_uplo uplo, iatf_op op_a,
                       iatf_diag diag, double alpha, const iatf_dbuf* a,
                       iatf_dbuf* b);
int iatf_sgetrfnp_compact(iatf_sbuf* a);
int iatf_dgetrfnp_compact(iatf_dbuf* a);
int iatf_spotrf_compact(iatf_sbuf* a);
int iatf_dpotrf_compact(iatf_dbuf* a);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* IATF_CAPI_IATF_H */
