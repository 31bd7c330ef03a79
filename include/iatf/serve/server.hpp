// iatf::serve -- asynchronous multi-tenant front-end over one Engine.
//
// The engine already survives heavy in-process traffic (admission
// control, breakers, deadlines, grouped scheduling), but its API is one
// synchronous call per caller thread: a slow or abusive tenant
// monopolises the engine and there is no way to drain or restart under
// load. Server closes that gap with a bounded submission queue and a
// set of dispatcher threads:
//
//  * Async API. submit_gemm / submit_trsm / submit_grouped return a
//    std::future (and optionally invoke a completion callback); the
//    submitting thread never executes the work itself except under the
//    DegradeToRef queue-full policy. Every submitted request is resolved
//    exactly once: with a BatchHealth, or with OverloadError /
//    TimeoutError / CancelledError -- never abandoned, including across
//    drain(), stop() and destruction mid-fault-storm.
//
//  * Dispatchers on spare cores. Compact batches are independent, so
//    the server runs up to ServeConfig::dispatchers threads (default:
//    one per spare CPU) over one queue. They follow a leader/follower
//    protocol (DESIGN.md section 12.5): at most one idle dispatcher
//    spins, the others park, and a follower is started or woken only
//    when queued requests outnumber the dispatchers about to look at
//    the queue. A lone synchronous caller is served by one dispatcher;
//    extra cores join only under backlog.
//    Picks happen under one lock in stride order; only the completion
//    order of concurrent dispatches is unordered.
//
//  * Cheap submits. While the server runs with room in its queue and
//    no per-tenant quota below the shared bound, a submit takes no lock:
//    it reserves a slot on one atomic count and pushes the request onto
//    a lock-free ingress stack, which a dispatcher splices into the
//    tenant queues before each pick. It takes the queue lock only to
//    wake a dispatcher, or on the slow path (full queue, quota, an
//    injected fault, lifecycle refusals; section 12.5). Request nodes, promise
//    states and queue chunks come from the process-wide block recycler
//    (common/recycler.hpp, section 12.6): a warmed-up submit makes no
//    heap allocation.
//
//  * Cross-tenant coalescing. A dispatcher merges queued single
//    requests carrying the same descriptor class (one sched::ClassKey,
//    the engine's plan-cache and breaker identity) -- from any tenant --
//    into one gemm_grouped / trsm_grouped call, so the input-aware
//    batching win survives many small clients.
//    A coalesced dispatch that fails is retried request-by-request, so
//    one tenant's bad descriptor cannot fail its coalesce-mates.
//
//  * Per-tenant isolation. Each tenant has its own FIFO queue bounded by
//    a quota (so one tenant cannot fill the shared queue), and dequeue
//    order is weighted-fair stride scheduling: with weights w_i, tenant i
//    receives ~w_i / sum(w) of dispatches under saturation regardless of
//    submission rates.
//
//  * Backpressure. The queue is bounded; a full queue (or exhausted
//    tenant quota) applies resilience::OverloadPolicy semantics: Block
//    waits for space (bounded by the request deadline), ShedNewest
//    resolves the future with OverloadError, DegradeToRef executes the
//    request synchronously on the submitting thread.
//
//  * Deadline shedding. A request whose deadline expires while queued is
//    resolved with TimeoutError at dequeue and never dispatched -- queue
//    time counts against the budget, and dead work is never executed.
//
//  * Graceful lifecycle. drain() refuses new submissions and completes
//    everything queued and in flight; stop() refuses new submissions,
//    completes in-flight work and cancels the still-queued remainder
//    with CancelledError. The destructor stop()s. Servers must be
//    destroyed before their engine (~Engine aborts otherwise; see
//    DESIGN.md section 12 for the default_engine() ordering rule).
//
//  * Watchdog supervision (opt-in; DESIGN.md section 14). With
//    watchdog_grace > 0 a supervisor thread watches every dispatcher's
//    in-flight dispatch: a batch that has not returned after grace x its
//    deadline budget (watchdog_floor for deadline-less requests) is
//    reclaimed -- its futures resolve with WatchdogError, the descriptor
//    class's circuit breaker is forced Open, the event is journaled to
//    the engine's health ledger, and a fresh thread replaces only the
//    wedged dispatcher while the others keep serving. The wedged thread
//    is retired and joined at stop()/drain()/destruction.
//
// Buffers referenced by a submitted request are non-owning: the caller
// keeps them alive and unaliased (no two in-flight requests writing one
// output buffer) until the request's future resolves. A WatchdogError
// resolution is the one exception: the wedged dispatcher may still be
// touching the buffers after the future resolves, so they stay borrowed
// until stop() or drain() returns (which joins the retired thread).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "iatf/common/recycler.hpp"
#include "iatf/common/status.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/resilience/resilience.hpp"
#include "iatf/sched/group_scheduler.hpp"

namespace iatf::serve {

/// Caller-chosen tenant identity. Tenants are created on first use
/// (weight 1, shared default quota); set_tenant_weight adjusts shares.
using TenantId = std::uint32_t;

/// Server construction knobs. Defaults suit a mid-size serving tier;
/// every field can be tightened for tests.
struct ServeConfig {
  /// Total queued requests across all tenants (>= 1). Submissions past
  /// this bound hit `overload`.
  std::size_t queue_capacity = 1024;
  /// Queued requests one tenant may hold (0 = no per-tenant bound
  /// beyond queue_capacity). Submissions past the quota hit `overload`
  /// even when the shared queue has space.
  std::size_t per_tenant_quota = 0;
  /// Most single requests merged into one grouped dispatch (>= 1).
  std::size_t max_coalesce = 64;
  /// Dispatcher threads. 0 = one per spare CPU
  /// (hardware_concurrency() - 1, at least 1); explicit values are
  /// clamped to [1, Server::kMaxDispatchers]. One starts with the
  /// server; the others start, and later wake, only under backlog
  /// (DESIGN.md section 12.5).
  std::size_t dispatchers = 0;
  /// Queue-full behaviour (reuses the engine's overload taxonomy).
  resilience::OverloadPolicy overload = resilience::OverloadPolicy::Block;
  /// Deadline applied to requests submitted without one (0 = none).
  std::chrono::nanoseconds default_deadline{0};
  /// Watchdog stall multiplier: a dispatched batch that has not returned
  /// after grace x its deadline budget is reclaimed (futures resolve
  /// with WatchdogError, the class breaker is forced Open, the
  /// dispatcher is respawned). 0 disables supervision entirely (the
  /// default: no supervisor thread is started).
  double watchdog_grace = 0.0;
  /// Stall budget for requests dispatched without a deadline, and the
  /// minimum budget for very tight deadlines (a near-deadline request
  /// must not be reclaimed faster than it could plausibly execute).
  std::chrono::nanoseconds watchdog_floor{1'000'000'000};
  /// Supervisor poll period (also bounds reclamation latency).
  std::chrono::nanoseconds watchdog_poll{10'000'000};
};

/// Cooperative cancellation handle for queued requests. A network
/// front-end mints one token per request (or per connection) and flags
/// it when the client goes away; the dispatcher checks the token at
/// dequeue -- the same point deadline shedding happens -- and resolves
/// a flagged request with CancelledError instead of dispatching it.
/// Cancellation is advisory past that point: a request already inside
/// a dispatch completes normally (its result is simply unwanted), and
/// sibling requests coalesced with a cancelled one are never disturbed.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken make_cancel_token() {
  return std::make_shared<std::atomic<bool>>(false);
}

inline void cancel(const CancelToken& token) noexcept {
  if (token) {
    token->store(true, std::memory_order_relaxed);
  }
}

/// Per-submission options.
struct SubmitOptions {
  TenantId tenant = 0;
  /// Relative deadline budget for this request, covering queue time and
  /// execution start; 0 = ServeConfig::default_deadline. An expired
  /// request is shed at dequeue with TimeoutError, never dispatched.
  std::chrono::nanoseconds deadline{0};
  /// Optional cancellation handle (see CancelToken above); null means
  /// the request cannot be cancelled.
  CancelToken cancel;
};

/// Per-tenant accounting inside ServerStats.
struct TenantStats {
  TenantId tenant = 0;
  std::uint32_t weight = 1;
  std::uint64_t submitted = 0;     ///< requests offered by this tenant
  std::uint64_t served = 0;        ///< requests dequeued for execution
  std::uint64_t shed_expired = 0;  ///< shed at dequeue: deadline expired
  std::uint64_t shed_overflow = 0; ///< shed at submit: queue/quota full
  std::uint64_t cancelled = 0;     ///< cancelled by stop()/refused late
};

/// One coherent snapshot of the server's counters (mirrored by the C
/// API's iatf_server_stats). Taken under the queue lock after splicing
/// the lock-free ingress, so the global fields are mutually consistent
/// and count every request admitted before the call.
struct ServerStats {
  std::size_t queued = 0;         ///< requests currently queued
  std::size_t queue_capacity = 0; ///< configured shared bound
  std::size_t inflight = 0;       ///< requests currently executing
  std::uint64_t submitted = 0;    ///< total requests offered
  std::uint64_t completed = 0;    ///< requests that finished execution
  std::uint64_t dispatch_calls = 0; ///< engine dispatches (1 per batch)
  /// Requests that shared their dispatch with at least one coalesce-mate
  /// (the ISSUE's `server_coalesced` acceptance counter).
  std::uint64_t coalesced_requests = 0;
  /// Histogram of requests-per-dispatch; bucket upper bounds are
  /// 1, 2, 4, 8 and unbounded. Mass above the first bucket means
  /// cross-tenant coalescing is collapsing traffic onto grouped calls.
  static constexpr std::size_t kCoalesceBuckets = 5;
  std::array<std::uint64_t, kCoalesceBuckets> coalesce_hist{};
  std::uint64_t shed_expired = 0;  ///< dequeue-time deadline sheds
  std::uint64_t shed_overflow = 0; ///< submit-time queue-full sheds
  std::uint64_t cancelled = 0;     ///< stop()-cancelled + late refusals
  std::uint64_t degraded_inline = 0; ///< DegradeToRef inline executions
  std::uint64_t watchdog_kicks = 0;  ///< stalled dispatches reclaimed
  std::uint64_t heartbeats = 0;      ///< dispatcher rounds started
  /// Submits that took the queue lock: the slow path (full queue,
  /// quota, lifecycle refusal, an injected fault) or a submit that had
  /// to wake a dispatcher. submitted - locked_submits took no lock.
  std::uint64_t locked_submits = 0;
  /// Dispatcher threads started: 1 at construction, more (up to
  /// ServeConfig::dispatchers) as backlogs first need them.
  std::size_t dispatchers = 0;
  /// Most dispatches ever inside their engine call at once (1 for a
  /// lone synchronous caller; above 1 only when a backlog woke
  /// followers).
  std::size_t peak_concurrent_dispatches = 0;
  std::vector<TenantStats> tenants;  ///< ascending tenant id
};

/// Stride scheduler over a dynamic tenant population: every tenant owns
/// a virtual-time `pass`; pick() selects the smallest pass among the
/// currently runnable tenants and charge() advances the chosen tenant by
/// kScale / weight, so long-run dispatch shares converge to the weight
/// ratios. activate() re-aligns a tenant that went idle with the global
/// virtual time, so sleeping never accumulates credit (an idle tenant
/// cannot burst-starve the others when it wakes). Deterministic: ties
/// break toward the lower tenant id. Not thread-safe (the Server calls
/// it under its queue lock).
class WeightedPicker {
public:
  static constexpr std::uint64_t kScale = 1u << 20;

  /// Set (or create with) `weight` >= 1; existing pass is preserved.
  void set_weight(TenantId tenant, std::uint32_t weight);
  std::uint32_t weight(TenantId tenant) const;

  /// Tenant became runnable (its queue turned non-empty).
  void activate(TenantId tenant);

  /// Smallest-pass runnable tenant (ties -> lower id). `runnable` must
  /// be non-empty; unknown ids are treated as weight-1 tenants.
  TenantId pick(std::span<const TenantId> runnable) const;

  /// Account one dequeued request of `tenant`.
  void charge(TenantId tenant);

private:
  struct State {
    std::uint64_t pass = 0;
    std::uint32_t weight = 1;
  };
  State& state_for(TenantId tenant);
  std::unordered_map<TenantId, State> states_;
  std::uint64_t vtime_ = 0; ///< pass of the most recently charged tenant
};

namespace detail {
struct Request; // queue node; defined in server.cpp
}

class Server {
public:
  /// Completion callback for single-request submissions. Runs on a
  /// dispatcher thread (or the submitting thread for requests resolved
  /// at submit time) with the request's final status: Ok with the
  /// BatchHealth, or the error class the future carries. Callbacks must
  /// be fast and must not throw (exceptions are swallowed); the future
  /// is always resolved as well.
  using Completion = std::function<void(Status, const BatchHealth&)>;
  /// Completion callback for grouped submissions; the span is empty on
  /// failure statuses.
  using GroupedCompletion =
      std::function<void(Status, std::span<const BatchHealth>)>;

  /// Binds to `engine` (non-owning) and starts the first dispatcher.
  /// The engine must outlive this Server (enforced: ~Engine aborts while
  /// servers are attached).
  explicit Server(Engine& engine, ServeConfig config = {});
  ~Server(); ///< stop(): cancels queued work, joins the dispatchers

  /// Upper bound on ServeConfig::dispatchers.
  static constexpr std::size_t kMaxDispatchers = 64;

  /// How long an idle dispatcher spins, watching for a submission,
  /// before it parks on its condition variable (DESIGN.md section 12.5).
  /// At most one dispatcher spins at a time.
  /// Set near the measured park-plus-wake cost: a condition-variable
  /// ping-pong round trip (two park-and-wake hand-offs) takes 16 us on
  /// a 4-vCPU x86-64 VM. A request arriving within that time of the
  /// previous one is picked up without a futex wake. Hosts with one CPU
  /// never spin: the submitter could not run while the dispatcher did.
  static constexpr std::chrono::microseconds kDispatchSpin{20};

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Queue C = alpha * op_a(A) * op_b(B) + beta * C over the batch.
  /// Buffers are borrowed until the future resolves.
  template <class T>
  std::future<BatchHealth>
  submit_gemm(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
              const CompactBuffer<T>& b, T beta, CompactBuffer<T>& c,
              SubmitOptions opts = {}, Completion on_complete = nullptr);

  /// Queue op_a(A) X = alpha B (Left) or X op_a(A) = alpha B (Right);
  /// B is overwritten by X.
  template <class T>
  std::future<BatchHealth>
  submit_trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
              const CompactBuffer<T>& a, CompactBuffer<T>& b,
              SubmitOptions opts = {}, Completion on_complete = nullptr);

  /// Queue a pre-assembled grouped call (segments copied; buffers
  /// borrowed). Dispatched as-is -- grouped submissions do not coalesce
  /// with other requests, their segments already amortise the call.
  template <class T>
  std::future<std::vector<BatchHealth>>
  submit_grouped(std::span<const sched::GemmSegment<T>> segments,
                 SubmitOptions opts = {},
                 GroupedCompletion on_complete = nullptr);
  template <class T>
  std::future<std::vector<BatchHealth>>
  submit_grouped(std::span<const sched::TrsmSegment<T>> segments,
                 SubmitOptions opts = {},
                 GroupedCompletion on_complete = nullptr);

  /// Weighted-fair share for `tenant` (>= 1; default 1). Takes effect
  /// from the next dispatch decision.
  void set_tenant_weight(TenantId tenant, std::uint32_t weight);

  /// Swap the queue-full policy at runtime (applies to new submissions).
  void set_overload_policy(resilience::OverloadPolicy policy);

  /// Enable (grace > 0) or disable (grace == 0) watchdog supervision at
  /// runtime. Starts the supervisor thread on first enable; disabling
  /// leaves the thread idle (dispatches are simply no longer
  /// registered). See ServeConfig::watchdog_grace / watchdog_floor.
  void set_watchdog(double grace, std::chrono::nanoseconds floor =
                                      std::chrono::nanoseconds{0});

  /// Operational freeze: pause() stops dispatching (submissions still
  /// queue, bounded as usual); resume() restarts. drain()/stop()
  /// override a pause -- a paused server still drains to completion.
  void pause();
  void resume();

  /// Refuse new submissions and complete everything queued and in
  /// flight; returns once the server is idle and the dispatcher has
  /// exited. Terminal and idempotent; safe to race with stop().
  void drain();

  /// Refuse new submissions, complete in-flight work, and cancel every
  /// still-queued request with CancelledError. Terminal, idempotent,
  /// safe to call concurrently and from multiple threads.
  void stop();

  /// True while submissions are accepted (before drain()/stop()).
  bool accepting() const;

  ServerStats stats() const;
  Engine& engine() noexcept { return engine_; }

private:
  struct Tenant {
    /// Pushed by submitters, popped by dispatchers: its chunks recycle.
    std::deque<std::unique_ptr<detail::Request>,
               recycler::Allocator<std::unique_ptr<detail::Request>>>
        q;
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t shed_expired = 0;
    std::uint64_t shed_overflow = 0;
    std::uint64_t cancelled = 0;
  };
  enum class Phase : std::uint8_t { Running, Draining, Stopping };
  using Batch = std::vector<std::unique_ptr<detail::Request>>;
  struct RoundBuffers; ///< one dispatcher thread's reusable vectors

  /// A dispatch executing with mu_ released, registered -- only while
  /// the watchdog is enabled -- so the supervisor can reclaim it if its
  /// dispatcher wedges. The batch is shared between the executing
  /// dispatcher and this registration; the per-request settled flag
  /// makes resolution exactly-once regardless of which side gets there
  /// first.
  struct InflightDispatch {
    std::shared_ptr<const Batch> batch;
    std::chrono::steady_clock::time_point stall_at{};
  };
  /// One dispatcher slot. The watchdog replaces a wedged slot's thread
  /// and bumps its epoch; a thread whose epoch no longer matches was
  /// retired and exits without touching the queue or the accounting.
  struct Dispatcher {
    std::thread thread;
    std::uint64_t epoch = 0;
    InflightDispatch inflight;
    std::condition_variable cv; ///< its thread parks here
    bool woken = false;         ///< picked by claim_wake (under mu_)
  };

  void enqueue(std::unique_ptr<detail::Request> r,
               const SubmitOptions& opts);
  /// mu_ held: the locked submit, for a request the ingress did not
  /// take (no room, a quota, an injected `fault`, or closed). Queues `r`
  /// and returns true, or resolves it and returns false.
  bool enqueue_locked(std::unique_lock<std::mutex>& lk,
                      std::unique_ptr<detail::Request> r,
                      const std::exception_ptr& fault);
  /// Reserve one slot of the shared bound on admitted_; returns the
  /// admitted count with it, or 0 when the bound is reached.
  std::size_t reserve_slot() noexcept;
  /// The lock-free submit: reserve a slot and push `r` onto the ingress.
  /// Returns the admitted count (the ingress owns `r` now), or 0 with
  /// `r` untouched when the submit must take the locked path.
  std::size_t push_ingress(detail::Request* r) noexcept;
  /// The wake rule: true when `pending` requests outnumber the
  /// dispatchers sure to look at the queue soon without a wake, so one
  /// must be woken or started. A lock-free `submitter` calls it after
  /// its push, with its admitted count, and takes mu_ when it is true;
  /// claim_wake calls it under mu_ with queued_. A `submitter` also
  /// leaves the queue to a dispatch picked less than kDispatchSpin ago.
  bool must_wake(std::size_t pending, bool submitter) const noexcept;
  /// mu_ held: move the ingress into the tenant queues in submission
  /// order; with `close`, leave it closed to pushes for good.
  void splice_ingress(bool close = false);
  /// mu_ held: append an admitted request to its tenant's queue.
  void queue_request(std::unique_ptr<detail::Request> r, Tenant& t);
  /// Main loop of dispatcher `slot`, generation `epoch`.
  void run_dispatcher(std::size_t slot, std::uint64_t epoch);
  /// One dequeue -> coalesce -> execute -> publish round. `lk` is held
  /// on entry and exit, released around the engine call and the
  /// resolutions.
  void dispatch_round(std::unique_lock<std::mutex>& lk, std::size_t slot,
                      std::uint64_t epoch, RoundBuffers& bufs);
  void execute_batch(std::span<const std::unique_ptr<detail::Request>>
                         batch) noexcept;
  void cancel_queued(std::unique_lock<std::mutex>& lk);
  /// mu_ held, called after the queue grew or a pick left work queued.
  /// Unless paused, if must_wake(queued_, submitter) holds, pick the
  /// most recently parked dispatcher (returned; the caller notifies its
  /// cv after unlocking), or else start the next follower thread if any
  /// is left; either way it raises awake_ for that dispatcher.
  Dispatcher* claim_wake(bool submitter = false);
  /// mu_ held: notify every parked dispatcher of a lifecycle change
  /// (never the per-request path). A spinner sees the closed ingress.
  void wake_dispatchers();
  void join_dispatchers();
  Tenant& tenant_for(TenantId id); ///< mu_ held

  /// Supervisor loop: polls every dispatcher's registered dispatch and
  /// reclaims one once past its stall deadline.
  void run_watchdog();
  /// Reclaim dispatcher `slot`'s registered dispatch: retire its thread,
  /// spawn a replacement, fail the batch with WatchdogError and trip the
  /// class breaker. `lk` held on entry/exit, released around the
  /// resolutions.
  void reclaim_inflight(std::unique_lock<std::mutex>& lk, std::size_t slot);
  void stop_watchdog();

  Engine& engine_;
  ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_; ///< Block submitters wait for space
  std::condition_variable idle_cv_;  ///< drain()/stop() wait for quiesce
  std::unordered_map<TenantId, Tenant> tenants_;
  WeightedPicker picker_;
  Phase phase_ = Phase::Running;
  bool paused_ = false;
  std::size_t queued_ = 0;
  std::size_t inflight_ = 0;       ///< dispatcher-executed requests
  std::size_t inline_running_ = 0; ///< DegradeToRef on submitter threads

  // Leader/follower state (DESIGN.md section 12.5), under mu_ unless
  // atomic.
  const bool spin_ = std::thread::hardware_concurrency() > 1;
  std::size_t spinning_ = 0;    ///< dispatchers spinning (0 or 1)
  /// Parked dispatchers, most recently parked last: a wake goes to the
  /// one whose caches are warmest. Reserved at construction.
  std::vector<Dispatcher*> parked_;
  std::size_t started_ = 0;     ///< slots [0, started_) have a thread
  std::size_t live_ = 0;        ///< started dispatchers not yet exited
  /// Batches inside their engine call now: raised under mu_ at the
  /// pick, lowered by the executing thread as the call returns, before
  /// it publishes.
  std::atomic<std::size_t> dispatching_{0};
  std::size_t peak_dispatching_ = 0;
  /// Pick time of the latest dispatch in steady_clock ticks, until its
  /// dispatcher re-locks (0 then; written under mu_, read by lock-free
  /// submitters too): for one spin bound a submitter leaves the queue
  /// to it.
  std::atomic<std::chrono::steady_clock::rep> fresh_at_{0};

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dispatch_calls_ = 0;
  std::uint64_t coalesced_requests_ = 0;
  std::array<std::uint64_t, ServerStats::kCoalesceBuckets>
      coalesce_hist_{};
  std::uint64_t shed_expired_ = 0;
  std::uint64_t shed_overflow_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t degraded_inline_ = 0;
  std::uint64_t watchdog_kicks_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t locked_submits_ = 0;
  /// Submits may take the lock-free ingress: false when a per-tenant
  /// quota below queue_capacity needs each tenant's exact queue length.
  bool fast_submit_ = true;

  /// Sized once at construction; never resized (threads index it).
  std::vector<Dispatcher> dispatchers_;
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_; ///< wakes the supervisor early
  std::vector<std::thread> zombies_; ///< retired dispatchers to join

  std::mutex join_mu_; ///< serialises dispatcher joins across stop/drain
  std::thread watchdog_;

  /// The lock-free ingress (DESIGN.md section 12.5), last and on a cache
  /// line of its own, so a lock-free submit's three atomics share one
  /// line and share it with no other state:
  ///  * admitted_: requests holding a slot of queue_capacity, queued or
  ///    on the ingress. Raised by every admission, locked or not, and
  ///    lowered under mu_ by the picks and cancellations that take
  ///    requests off the queue. The spinner watches it.
  ///  * ingress_: intrusive stack of pushed requests, newest first,
  ///    linked through Request::next. Taken whole under mu_; the
  ///    closed-ingress sentinel refuses pushes after drain() or stop().
  ///  * awake_: dispatchers not parked. A dispatcher lowers it and then
  ///    re-checks the ingress before it parks; a submitter pushes and
  ///    then reads it. Both sides seq_cst: either the dispatcher sees
  ///    the push, or the submitter sees it parking and takes mu_ to
  ///    wake one. Raised by whoever wakes or starts a dispatcher; a
  ///    watchdog replacement inherits its slot's count. Written only
  ///    under mu_, so claim_wake reads it exactly.
  alignas(64) std::atomic<std::size_t> admitted_{0};
  std::atomic<detail::Request*> ingress_{nullptr};
  std::atomic<std::size_t> awake_{0};
};

} // namespace iatf::serve
