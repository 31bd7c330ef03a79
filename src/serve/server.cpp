// Server implementation: bounded multi-tenant submission queue, one
// dispatcher thread coalescing same-descriptor-class requests into
// grouped engine calls, weighted-fair dequeue, deadline shedding and a
// drain/stop lifecycle. Every queue transition happens under mu_; the
// engine call itself runs with the lock released so submitters and
// lifecycle calls never wait on compute. An idle dispatcher spins
// briefly before it parks, and submitters wake it only when it has
// parked (DESIGN.md section 12.5).
#include "iatf/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <complex>
#include <exception>
#include <utility>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/core/width_dispatch.hpp"

namespace iatf::serve {

namespace detail {

/// One queued request. Derived types carry the typed payload and the
/// promise; the base carries everything the queue and the coalescer
/// need. Resolution invariant: exactly one of resolve-with-value (via
/// run or a coalesced dispatch) or fail() per request, ever -- enforced
/// by claim(), because a watchdog reclamation and a later-un-wedging
/// dispatcher may both try to resolve the same request.
struct Request {
  char kind = 0;  ///< 'g'/'t' single gemm/trsm; 0 grouped (never coalesced)
  char dtype = 0; ///< 's', 'd', 'c', 'z'
  TenantId tenant = 0;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  sched::ClassKey key{}; ///< coalescing identity (single requests only)
  CancelToken cancel;    ///< optional caller-side cancellation flag
  std::atomic<bool> settled{false};

  /// First claimant wins the right to resolve/fail; a loser's resolution
  /// is dropped (its promise write would throw on the settled future).
  bool claim() noexcept { return !settled.exchange(true); }

  virtual ~Request() = default;
  /// Execute alone on `engine` and resolve the promise/callback. Never
  /// throws: engine failures resolve the request with the exception.
  virtual void run(Engine& engine) noexcept = 0;
  /// Resolve with `error` without executing.
  virtual void fail(std::exception_ptr error) noexcept = 0;
  /// Execute `batch` -- same-class requests, this one first -- as one
  /// grouped engine call and resolve each. A dispatch-level failure
  /// throws so the caller can retry each request alone. Only coalescable
  /// requests are ever batched.
  virtual void run_coalesced(
      Engine& engine, const std::vector<std::shared_ptr<Request>>& batch) {
    for (const auto& r : batch) {
      r->run(engine);
    }
  }
  /// Watchdog reclaim: force this request's descriptor class Open.
  /// Grouped submissions span many classes; there is no one class to
  /// blame, so by default nothing trips.
  virtual void trip(Engine&) {}

  bool coalescable() const noexcept { return kind != 0; }
  bool expired(std::chrono::steady_clock::time_point now) const noexcept {
    return has_deadline && now >= deadline;
  }
  bool cancelled() const noexcept {
    return cancel && cancel->load(std::memory_order_relaxed);
  }
  bool same_class(const Request& other) const noexcept {
    return kind == other.kind && dtype == other.dtype && key == other.key;
  }
};

namespace {

/// Invoke a completion callback, swallowing anything it throws (the
/// contract says callbacks must not throw; a throwing callback must not
/// kill the dispatcher or leave the future unresolved).
template <class Cb, class... Args>
void notify(const Cb& cb, Args&&... args) noexcept {
  if (!cb) {
    return;
  }
  try {
    cb(std::forward<Args>(args)...);
  } catch (...) {
  }
}

/// Per-segment-type facts of the request templates below: the written
/// operand (whose pack width selects the kernel class) and the engine
/// entry points. The descriptor and its coalescing key come from
/// sched::shape_of / sched::class_key, the engine's own plan identity.
template <class Segment> struct SegmentOps;

template <class T> struct SegmentOps<sched::GemmSegment<T>> {
  using value_type = T;
  using Segment = sched::GemmSegment<T>;
  using Shape = GemmShape;
  static const CompactBuffer<T>* out(const Segment& s) { return s.c; }
  template <int Bytes> static BatchHealth call(Engine& e, const Segment& s) {
    return e.gemm<T, Bytes>(s.op_a, s.op_b, s.alpha, *s.a, *s.b, s.beta,
                            *s.c);
  }
  template <int Bytes>
  static std::vector<BatchHealth> grouped(Engine& e,
                                          std::span<const Segment> segs) {
    return e.gemm_grouped<T, Bytes>(segs);
  }
  template <int Bytes> static void trip(Engine& e, const GemmShape& s) {
    e.trip_gemm_class<T, Bytes>(s, /*cooldown_calls=*/-1);
  }
};

template <class T> struct SegmentOps<sched::TrsmSegment<T>> {
  using value_type = T;
  using Segment = sched::TrsmSegment<T>;
  using Shape = TrsmShape;
  static const CompactBuffer<T>* out(const Segment& s) { return s.b; }
  template <int Bytes> static BatchHealth call(Engine& e, const Segment& s) {
    return e.trsm<T, Bytes>(s.side, s.uplo, s.op_a, s.diag, s.alpha, *s.a,
                            *s.b);
  }
  template <int Bytes>
  static std::vector<BatchHealth> grouped(Engine& e,
                                          std::span<const Segment> segs) {
    return e.trsm_grouped<T, Bytes>(segs);
  }
  template <int Bytes> static void trip(Engine& e, const TrsmShape& s) {
    e.trip_trsm_class<T, Bytes>(s, /*cooldown_calls=*/-1);
  }
};

/// A request resolving to `Result` through a promise and an optional
/// completion callback.
template <class Result, class Callback> struct TypedRequest : Request {
  std::promise<Result> promise;
  Callback cb;

  void resolve(Result result) noexcept {
    if (!claim()) {
      return;
    }
    notify(cb, Status::Ok, result);
    promise.set_value(std::move(result));
  }
  void fail(std::exception_ptr error) noexcept override {
    if (!claim()) {
      return;
    }
    notify(cb, iatf::status_of(error), Result{});
    promise.set_exception(std::move(error));
  }
};

/// One GEMM or TRSM submission; coalescable with same-class mates.
template <class Segment>
struct SingleRequest final : TypedRequest<BatchHealth, Server::Completion> {
  using Ops = SegmentOps<Segment>;
  using T = typename Ops::value_type;
  Segment seg{};
  /// Captured at submit: the watchdog trips the class after the request
  /// has been failed, without touching the caller's buffers.
  typename Ops::Shape shape{};

  explicit SingleRequest(const Segment& s)
      : seg(s), shape(sched::shape_of(s)) {
    key = sched::class_key(shape);
    // The register width is part of the class: requests whose buffers
    // belong to different ISA backends never coalesce.
    key.bytes = static_cast<int>(Ops::out(seg)->pack_width() *
                                 static_cast<index_t>(sizeof(real_t<T>)));
    kind = key.op;
    dtype = blas_prefix_v<T>[0];
  }

  void run(Engine& engine) noexcept override {
    try {
      resolve(dispatch_width<T>(Ops::out(seg)->pack_width(), [&](auto b) {
        return Ops::template call<decltype(b)::value>(engine, seg);
      }));
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void run_coalesced(
      Engine& engine,
      const std::vector<std::shared_ptr<Request>>& batch) override {
    std::vector<Segment> segs;
    segs.reserve(batch.size());
    for (const auto& r : batch) {
      segs.push_back(static_cast<const SingleRequest*>(r.get())->seg);
    }
    const std::vector<BatchHealth> healths =
        dispatch_width<T>(Ops::out(seg)->pack_width(), [&](auto b) {
          return Ops::template grouped<decltype(b)::value>(
              engine, std::span<const Segment>(segs));
        });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      static_cast<SingleRequest*>(batch[i].get())->resolve(healths[i]);
    }
  }

  void trip(Engine& engine) override {
    // Trip the breaker slot of the exact (dtype, width) kernel class
    // that wedged; an unknown width falls back to the 128-bit class.
    switch (key.bytes) {
    case 32:
      Ops::template trip<32>(engine, shape);
      break;
    case 64:
      Ops::template trip<64>(engine, shape);
      break;
    default:
      Ops::template trip<16>(engine, shape);
      break;
    }
  }
};

/// One grouped GEMM or TRSM submission: dispatched whole, never
/// coalesced.
template <class Segment>
struct GroupedRequest final
    : TypedRequest<std::vector<BatchHealth>, Server::GroupedCompletion> {
  using Ops = SegmentOps<Segment>;
  using T = typename Ops::value_type;
  std::vector<Segment> segs;

  explicit GroupedRequest(std::span<const Segment> s)
      : segs(s.begin(), s.end()) {
    dtype = blas_prefix_v<T>[0];
  }

  void run(Engine& engine) noexcept override {
    try {
      const CompactBuffer<T>* out =
          segs.empty() ? nullptr : Ops::out(segs.front());
      const index_t pw =
          out != nullptr ? out->pack_width() : simd::pack_width_v<T>;
      resolve(dispatch_width<T>(pw, [&](auto b) {
        return Ops::template grouped<decltype(b)::value>(
            engine, std::span<const Segment>(segs));
      }));
    } catch (...) {
      fail(std::current_exception());
    }
  }
};

} // namespace
} // namespace detail

// --- WeightedPicker ----------------------------------------------------

WeightedPicker::State& WeightedPicker::state_for(TenantId tenant) {
  return states_[tenant]; // default: pass 0, weight 1
}

void WeightedPicker::set_weight(TenantId tenant, std::uint32_t weight) {
  state_for(tenant).weight = std::max<std::uint32_t>(1, weight);
}

std::uint32_t WeightedPicker::weight(TenantId tenant) const {
  const auto it = states_.find(tenant);
  return it == states_.end() ? 1 : it->second.weight;
}

void WeightedPicker::activate(TenantId tenant) {
  State& s = state_for(tenant);
  s.pass = std::max(s.pass, vtime_);
}

TenantId WeightedPicker::pick(std::span<const TenantId> runnable) const {
  TenantId best = runnable.front();
  std::uint64_t best_pass = ~std::uint64_t{0};
  for (const TenantId t : runnable) {
    const auto it = states_.find(t);
    const std::uint64_t pass = it == states_.end() ? 0 : it->second.pass;
    if (pass < best_pass || (pass == best_pass && t < best)) {
      best = t;
      best_pass = pass;
    }
  }
  return best;
}

void WeightedPicker::charge(TenantId tenant) {
  State& s = state_for(tenant);
  vtime_ = std::max(vtime_, s.pass);
  s.pass += kScale / s.weight;
}

// --- Server ------------------------------------------------------------

Server::Server(Engine& engine, ServeConfig config)
    : engine_(engine), config_(config) {
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_coalesce = std::max<std::size_t>(1, config_.max_coalesce);
  if (config_.per_tenant_quota > config_.queue_capacity) {
    config_.per_tenant_quota = config_.queue_capacity;
  }
  if (config_.watchdog_grace < 0) {
    config_.watchdog_grace = 0;
  }
  if (config_.watchdog_floor.count() <= 0) {
    config_.watchdog_floor = std::chrono::nanoseconds{1'000'000'000};
  }
  if (config_.watchdog_poll.count() <= 0) {
    config_.watchdog_poll = std::chrono::nanoseconds{10'000'000};
  }
  engine_.attach_server();
  dispatcher_ = std::thread([this] { run_dispatcher(0); });
  if (config_.watchdog_grace > 0) {
    watchdog_ = std::thread([this] { run_watchdog(); });
  }
}

Server::~Server() {
  stop();
  stop_watchdog();
  engine_.detach_server();
}

Server::Tenant& Server::tenant_for(TenantId id) { return tenants_[id]; }

void Server::set_tenant_weight(TenantId tenant, std::uint32_t weight) {
  std::lock_guard<std::mutex> lk(mu_);
  (void)tenant_for(tenant);
  picker_.set_weight(tenant, weight);
}

void Server::set_overload_policy(resilience::OverloadPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  config_.overload = policy;
  // A relaxed policy can unblock waiting submitters (they re-evaluate
  // and apply the new policy to their still-unqueued request).
  space_cv_.notify_all();
}

void Server::set_watchdog(double grace, std::chrono::nanoseconds floor) {
  std::lock_guard<std::mutex> lk(mu_);
  config_.watchdog_grace = grace > 0 ? grace : 0.0;
  if (floor.count() > 0) {
    config_.watchdog_floor = floor;
  }
  if (config_.watchdog_grace > 0 && !watchdog_.joinable() &&
      !watchdog_stop_) {
    watchdog_ = std::thread([this] { run_watchdog(); });
  }
  watchdog_cv_.notify_all();
}

void Server::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void Server::resume() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = false;
  wake_dispatcher();
}

void Server::wake_dispatcher() {
  work_seq_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();
}

bool Server::accepting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return phase_ == Phase::Running;
}

void Server::drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (phase_ == Phase::Running) {
      phase_ = Phase::Draining;
    }
    wake_dispatcher();
    space_cv_.notify_all();
    idle_cv_.wait(lk, [&] {
      return dispatcher_done_ && inline_running_ == 0;
    });
  }
  join_dispatcher();
}

void Server::stop() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    phase_ = Phase::Stopping;
    wake_dispatcher();
    space_cv_.notify_all();
    idle_cv_.wait(lk, [&] {
      return dispatcher_done_ && inline_running_ == 0;
    });
    // The dispatcher cancels the queue on its way out, but it may have
    // exited earlier via a completed drain(); cancel any remainder (a
    // drain leaves none, this is belt-and-braces for racing lifecycles).
    if (queued_ != 0) {
      cancel_queued(lk);
    }
  }
  join_dispatcher();
}

void Server::join_dispatcher() {
  // Watchdog-retired dispatchers first: they are parked under mu_, and
  // by the time a caller reaches here the live dispatcher has exited
  // (dispatcher_done_ observed under mu_), so no further retirements can
  // race this swap. A retired thread may still be sleeping inside a
  // stalled engine call; joining waits it out (a genuinely hung kernel
  // would block stop() here -- the documented limitation).
  std::vector<std::thread> retired;
  {
    std::lock_guard<std::mutex> lk(mu_);
    retired.swap(zombies_);
  }
  for (std::thread& t : retired) {
    if (t.joinable()) {
      t.join();
    }
  }
  std::lock_guard<std::mutex> lk(join_mu_);
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
}

void Server::stop_watchdog() {
  std::thread w;
  {
    std::lock_guard<std::mutex> lk(mu_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
    w = std::move(watchdog_);
  }
  if (w.joinable()) {
    w.join();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServerStats out;
  out.queued = queued_;
  out.queue_capacity = config_.queue_capacity;
  out.inflight = inflight_ + inline_running_;
  out.submitted = submitted_;
  out.completed = completed_;
  out.dispatch_calls = dispatch_calls_;
  out.coalesced_requests = coalesced_requests_;
  out.coalesce_hist = coalesce_hist_;
  out.shed_expired = shed_expired_;
  out.shed_overflow = shed_overflow_;
  out.cancelled = cancelled_;
  out.degraded_inline = degraded_inline_;
  out.watchdog_kicks = watchdog_kicks_;
  out.heartbeats = heartbeats_;
  out.tenants.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) {
    TenantStats ts;
    ts.tenant = id;
    ts.weight = picker_.weight(id);
    ts.submitted = t.submitted;
    ts.served = t.served;
    ts.shed_expired = t.shed_expired;
    ts.shed_overflow = t.shed_overflow;
    ts.cancelled = t.cancelled;
    out.tenants.push_back(ts);
  }
  std::sort(out.tenants.begin(), out.tenants.end(),
            [](const TenantStats& a, const TenantStats& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

// --- Submission --------------------------------------------------------

void Server::enqueue(std::unique_ptr<detail::Request> r,
                     const SubmitOptions& opts) {
  r->tenant = opts.tenant;
  r->cancel = opts.cancel;
  const auto budget =
      opts.deadline.count() > 0 ? opts.deadline : config_.default_deadline;
  if (budget.count() > 0) {
    r->has_deadline = true;
    r->deadline = std::chrono::steady_clock::now() + budget;
  }

  std::unique_lock<std::mutex> lk(mu_);
  ++submitted_;
  Tenant& t = tenant_for(r->tenant);
  ++t.submitted;

  try {
    IATF_FAULT_POINT("serve.enqueue", Status::AllocFailure);
  } catch (...) {
    const auto error = std::current_exception();
    lk.unlock();
    r->fail(error);
    return;
  }

  const std::size_t quota = config_.per_tenant_quota != 0
                                ? config_.per_tenant_quota
                                : config_.queue_capacity;
  for (;;) {
    if (phase_ != Phase::Running) {
      ++cancelled_;
      ++t.cancelled;
      lk.unlock();
      r->fail(std::make_exception_ptr(CancelledError(
          "iatf: submission refused: server is draining or stopped")));
      return;
    }
    if (queued_ < config_.queue_capacity && t.q.size() < quota) {
      break; // space available
    }
    switch (config_.overload) {
    case resilience::OverloadPolicy::ShedNewest: {
      ++shed_overflow_;
      ++t.shed_overflow;
      const std::size_t queued = queued_;
      lk.unlock();
      r->fail(std::make_exception_ptr(
          OverloadError(queued, config_.queue_capacity)));
      return;
    }
    case resilience::OverloadPolicy::DegradeToRef: {
      // No queue space: serve the request synchronously on the
      // submitting thread (the engine's own admission control and
      // policies still apply). The queue stays bounded and the caller
      // pays the cost, exactly the DegradeToRef admission idea.
      ++degraded_inline_;
      ++inline_running_;
      lk.unlock();
      r->run(engine_);
      lk.lock();
      --inline_running_;
      ++completed_;
      idle_cv_.notify_all();
      return;
    }
    case resilience::OverloadPolicy::Block: {
      const auto has_space = [&] {
        return phase_ != Phase::Running ||
               (queued_ < config_.queue_capacity && t.q.size() < quota) ||
               config_.overload != resilience::OverloadPolicy::Block;
      };
      if (r->has_deadline) {
        if (!space_cv_.wait_until(lk, r->deadline, has_space)) {
          // Still full at the request's own deadline: the wait consumed
          // the whole budget, so this is a timeout, not an overload.
          ++shed_expired_;
          ++t.shed_expired;
          lk.unlock();
          r->fail(std::make_exception_ptr(TimeoutError(0, 1)));
          return;
        }
      } else {
        space_cv_.wait(lk, has_space);
      }
      continue; // re-evaluate phase/space/policy
    }
    }
  }

  if (t.q.empty()) {
    picker_.activate(r->tenant);
  }
  t.q.push_back(std::move(r));
  ++queued_;
  // Read under mu_: a dispatcher that has not parked yet re-checks the
  // queue under mu_ before it parks, so it sees this request; one that
  // has parked set the flag first. Bump and notify after unlocking, so
  // neither a spinning nor a woken dispatcher finds mu_ still held.
  const bool parked = dispatcher_parked_;
  lk.unlock();
  work_seq_.fetch_add(1, std::memory_order_relaxed);
  if (parked) {
    work_cv_.notify_one();
  }
}

template <class T>
std::future<BatchHealth>
Server::submit_gemm(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
                    const CompactBuffer<T>& b, T beta, CompactBuffer<T>& c,
                    SubmitOptions opts, Completion on_complete) {
  auto r = std::make_unique<detail::SingleRequest<sched::GemmSegment<T>>>(
      sched::GemmSegment<T>{op_a, op_b, alpha, beta, &a, &b, &c});
  r->cb = std::move(on_complete);
  std::future<BatchHealth> fut = r->promise.get_future();
  enqueue(std::move(r), opts);
  return fut;
}

template <class T>
std::future<BatchHealth>
Server::submit_trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                    const CompactBuffer<T>& a, CompactBuffer<T>& b,
                    SubmitOptions opts, Completion on_complete) {
  auto r = std::make_unique<detail::SingleRequest<sched::TrsmSegment<T>>>(
      sched::TrsmSegment<T>{side, uplo, op_a, diag, alpha, &a, &b});
  r->cb = std::move(on_complete);
  std::future<BatchHealth> fut = r->promise.get_future();
  enqueue(std::move(r), opts);
  return fut;
}

template <class T>
std::future<std::vector<BatchHealth>>
Server::submit_grouped(std::span<const sched::GemmSegment<T>> segments,
                       SubmitOptions opts, GroupedCompletion on_complete) {
  auto r = std::make_unique<
      detail::GroupedRequest<sched::GemmSegment<T>>>(segments);
  r->cb = std::move(on_complete);
  std::future<std::vector<BatchHealth>> fut = r->promise.get_future();
  enqueue(std::move(r), opts);
  return fut;
}

template <class T>
std::future<std::vector<BatchHealth>>
Server::submit_grouped(std::span<const sched::TrsmSegment<T>> segments,
                       SubmitOptions opts, GroupedCompletion on_complete) {
  auto r = std::make_unique<
      detail::GroupedRequest<sched::TrsmSegment<T>>>(segments);
  r->cb = std::move(on_complete);
  std::future<std::vector<BatchHealth>> fut = r->promise.get_future();
  enqueue(std::move(r), opts);
  return fut;
}

// --- Dispatcher --------------------------------------------------------

namespace {

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

} // namespace

void Server::run_dispatcher(std::uint64_t epoch) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto ready = [&] {
    if (epoch != dispatcher_epoch_ || phase_ != Phase::Running) {
      return true; // retired / draining ignores pause; stopping cancels
    }
    return !paused_ && queued_ > 0;
  };
  for (;;) {
    if (!ready()) {
      // Spin, then park: watch work_seq_ for up to kDispatchSpin with
      // mu_ released, then re-check under mu_ and park only if there is
      // still nothing to do. A paused server has nothing to spin for.
      if (dispatcher_spins_ && !paused_) {
        const std::uint64_t seen = work_seq_.load(std::memory_order_relaxed);
        lk.unlock();
        const auto until = std::chrono::steady_clock::now() + kDispatchSpin;
        while (work_seq_.load(std::memory_order_relaxed) == seen &&
               std::chrono::steady_clock::now() < until) {
          cpu_relax();
        }
        lk.lock();
      }
      dispatcher_parked_ = true;
      work_cv_.wait(lk, ready);
      dispatcher_parked_ = false;
    }
    if (epoch != dispatcher_epoch_) {
      return; // retired by the watchdog: a successor owns the queue now
    }
    if (phase_ == Phase::Stopping) {
      cancel_queued(lk);
      break;
    }
    if (queued_ == 0) {
      if (phase_ == Phase::Draining) {
        break;
      }
      continue;
    }
    dispatch_round(lk, epoch);
    if (epoch != dispatcher_epoch_) {
      return; // reclaimed mid-round: the watchdog did the accounting
    }
  }
  dispatcher_done_ = true;
  idle_cv_.notify_all();
}

void Server::dispatch_round(std::unique_lock<std::mutex>& lk,
                            std::uint64_t epoch) {
  const auto now = std::chrono::steady_clock::now();
  ++heartbeats_;

  // Weighted-fair head: smallest stride pass among non-empty tenants.
  std::vector<TenantId> runnable;
  runnable.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) {
    if (!t.q.empty()) {
      runnable.push_back(id);
    }
  }
  Tenant& head_tenant = tenants_[picker_.pick(runnable)];
  std::unique_ptr<detail::Request> head =
      std::move(head_tenant.q.front());
  head_tenant.q.pop_front();
  --queued_;
  picker_.charge(head->tenant);
  space_cv_.notify_all();

  // Cancellation: a flagged token (client disconnect, explicit cancel)
  // resolves the request here, before it costs engine time. Checked at
  // dequeue only -- a request already inside a dispatch runs to
  // completion, and its coalesce-mates are never disturbed.
  if (head->cancelled()) {
    ++cancelled_;
    ++head_tenant.cancelled;
    auto dead = std::move(head);
    lk.unlock();
    dead->fail(std::make_exception_ptr(
        CancelledError("iatf: request cancelled by caller")));
    lk.lock();
    return;
  }

  // Deadline propagation: queue time counts against the request budget;
  // an expired request is resolved here and never reaches the engine.
  if (head->expired(now)) {
    ++shed_expired_;
    ++head_tenant.shed_expired;
    auto dead = std::move(head);
    lk.unlock();
    dead->fail(std::make_exception_ptr(TimeoutError(0, 1)));
    lk.lock();
    return;
  }

  // Coalesce: pull same-class single requests from every tenant queue
  // (FIFO within each tenant, any position across classes -- requests
  // are independent, so cross-class reordering is unobservable).
  std::vector<std::shared_ptr<detail::Request>> batch;
  std::vector<std::unique_ptr<detail::Request>> expired;
  std::vector<std::unique_ptr<detail::Request>> cancelled;
  batch.push_back(std::shared_ptr<detail::Request>(std::move(head)));
  if (batch.front()->coalescable() && config_.max_coalesce > 1) {
    try {
      for (auto& [id, t] : tenants_) {
        if (batch.size() >= config_.max_coalesce) {
          break;
        }
        for (auto it = t.q.begin();
             it != t.q.end() && batch.size() < config_.max_coalesce;) {
          IATF_FAULT_POINT("serve.coalesce", Status::Internal);
          if (!(*it)->same_class(*batch.front())) {
            ++it;
            continue;
          }
          std::unique_ptr<detail::Request> mate = std::move(*it);
          it = t.q.erase(it);
          --queued_;
          picker_.charge(mate->tenant);
          if (mate->cancelled()) {
            ++cancelled_;
            ++t.cancelled;
            cancelled.push_back(std::move(mate));
          } else if (mate->expired(now)) {
            ++shed_expired_;
            ++t.shed_expired;
            expired.push_back(std::move(mate));
          } else {
            ++t.served;
            batch.push_back(
                std::shared_ptr<detail::Request>(std::move(mate)));
          }
        }
      }
    } catch (const fault::FaultInjected&) {
      // Injected coalescing failure: dispatch what was collected so far
      // (worst case the head alone). Never fails a request.
    }
    space_cv_.notify_all();
  }
  ++head_tenant.served;

  ++dispatch_calls_;
  std::size_t bucket = ServerStats::kCoalesceBuckets - 1;
  if (batch.size() <= 1) {
    bucket = 0;
  } else if (batch.size() == 2) {
    bucket = 1;
  } else if (batch.size() <= 4) {
    bucket = 2;
  } else if (batch.size() <= 8) {
    bucket = 3;
  }
  ++coalesce_hist_[bucket];
  if (batch.size() >= 2) {
    coalesced_requests_ += batch.size();
  }
  inflight_ += batch.size();
  const std::size_t executed = batch.size();

  // Register the dispatch for the watchdog before releasing the lock:
  // if this thread wedges inside the engine call, the supervisor fails
  // the batch, respawns the dispatcher and does the accounting below.
  if (config_.watchdog_grace > 0) {
    auto budget = config_.watchdog_floor;
    if (batch.front()->has_deadline &&
        batch.front()->deadline - now > budget) {
      budget = batch.front()->deadline - now;
    }
    const auto stall = std::chrono::nanoseconds(static_cast<std::int64_t>(
        config_.watchdog_grace * static_cast<double>(budget.count())));
    inflight_dispatch_.batch = batch;
    inflight_dispatch_.stall_at =
        now + std::max(stall, std::chrono::nanoseconds{1});
    inflight_dispatch_.active = true;
  }

  lk.unlock();
  for (auto& dead : expired) {
    dead->fail(std::make_exception_ptr(TimeoutError(0, 1)));
  }
  for (auto& dead : cancelled) {
    dead->fail(std::make_exception_ptr(
        CancelledError("iatf: request cancelled by caller")));
  }
  execute_batch(std::move(batch));
  lk.lock();
  if (epoch != dispatcher_epoch_) {
    return; // reclaimed by the watchdog while executing
  }
  inflight_dispatch_.active = false;
  inflight_dispatch_.batch.clear();
  inflight_ -= executed;
  completed_ += executed;
}

void Server::execute_batch(
    std::vector<std::shared_ptr<detail::Request>> batch) noexcept {
  // Wedged-dispatcher fault for the watchdog tests: long enough that
  // the supervisor (polling every watchdog_poll) reliably reclaims the
  // batch first, even under sanitizer scheduling.
  fault::stall_if_armed("watchdog.stall", 500);
  try {
    IATF_FAULT_POINT("serve.dispatch", Status::Internal);
    if (batch.size() == 1) {
      batch.front()->run(engine_); // resolves internally, never throws
      return;
    }
    batch.front()->run_coalesced(engine_, batch);
  } catch (...) {
    // A dispatch-level failure (injected fault, grouped-call rejection)
    // must not take the coalesce-mates down with the culprit: retry each
    // request alone so exactly the bad one fails. A single request just
    // absorbs the error.
    const auto error = std::current_exception();
    if (batch.size() == 1) {
      batch.front()->fail(error);
      return;
    }
    for (auto& r : batch) {
      r->run(engine_);
    }
  }
}

// --- Watchdog ----------------------------------------------------------

void Server::run_watchdog() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    watchdog_cv_.wait_for(lk, config_.watchdog_poll,
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) {
      return;
    }
    if (!inflight_dispatch_.active ||
        std::chrono::steady_clock::now() < inflight_dispatch_.stall_at) {
      continue;
    }
    reclaim_inflight(lk);
  }
}

void Server::reclaim_inflight(std::unique_lock<std::mutex>& lk) {
  ++watchdog_kicks_;
  std::vector<std::shared_ptr<detail::Request>> batch =
      std::move(inflight_dispatch_.batch);
  inflight_dispatch_.batch.clear();
  inflight_dispatch_.active = false;

  // Retire the wedged dispatcher: bump the generation so it exits
  // without touching shared state when (if) it un-wedges, park its
  // thread for joining at stop()/drain(), and spawn a replacement so
  // queued work keeps moving. Safe against join_dispatcher(): joins
  // only happen after dispatcher_done_ is observed under mu_, and a
  // dispatcher that is mid-dispatch (the only state we reclaim from)
  // has not set it.
  ++dispatcher_epoch_;
  const std::uint64_t epoch = dispatcher_epoch_;
  zombies_.push_back(std::move(dispatcher_));
  dispatcher_ = std::thread([this, epoch] { run_dispatcher(epoch); });

  // The accounting the retired dispatcher will no longer do.
  inflight_ -= batch.size();
  completed_ += batch.size();

  lk.unlock();
  // Trip before failing: a caller that observes the WatchdogError must
  // already see its class Open.
  batch.front()->trip(engine_);
  const auto error = std::make_exception_ptr(WatchdogError(
      "iatf: dispatch stalled past the watchdog budget and was "
      "reclaimed; output buffers may be partially written"));
  for (const auto& r : batch) {
    r->fail(error); // claim-gated: a late un-wedged resolution loses
  }
  lk.lock();
}

void Server::cancel_queued(std::unique_lock<std::mutex>& lk) {
  std::vector<std::unique_ptr<detail::Request>> doomed;
  for (auto& [id, t] : tenants_) {
    t.cancelled += t.q.size();
    cancelled_ += t.q.size();
    while (!t.q.empty()) {
      doomed.push_back(std::move(t.q.front()));
      t.q.pop_front();
    }
  }
  queued_ = 0;
  space_cv_.notify_all();
  lk.unlock();
  for (auto& r : doomed) {
    r->fail(std::make_exception_ptr(
        CancelledError("iatf: request cancelled by Server::stop()")));
  }
  lk.lock();
}

// --- Explicit instantiations (s, d, c, z) ------------------------------

#define IATF_SERVE_INSTANTIATE(T)                                           \
  template std::future<BatchHealth> Server::submit_gemm<T>(                 \
      Op, Op, T, const CompactBuffer<T>&, const CompactBuffer<T>&, T,       \
      CompactBuffer<T>&, SubmitOptions, Completion);                        \
  template std::future<BatchHealth> Server::submit_trsm<T>(                 \
      Side, Uplo, Op, Diag, T, const CompactBuffer<T>&, CompactBuffer<T>&,  \
      SubmitOptions, Completion);                                           \
  template std::future<std::vector<BatchHealth>> Server::submit_grouped<T>( \
      std::span<const sched::GemmSegment<T>>, SubmitOptions,                \
      GroupedCompletion);                                                   \
  template std::future<std::vector<BatchHealth>> Server::submit_grouped<T>( \
      std::span<const sched::TrsmSegment<T>>, SubmitOptions,                \
      GroupedCompletion);

IATF_SERVE_INSTANTIATE(float)
IATF_SERVE_INSTANTIATE(double)
IATF_SERVE_INSTANTIATE(std::complex<float>)
IATF_SERVE_INSTANTIATE(std::complex<double>)
#undef IATF_SERVE_INSTANTIATE

} // namespace iatf::serve
