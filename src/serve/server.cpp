// Server implementation: bounded multi-tenant submission queue, a set of
// dispatcher threads coalescing same-descriptor-class requests into
// grouped engine calls, weighted-fair dequeue, deadline shedding and a
// drain/stop lifecycle. A submit with room in the queue pushes onto a
// lock-free ingress; every other queue transition happens under mu_,
// and dispatchers splice the ingress into the tenant queues under mu_
// before each pick. The engine call itself runs with the lock released
// so submitters, lifecycle calls and the other dispatchers never wait
// on compute. At most one idle dispatcher spins, the rest park, and a
// parked one is woken only when pending requests outnumber the awake
// dispatchers outside an engine call: one rule, must_wake, for the
// lock-free submit and for claim_wake under mu_ (DESIGN.md section
// 12.5).
#include "iatf/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <complex>
#include <exception>
#include <system_error>
#include <utility>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/common/recycler.hpp"
#include "iatf/core/width_dispatch.hpp"

namespace iatf::serve {

namespace detail {

/// One queued request. Derived types carry the typed payload and the
/// promise; the base carries everything the queue and the coalescer
/// need. Execution and resolution are separate steps: run() keeps the
/// outcome, publish() hands it to the caller, so a dispatcher leaves
/// dispatching_ -- counting as about to re-check the queue -- before any
/// caller wakes.
/// Resolution invariant: exactly one of publish() or fail() per request
/// takes effect, ever -- enforced by claim(), because a watchdog
/// reclamation and a later-un-wedging dispatcher may both try to
/// resolve the same request. Requests are made on the submitting thread
/// and die on a dispatcher, so their storage comes from the recycler.
struct Request {
  TenantId tenant = 0;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Coalescing identity and breaker class of a single GEMM/TRSM; op 0
  /// for a grouped submission, which is never coalesced.
  sched::ClassKey key{};
  CancelToken cancel;    ///< optional caller-side cancellation flag
  std::exception_ptr error; ///< failed outcome kept by run()
  Request* next = nullptr;  ///< link on the server's ingress stack
  std::atomic<bool> settled{false};

  /// First claimant wins the right to resolve/fail; a loser's resolution
  /// is dropped (its promise write would throw on the settled future).
  bool claim() noexcept { return !settled.exchange(true); }

  static void* operator new(std::size_t bytes) {
    return recycler::allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    recycler::deallocate(p, bytes);
  }

  virtual ~Request() = default;
  /// Execute alone on `engine` and keep the outcome for publish(). Never
  /// throws: an engine failure is kept as the outcome.
  virtual void run(Engine& engine) noexcept = 0;
  /// Resolve the promise/callback with the outcome run() kept.
  virtual void publish() noexcept = 0;
  /// Resolve with `error` now, without executing.
  virtual void fail(std::exception_ptr error) noexcept = 0;
  /// Execute `batch` -- same-class requests, this one first -- as one
  /// grouped engine call and keep each outcome. A dispatch-level failure
  /// throws so the caller can retry each request alone. Only coalescable
  /// requests are ever batched.
  virtual void run_coalesced(
      Engine& engine, std::span<const std::unique_ptr<Request>> batch) {
    for (const auto& r : batch) {
      r->run(engine);
    }
  }
  bool coalescable() const noexcept { return key.op != 0; }
  bool expired(std::chrono::steady_clock::time_point now) const noexcept {
    return has_deadline && now >= deadline;
  }
  bool cancelled() const noexcept {
    return cancel && cancel->load(std::memory_order_relaxed);
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

/// Per-segment-type facts of the request templates below: the engine
/// entry points. The descriptor, its coalescing key and its width come
/// from sched::shape_of / class_key / width_of, the engine's own class
/// identity.
template <class Segment> struct SegmentOps;

template <class T> struct SegmentOps<sched::GemmSegment<T>> {
  using value_type = T;
  using Segment = sched::GemmSegment<T>;
  template <int Bytes> static BatchHealth call(Engine& e, const Segment& s) {
    return e.gemm<T, Bytes>(s.op_a, s.op_b, s.alpha, *s.a, *s.b, s.beta,
                            *s.c);
  }
  template <int Bytes>
  static std::vector<BatchHealth> grouped(Engine& e,
                                          std::span<const Segment> segs) {
    return e.gemm_grouped<T, Bytes>(segs);
  }
};

template <class T> struct SegmentOps<sched::TrsmSegment<T>> {
  using value_type = T;
  using Segment = sched::TrsmSegment<T>;
  template <int Bytes> static BatchHealth call(Engine& e, const Segment& s) {
    return e.trsm<T, Bytes>(s.side, s.uplo, s.op_a, s.diag, s.alpha, *s.a,
                            *s.b);
  }
  template <int Bytes>
  static std::vector<BatchHealth> grouped(Engine& e,
                                          std::span<const Segment> segs) {
    return e.trsm_grouped<T, Bytes>(segs);
  }
};

/// A request resolving to `Result` through a promise and an optional
/// completion callback. The promise's shared state and result recycle
/// too; a caller's future may outlive the server.
template <class Result, class Callback> struct TypedRequest : Request {
  std::promise<Result> promise{std::allocator_arg,
                               recycler::Allocator<Result>{}};
  Callback cb;
  Result result{}; ///< successful outcome kept by run()

  void keep(Result r) noexcept {
    result = std::move(r);
    error = nullptr;
  }
  void publish() noexcept override {
    if (error) {
      fail(std::move(error));
      return;
    }
    if (!claim()) {
      return;
    }
    notify(cb, Status::Ok, result);
    promise.set_value(std::move(result));
  }
  void fail(std::exception_ptr e) noexcept override {
    if (!claim()) {
      return;
    }
    notify(cb, iatf::status_of(e), Result{});
    promise.set_exception(std::move(e));
  }
};

/// One GEMM or TRSM submission; coalescable with same-class mates.
template <class Segment>
struct SingleRequest final : TypedRequest<BatchHealth, Server::Completion> {
  using Ops = SegmentOps<Segment>;
  using T = typename Ops::value_type;
  Segment seg{};

  /// The key is captured at submit: the watchdog trips the class after
  /// the request has been failed, without touching the caller's buffers.
  /// Its width, sched::width_of, is also the kernel class it runs on.
  explicit SingleRequest(const Segment& s) : seg(s) {
    key = sched::class_key<T>(sched::shape_of(s),
                              sched::width_of(std::span<const Segment>(&s, 1)));
  }

  void run(Engine& engine) noexcept override {
    try {
      keep(dispatch_bytes<T>(key.bytes, [&](auto b) {
        return Ops::template call<decltype(b)::value>(engine, seg);
      }));
    } catch (...) {
      error = std::current_exception();
    }
  }

  void run_coalesced(
      Engine& engine,
      std::span<const std::unique_ptr<Request>> batch) override {
    std::vector<Segment> segs;
    segs.reserve(batch.size());
    for (const auto& r : batch) {
      segs.push_back(static_cast<const SingleRequest*>(r.get())->seg);
    }
    const std::vector<BatchHealth> healths =
        dispatch_bytes<T>(key.bytes, [&](auto b) {
          return Ops::template grouped<decltype(b)::value>(
              engine, std::span<const Segment>(segs));
        });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      static_cast<SingleRequest*>(batch[i].get())->keep(healths[i]);
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
  std::vector<Segment, recycler::Allocator<Segment>> segs;

  explicit GroupedRequest(std::span<const Segment> s)
      : segs(s.begin(), s.end()) {}

  void run(Engine& engine) noexcept override {
    try {
      const std::span<const Segment> span(segs);
      keep(dispatch_bytes<T>(sched::width_of(span), [&](auto b) {
        return Ops::template grouped<decltype(b)::value>(engine, span);
      }));
    } catch (...) {
      error = std::current_exception();
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

namespace {

/// One per spare CPU unless configured; clamped to [1, kMaxDispatchers].
std::size_t dispatcher_count(std::size_t configured) {
  if (configured == 0) {
    const unsigned cpus = std::thread::hardware_concurrency();
    configured = cpus > 1 ? cpus - 1 : 1;
  }
  return std::clamp<std::size_t>(configured, 1, Server::kMaxDispatchers);
}

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Marks a closed ingress: pushes fail on it. Never dereferenced.
detail::Request* closed_ingress() noexcept {
  return reinterpret_cast<detail::Request*>(alignof(detail::Request));
}

std::chrono::steady_clock::rep clock_ticks() noexcept {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace

/// One dispatcher thread's reusable vectors: after the first rounds a
/// dispatch allocates nothing while it holds mu_.
struct Server::RoundBuffers {
  std::vector<TenantId> runnable;
  Batch batch;
  Batch expired;
  Batch cancelled;
};

Server::Server(Engine& engine, ServeConfig config)
    : engine_(engine), config_(config),
      dispatchers_(dispatcher_count(config.dispatchers)) {
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  config_.max_coalesce = std::max<std::size_t>(1, config_.max_coalesce);
  config_.dispatchers = dispatchers_.size();
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
  fast_submit_ = config_.per_tenant_quota == 0 ||
                 config_.per_tenant_quota == config_.queue_capacity;
  engine_.attach_server();
  parked_.reserve(dispatchers_.size());
  {
    // Followers start on the first backlog that needs them (claim_wake).
    std::lock_guard<std::mutex> lk(mu_);
    dispatchers_.front().thread =
        std::thread([this] { run_dispatcher(0, 0); });
    started_ = 1;
    live_ = 1;
    awake_.store(1, std::memory_order_relaxed);
  }
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
  splice_ingress();
  paused_ = true;
}

void Server::resume() {
  std::unique_lock<std::mutex> lk(mu_);
  splice_ingress();
  paused_ = false;
  Dispatcher* const wake = claim_wake();
  lk.unlock();
  if (wake != nullptr) {
    wake->cv.notify_one();
  }
}

Server::Dispatcher* Server::claim_wake(bool submitter) {
  if (paused_ || !must_wake(queued_, submitter)) {
    return nullptr;
  }
  if (!parked_.empty()) {
    Dispatcher* const d = parked_.back();
    parked_.pop_back();
    d->woken = true;
    awake_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (phase_ == Phase::Running && started_ < dispatchers_.size()) {
    // Every started dispatcher is busy: start the next follower, which
    // checks the queue as it starts. A failed start leaves the running
    // ones serving; a later claim tries again.
    try {
      const std::size_t slot = started_;
      dispatchers_[slot].thread =
          std::thread([this, slot] { run_dispatcher(slot, 0); });
      ++started_;
      ++live_;
      awake_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::system_error&) {
    }
  }
  return nullptr;
}

void Server::wake_dispatchers() {
  for (Dispatcher& d : dispatchers_) {
    d.cv.notify_all();
  }
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
    splice_ingress(/*close=*/true);
    wake_dispatchers();
    space_cv_.notify_all();
    idle_cv_.wait(lk, [&] { return live_ == 0 && inline_running_ == 0; });
  }
  join_dispatchers();
}

void Server::stop() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    phase_ = Phase::Stopping;
    splice_ingress(/*close=*/true);
    wake_dispatchers();
    space_cv_.notify_all();
    idle_cv_.wait(lk, [&] { return live_ == 0 && inline_running_ == 0; });
    // The dispatchers cancel the queue on their way out, but they may
    // have exited earlier via a completed drain(); cancel any remainder
    // (a drain leaves none, this is belt-and-braces for racing
    // lifecycles).
    if (queued_ != 0) {
      cancel_queued(lk);
    }
  }
  join_dispatchers();
}

void Server::join_dispatchers() {
  // Watchdog-retired dispatchers first: by the time a caller reaches
  // here every live dispatcher has exited (live_ == 0 observed under
  // mu_), so none has a dispatch the watchdog could reclaim and no
  // further retirements can race this swap. A retired thread may still
  // be sleeping inside a stalled engine call; joining waits it out (a
  // genuinely hung kernel would block stop() here -- the documented
  // limitation).
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
  for (Dispatcher& d : dispatchers_) {
    if (d.thread.joinable()) {
      d.thread.join();
    }
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
  // Splicing only moves admitted requests from the ingress to their
  // tenant queues, as the next pick would; it makes the snapshot count
  // them.
  const_cast<Server*>(this)->splice_ingress();
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
  out.locked_submits = locked_submits_;
  out.dispatchers = started_;
  out.peak_concurrent_dispatches = peak_dispatching_;
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

std::size_t Server::reserve_slot() noexcept {
  std::size_t n = admitted_.load(std::memory_order_relaxed);
  do {
    if (n >= config_.queue_capacity) {
      return 0;
    }
  } while (!admitted_.compare_exchange_weak(n, n + 1,
                                            std::memory_order_relaxed));
  return n + 1;
}

std::size_t Server::push_ingress(detail::Request* r) noexcept {
  if (!fast_submit_) {
    return 0; // a quota needs exact tenant queue lengths
  }
  const std::size_t admitted = reserve_slot();
  if (admitted == 0) {
    return 0; // full: the overload policy applies, under mu_
  }
  detail::Request* head = ingress_.load(std::memory_order_relaxed);
  do {
    if (head == closed_ingress()) {
      // Closed by drain() or stop(): the locked path refuses it.
      admitted_.fetch_sub(1, std::memory_order_relaxed);
      return 0;
    }
    r->next = head;
  } while (!ingress_.compare_exchange_weak(head, r,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
  return admitted;
}

bool Server::must_wake(std::size_t pending, bool submitter) const noexcept {
  if (pending == 0) {
    return false;
  }
  // A submitter reads it after its push, seq_cst: a dispatcher that
  // parks lowers awake_ first and re-checks the ingress after, so with
  // awake_ above zero some dispatcher is sure to see the request.
  const std::size_t awake = awake_.load(std::memory_order_seq_cst);
  if (awake == 0) {
    return true;
  }
  if (awake == dispatchers_.size()) {
    return false; // every dispatcher is started and awake: none to wake
  }
  // Awake dispatchers outside an engine call (spinning, starting, woken,
  // in a pick or publishing) look at the queue soon, so they cover that
  // many pending requests. A watchdog-retired call still counts in
  // dispatching_ after its awake_ share passed to its replacement, so
  // busy may exceed awake: then none covers, one wake too many at worst.
  const std::size_t busy = dispatching_.load(std::memory_order_relaxed);
  if (awake > busy && pending <= awake - busy) {
    return false;
  }
  if (!submitter) {
    return true;
  }
  // Beyond those, a submitter leaves the rest to the latest dispatch
  // while it is younger than a spin bound: it most likely returns, and
  // re-checks the queue, before a woken follower would get going.
  const auto fresh = fresh_at_.load(std::memory_order_relaxed);
  return fresh == 0 ||
         clock_ticks() - fresh >=
             std::chrono::steady_clock::duration(kDispatchSpin).count();
}

void Server::splice_ingress(bool close) {
  detail::Request* head = ingress_.load(std::memory_order_relaxed);
  if (close) {
    head = ingress_.exchange(closed_ingress(), std::memory_order_acquire);
  } else if (head != nullptr && head != closed_ingress()) {
    // Only holders of mu_ take or close the ingress, so it is still
    // open and non-empty here; later pushes ride along.
    head = ingress_.exchange(nullptr, std::memory_order_acquire);
  }
  if (head == nullptr || head == closed_ingress()) {
    return;
  }
  detail::Request* fifo = nullptr; // reversed: oldest first
  while (head != nullptr) {
    detail::Request* const next = head->next;
    head->next = fifo;
    fifo = head;
    head = next;
  }
  while (fifo != nullptr) {
    std::unique_ptr<detail::Request> r(fifo);
    fifo = fifo->next;
    ++submitted_;
    Tenant& t = tenant_for(r->tenant);
    ++t.submitted;
    queue_request(std::move(r), t);
  }
}

void Server::queue_request(std::unique_ptr<detail::Request> r, Tenant& t) {
  if (t.q.empty()) {
    picker_.activate(r->tenant);
  }
  t.q.push_back(std::move(r));
  ++queued_;
}

bool Server::enqueue_locked(std::unique_lock<std::mutex>& lk,
                            std::unique_ptr<detail::Request> r,
                            const std::exception_ptr& fault) {
  ++submitted_;
  Tenant& t = tenant_for(r->tenant);
  ++t.submitted;
  if (fault) {
    lk.unlock();
    r->fail(fault);
    return false;
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
      return false;
    }
    if (t.q.size() < quota && reserve_slot() != 0) {
      break; // space available, and reserved
    }
    switch (config_.overload) {
    case resilience::OverloadPolicy::ShedNewest: {
      ++shed_overflow_;
      ++t.shed_overflow;
      const std::size_t queued = admitted_.load(std::memory_order_relaxed);
      lk.unlock();
      r->fail(std::make_exception_ptr(
          OverloadError(queued, config_.queue_capacity)));
      return false;
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
      r->publish();
      lk.lock();
      --inline_running_;
      ++completed_;
      idle_cv_.notify_all();
      return false;
    }
    case resilience::OverloadPolicy::Block: {
      const auto has_space = [&] {
        return phase_ != Phase::Running ||
               (admitted_.load(std::memory_order_relaxed) <
                    config_.queue_capacity &&
                t.q.size() < quota) ||
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
          return false;
        }
      } else {
        space_cv_.wait(lk, has_space);
      }
      continue; // re-evaluate phase/space/policy
    }
    }
  }
  queue_request(std::move(r), t);
  return true;
}

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

  // An injected enqueue fault fails the request on the locked path, so
  // that it is counted like every refusal.
  std::exception_ptr fault;
  try {
    IATF_FAULT_POINT("serve.enqueue", Status::AllocFailure);
  } catch (...) {
    fault = std::current_exception();
  }
  if (const std::size_t admitted = fault ? 0 : push_ingress(r.get());
      admitted != 0) {
    r.release(); // the ingress owns it now
    if (!must_wake(admitted, /*submitter=*/true)) {
      return;
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  ++locked_submits_;
  // Pushed requests queue first: this thread's earlier submits, and
  // this one if it was pushed.
  splice_ingress();
  if (r && !enqueue_locked(lk, std::move(r), fault)) {
    return;
  }
  // Decided in the critical section that queues: a dispatcher that has
  // not parked yet re-checks the queue under mu_ before it parks, so it
  // sees this request. Notify after unlocking, so a woken dispatcher
  // does not find mu_ still held.
  Dispatcher* const wake = claim_wake(/*submitter=*/true);
  lk.unlock();
  if (wake != nullptr) {
    wake->cv.notify_one();
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

void Server::run_dispatcher(std::size_t slot, std::uint64_t epoch) {
  RoundBuffers bufs;
  bufs.batch.reserve(config_.max_coalesce);
  std::unique_lock<std::mutex> lk(mu_);
  const auto retired = [&] { return dispatchers_[slot].epoch != epoch; };
  // Retired / draining ignores pause; stopping cancels.
  const auto lifecycle = [&] {
    return retired() || phase_ != Phase::Running;
  };
  const auto ready = [&] {
    return lifecycle() || (!paused_ && queued_ > 0);
  };
  for (;;) {
    splice_ingress();
    if (!ready() && spin_ && !paused_ && spinning_ == 0) {
      // The one spinner: for up to kDispatchSpin with mu_ released,
      // watch for an admission (locked or not, each raises admitted_)
      // or the closed ingress of drain() and stop(), then re-check
      // under mu_. A paused server has nothing to spin for.
      spinning_ = 1;
      lk.unlock();
      const auto until = std::chrono::steady_clock::now() + kDispatchSpin;
      while (admitted_.load(std::memory_order_relaxed) == 0 &&
             ingress_.load(std::memory_order_relaxed) == nullptr &&
             std::chrono::steady_clock::now() < until) {
        cpu_relax();
      }
      lk.lock();
      spinning_ = 0;
      splice_ingress();
    }
    if (!ready()) {
      // Announce the park, then look at the ingress once more: a submit
      // that pushed before the announcement is seen here, and one after
      // it reads awake_ too low and takes mu_ to claim a wake. The stall
      // site lets a test push inside that window.
      fault::stall_if_armed("serve.park", 100);
      awake_.fetch_sub(1, std::memory_order_seq_cst);
      if (ingress_.load(std::memory_order_seq_cst) != nullptr) {
        awake_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Park until a submitter, a backlogged dispatcher or resume()
      // picks this thread (claim_wake, which raises awake_ for it), or
      // the lifecycle changes.
      Dispatcher& self = dispatchers_[slot];
      parked_.push_back(&self);
      self.cv.wait(lk, [&] { return self.woken || lifecycle(); });
      if (self.woken) {
        self.woken = false;
      } else {
        std::erase(parked_, &self);
        awake_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (retired()) {
      return; // retired by the watchdog: a successor owns the slot now
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
    dispatch_round(lk, slot, epoch, bufs);
    if (retired()) {
      return; // reclaimed mid-round: the watchdog did the accounting
    }
  }
  if (--live_ == 0) {
    idle_cv_.notify_all();
  }
}

void Server::dispatch_round(std::unique_lock<std::mutex>& lk,
                            std::size_t slot, std::uint64_t epoch,
                            RoundBuffers& bufs) {
  const auto now = std::chrono::steady_clock::now();
  ++heartbeats_;

  // Weighted-fair head: smallest stride pass among non-empty tenants.
  bufs.runnable.clear();
  for (const auto& [id, t] : tenants_) {
    if (!t.q.empty()) {
      bufs.runnable.push_back(id);
    }
  }
  const std::size_t queued_before = queued_;
  const TenantId head_id = picker_.pick(bufs.runnable);
  Tenant& head_tenant = tenants_.find(head_id)->second;
  std::unique_ptr<detail::Request> head = std::move(head_tenant.q.front());
  head_tenant.q.pop_front();
  --queued_;
  picker_.charge(head_id);

  // Cancellation: a flagged token (client disconnect, explicit cancel)
  // resolves the request here, before it costs engine time. Checked at
  // dequeue only -- a request already inside a dispatch runs to
  // completion, and its coalesce-mates are never disturbed. Deadline
  // propagation: queue time counts against the request budget; an
  // expired request is resolved here and never reaches the engine.
  const auto shed = [&](std::unique_ptr<detail::Request>& r, Tenant& t) {
    if (r->cancelled()) {
      ++cancelled_;
      ++t.cancelled;
      bufs.cancelled.push_back(std::move(r));
      return true;
    }
    if (r->expired(now)) {
      ++shed_expired_;
      ++t.shed_expired;
      bufs.expired.push_back(std::move(r));
      return true;
    }
    return false;
  };

  // Coalesce: pull same-class single requests from every tenant queue
  // (FIFO within each tenant, any position across classes -- requests
  // are independent, so cross-class reordering is unobservable).
  Batch& batch = bufs.batch;
  if (!shed(head, head_tenant)) {
    ++head_tenant.served;
    batch.push_back(std::move(head));
    const detail::Request& first = *batch.front();
    if (first.coalescable() && config_.max_coalesce > 1) {
      try {
        for (auto& [id, t] : tenants_) {
          for (auto it = t.q.begin();
               it != t.q.end() && batch.size() < config_.max_coalesce;) {
            IATF_FAULT_POINT("serve.coalesce", Status::Internal);
            if ((*it)->key != first.key) {
              ++it;
              continue;
            }
            std::unique_ptr<detail::Request> mate = std::move(*it);
            it = t.q.erase(it);
            --queued_;
            picker_.charge(mate->tenant);
            if (!shed(mate, t)) {
              ++t.served;
              batch.push_back(std::move(mate));
            }
          }
        }
      } catch (const fault::FaultInjected&) {
        // Injected coalescing failure: dispatch what was collected so
        // far (worst case the head alone). Never fails a request.
      }
    }
  }
  admitted_.fetch_sub(queued_before - queued_, std::memory_order_relaxed);
  space_cv_.notify_all();

  const std::size_t executed = batch.size();
  std::shared_ptr<const Batch> shared;
  if (executed != 0) {
    ++dispatch_calls_;
    std::size_t bucket = ServerStats::kCoalesceBuckets - 1;
    if (executed <= 1) {
      bucket = 0;
    } else if (executed == 2) {
      bucket = 1;
    } else if (executed <= 4) {
      bucket = 2;
    } else if (executed <= 8) {
      bucket = 3;
    }
    ++coalesce_hist_[bucket];
    if (executed >= 2) {
      coalesced_requests_ += executed;
    }
    inflight_ += executed;
    peak_dispatching_ =
        std::max(peak_dispatching_, dispatching_.fetch_add(1) + 1);

    // Register the dispatch for the watchdog before releasing the lock:
    // if this thread wedges inside the engine call, the supervisor fails
    // the batch, respawns this dispatcher and does the accounting below.
    // Only then is the batch shared.
    if (config_.watchdog_grace > 0) {
      auto budget = config_.watchdog_floor;
      if (batch.front()->has_deadline &&
          batch.front()->deadline - now > budget) {
        budget = batch.front()->deadline - now;
      }
      // Clamped below the clock's range: a huge grace or budget must not
      // overflow the integer cast.
      const auto stall = std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::min(
              config_.watchdog_grace * static_cast<double>(budget.count()),
              0x1p62)));
      shared = std::make_shared<const Batch>(std::move(batch));
      batch.clear();
      InflightDispatch& inflight = dispatchers_[slot].inflight;
      inflight.batch = shared;
      inflight.stall_at = now + std::max(stall, std::chrono::nanoseconds{1});
    }
  }
  // Backlog: work still queued after this pick goes to a follower
  // rather than waiting for this thread's next round.
  Dispatcher* const wake = claim_wake();
  const auto stamp = now.time_since_epoch().count();
  if (executed != 0) {
    fresh_at_.store(stamp, std::memory_order_relaxed);
  }

  lk.unlock();
  if (wake != nullptr) {
    wake->cv.notify_one();
  }
  // Shed requests resolve before the engine call: a dispatch that wedges
  // must not hold them, since the watchdog reclaims only the batch. The
  // requests die here, outside mu_.
  for (auto& dead : bufs.expired) {
    dead->fail(std::make_exception_ptr(TimeoutError(0, 1)));
  }
  for (auto& dead : bufs.cancelled) {
    dead->fail(std::make_exception_ptr(
        CancelledError("iatf: request cancelled by caller")));
  }
  bufs.expired.clear();
  bufs.cancelled.clear();
  const std::span<const std::unique_ptr<detail::Request>> run =
      shared ? std::span(*shared) : std::span(batch);
  if (!run.empty()) {
    execute_batch(run);
    // Lowered before any caller of this batch is released: a lone
    // caller's next request never overlaps this dispatch, and finds this
    // dispatcher awake and outside an engine call, so counted as about
    // to re-check the queue; no follower is woken for the hand-off.
    dispatching_.fetch_sub(1);
  }
  for (const auto& r : run) {
    r->publish(); // claim-gated: loses to an earlier watchdog reclaim
  }
  // The batch dies here, outside mu_ (a reclaimed batch lives on in the
  // watchdog's copy until its resolutions are done).
  batch.clear();
  shared.reset();
  lk.lock();
  if (dispatchers_[slot].epoch != epoch) {
    // Reclaimed by the watchdog meanwhile: its replacement holds this
    // slot's awake_ share, so no submitter counted this thread.
    return;
  }
  if (executed == 0) {
    return;
  }
  if (fresh_at_.load(std::memory_order_relaxed) == stamp) {
    fresh_at_.store(0, std::memory_order_relaxed); // still this pick's mark
  }
  dispatchers_[slot].inflight.batch.reset();
  inflight_ -= executed;
  completed_ += executed;
}

void Server::execute_batch(
    std::span<const std::unique_ptr<detail::Request>> batch) noexcept {
  // Wedged-dispatcher fault for the watchdog tests: long enough that
  // the supervisor (polling every watchdog_poll) reliably reclaims the
  // batch first, even under sanitizer scheduling.
  fault::stall_if_armed("watchdog.stall", 500);
  try {
    IATF_FAULT_POINT("serve.dispatch", Status::Internal);
    if (batch.size() == 1) {
      batch.front()->run(engine_); // keeps its outcome, never throws
      return;
    }
    batch.front()->run_coalesced(engine_, batch);
  } catch (...) {
    // A dispatch-level failure (injected fault, grouped-call rejection)
    // must not take the coalesce-mates down with the culprit: retry each
    // request alone so exactly the bad one fails. A single request just
    // keeps the error.
    if (batch.size() == 1) {
      batch.front()->error = std::current_exception();
      return;
    }
    for (const auto& r : batch) {
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
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t slot = 0; slot < dispatchers_.size(); ++slot) {
      const InflightDispatch& inflight = dispatchers_[slot].inflight;
      if (inflight.batch && now >= inflight.stall_at) {
        reclaim_inflight(lk, slot);
      }
    }
  }
}

void Server::reclaim_inflight(std::unique_lock<std::mutex>& lk,
                              std::size_t slot) {
  ++watchdog_kicks_;
  Dispatcher& d = dispatchers_[slot];
  std::shared_ptr<const Batch> batch = std::move(d.inflight.batch);
  d.inflight.batch.reset();

  // Retire the wedged dispatcher only: bump its slot's generation so it
  // exits without touching the queue or the accounting when (if) it
  // un-wedges, park its thread for joining at stop()/drain(), and start
  // a replacement in the slot. The other dispatchers keep serving
  // throughout; a fresh mark of the wedged pick expires on its own one
  // spin bound after it. Safe against join_dispatchers(): joins only
  // happen after live_ == 0 is observed under mu_, and a dispatcher that
  // is mid-dispatch (the only state we reclaim from) has not exited. The
  // replacement takes over the slot's awake_ count, which the wedged
  // thread held and never lowers.
  const std::uint64_t epoch = ++d.epoch;
  zombies_.push_back(std::move(d.thread));
  d.thread = std::thread([this, slot, epoch] { run_dispatcher(slot, epoch); });

  // The accounting the retired dispatcher will no longer do (it still
  // lowers dispatching_ itself if its engine call ever returns).
  inflight_ -= batch->size();
  completed_ += batch->size();

  lk.unlock();
  // Trip before failing: a caller that observes the WatchdogError must
  // already see its class Open. A grouped submission spans many classes;
  // there is no one class to blame, so nothing trips.
  if (const detail::Request& head = *batch->front(); head.coalescable()) {
    engine_.trip_class(head.key, /*cooldown_calls=*/-1);
  }
  const auto error = std::make_exception_ptr(WatchdogError(
      "iatf: dispatch stalled past the watchdog budget and was "
      "reclaimed; output buffers may be partially written"));
  for (const auto& r : *batch) {
    r->fail(error); // claim-gated: a late un-wedged resolution loses
  }
  batch.reset();
  lk.lock();
}

void Server::cancel_queued(std::unique_lock<std::mutex>& lk) {
  Batch doomed;
  doomed.reserve(queued_);
  for (auto& [id, t] : tenants_) {
    t.cancelled += t.q.size();
    cancelled_ += t.q.size();
    for (auto& r : t.q) {
      doomed.push_back(std::move(r));
    }
    t.q.clear();
  }
  admitted_.fetch_sub(queued_, std::memory_order_relaxed);
  queued_ = 0;
  space_cv_.notify_all();
  lk.unlock();
  for (auto& r : doomed) {
    r->fail(std::make_exception_ptr(
        CancelledError("iatf: request cancelled by Server::stop()")));
  }
  doomed.clear();
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
