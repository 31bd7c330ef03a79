#include "iatf/core/engine.hpp"

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/tune/descriptor.hpp"
#include "iatf/tune/tuning_table.hpp"
#include "engine_ops.hpp"

namespace iatf {
namespace {

bool site_prefix(const std::string& site, const char* prefix) {
  return site.rfind(prefix, 0) == 0;
}

/// Classify the in-flight exception as a degradation event. InvalidArg
/// errors are caller bugs and must never be silently degraded, so they are
/// rethrown; Timeout likewise -- a deadline already blown cannot be helped
/// by a slower scalar recompute. Everything else maps to the event the
/// fallback records.
DegradeEvent classify_failure() {
  try {
    throw;
  } catch (const fault::FaultInjected& f) {
    if (site_prefix(f.site(), "registry")) {
      return DegradeEvent::MissingKernel;
    }
    if (site_prefix(f.site(), "plan")) {
      return DegradeEvent::UnsupportedPlan;
    }
    if (site_prefix(f.site(), "threadpool") ||
        site_prefix(f.site(), "sched") ||
        site_prefix(f.site(), "resilience")) {
      return DegradeEvent::WorkerFailure;
    }
    return DegradeEvent::AllocFailure;
  } catch (const Error& e) {
    switch (e.status()) {
    case Status::InvalidArg:
    case Status::Timeout:
      throw;
    case Status::Unsupported:
      return DegradeEvent::UnsupportedPlan;
    case Status::AllocFailure:
      return DegradeEvent::AllocFailure;
    default:
      return DegradeEvent::WorkerFailure;
    }
  } catch (const std::bad_alloc&) {
    return DegradeEvent::AllocFailure;
  } catch (...) {
    return DegradeEvent::WorkerFailure;
  }
}

/// Restore one lane of `buf` from a raw snapshot of its storage.
template <class T>
void restore_lane(CompactBuffer<T>& buf,
                  const std::vector<real_t<T>>& snapshot, index_t lane) {
  using R = real_t<T>;
  const index_t pw = buf.pack_width();
  const index_t g = lane / pw;
  const index_t l = lane % pw;
  const index_t es = buf.element_stride();
  const index_t elems = buf.rows() * buf.cols();
  R* gdata = buf.group_data(g);
  const R* sdata = snapshot.data() + g * buf.group_stride();
  for (index_t e = 0; e < elems; ++e) {
    gdata[e * es + l] = sdata[e * es + l];
    if constexpr (is_complex_v<T>) {
      gdata[e * es + pw + l] = sdata[e * es + pw + l];
    }
  }
}

template <class T> constexpr char dtype_tag() {
  return blas_prefix_v<T>[0];
}

/// Serve every lane of one segment on the reference path and record it on
/// `health`. A lane the reference refuses (factorisations only) keeps its
/// current contents and is flagged singular, so GEMM/TRSM lanes always
/// succeed and a refused factor lane is reported, never poisoned.
template <class Traits>
void ref_lanes(const typename Traits::Shape& shape,
               const typename Traits::Segment& seg, DegradeEvent event,
               BatchHealth& health) {
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    if (!Traits::ref_lane(shape, seg, lane)) {
      ++health.singular;
      if (health.first_singular < 0) {
        health.first_singular = lane;
      }
      health.events |= DegradeEvent::NumericalHazard;
    }
  }
  health.events |= event;
  health.fallback = shape.batch;
  health.first_fallback = shape.batch > 0 ? 0 : -1;
}

std::size_t resolve_capacity(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("IATF_PLAN_CACHE_CAP")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return Engine::kDefaultPlanCacheCapacity;
}

/// Positive integer from the environment, or 0 when unset/malformed.
long long env_positive(const char* name) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return v;
    }
  }
  return 0;
}

template <class Plan>
std::vector<resilience::KernelId> kernel_ids_of(const Plan& plan) {
  std::vector<resilience::KernelId> ids;
  ids.reserve(plan.kernels_used().size());
  for (const resilience::KernelUse& use : plan.kernels_used()) {
    ids.push_back(resilience::KernelId{
        use.kind, dtype_tag<typename Plan::value_type>(), Plan::bytes,
        use.m, use.n});
  }
  return ids;
}

/// Run the canary of registry kernel `use` through its op traits: build
/// the canary plan directly, not through the cache (canaries leave the
/// hit/miss/build counters untouched), and check every lane of the
/// canary batch against the scalar reference.
template <class Traits>
bool run_canary(const resilience::KernelUse& use, const CacheInfo& cache) {
  using R = real_t<typename Traits::value_type>;
  const auto [shape, tuning] = Traits::canary_plan(use);
  const typename Traits::Plan plan(shape, cache, tuning);
  typename Traits::Operands ops(shape);
  Traits::canary_fill(ops);
  const R tol = std::numeric_limits<R>::epsilon() * R(512);
  return detail::agrees_with_reference<Traits>(
      shape, ops.seg, shape.batch, detail::Tolerance<R>{tol, tol},
      [&] { Traits::execute(plan, ops.seg, nullptr, nullptr); });
}

/// Capped exponential backoff before a transient-failure retry; never
/// sleeps past the call deadline.
void backoff_sleep(std::chrono::nanoseconds delay,
                   const Deadline* deadline) {
  if (delay.count() <= 0) {
    return;
  }
  if (deadline != nullptr) {
    const auto left = deadline->at - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds::zero()) {
      return;
    }
    delay = std::min(delay,
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         left));
  }
  std::this_thread::sleep_for(delay);
}

/// Rebuild a plan whose kernel set intersects the quarantine ledger with
/// descending tile caps until the command queue avoids every quarantined
/// kernel. When no cap combination helps, the plan is pre-marked
/// Quarantined so dispatch ref-routes it without re-running canaries.
template <class Traits>
void substitute_quarantined(std::unique_ptr<typename Traits::Plan>& plan,
                            const typename Traits::Shape& shape,
                            const CacheInfo& cache,
                            const plan::PlanTuning& tuning,
                            const resilience::KernelGuard& guard) {
  if (!guard.any_quarantined(kernel_ids_of(*plan))) {
    return;
  }
  for (index_t mc = Traits::max_mc; mc >= 1; --mc) {
    for (index_t nc = Traits::max_nc; nc >= 1; --nc) {
      plan::PlanTuning t = tuning;
      t.mc_cap = mc;
      t.nc_cap = nc;
      auto candidate =
          std::make_unique<typename Traits::Plan>(shape, cache, t);
      if (!guard.any_quarantined(kernel_ids_of(*candidate))) {
        plan = std::move(candidate);
        return;
      }
    }
  }
  plan->set_verify_state(resilience::PlanVerify::Quarantined);
}

} // namespace

Engine::Engine(CacheInfo cache, std::size_t plan_cache_capacity)
    : cache_(cache) {
  capacity_.store(resolve_capacity(plan_cache_capacity),
                  std::memory_order_relaxed);
  auto config = std::make_shared<TuningConfig>();
  config->generation = 0;
  tuning_.store(std::shared_ptr<const TuningConfig>(std::move(config)),
                std::memory_order_release);
  // Serving-hardening knobs from the environment (DESIGN.md section 11).
  if (const long long v = env_positive("IATF_MAX_INFLIGHT")) {
    max_inflight_.store(static_cast<std::size_t>(v),
                        std::memory_order_relaxed);
  }
  if (const long long w = env_positive("IATF_BREAKER_WINDOW")) {
    resilience::BreakerConfig bc;
    bc.window = static_cast<int>(w);
    bc.threshold = std::max(1, static_cast<int>(w / 4));
    bc.cooldown = static_cast<int>(2 * w);
    breaker_.configure(bc);
  }
  if (const long long r = env_positive("IATF_RETRY_MAX")) {
    retry_attempts_.store(static_cast<int>(r), std::memory_order_relaxed);
  }
  if (const long long s = env_positive("IATF_RETRY_JITTER_SEED")) {
    retry_seed_.store(static_cast<std::uint64_t>(s),
                      std::memory_order_relaxed);
  }
  // Attach the health ledger last: replay seeds breaker slots, and the
  // IATF_BREAKER_WINDOW configure() above resets every slot, so the
  // order matters (DESIGN.md section 14).
  if (const std::string ledger = resilience::HealthLedger::default_path();
      !ledger.empty()) {
    set_health_ledger(ledger);
  }
}

Engine::~Engine() {
  // Shutdown ordering contract (DESIGN.md section 12): a Server's
  // dispatcher thread holds a bare Engine& and may be mid-dispatch, so
  // destroying the engine first is a guaranteed use-after-free. Fail
  // loudly and immediately instead of corrupting memory.
  const std::size_t servers = servers_.load(std::memory_order_relaxed);
  if (servers != 0) {
    std::fprintf(stderr,
                 "iatf: fatal: Engine destroyed while %zu "
                 "iatf::serve::Server instance(s) are still attached; "
                 "destroy (or stop()) every Server before its engine\n",
                 servers);
    std::abort();
  }
}

Engine::Shard& Engine::shard_for(const sched::ClassKey& key) {
  // FNV's low bits feed the map's bucket choice; take high bits for the
  // shard so the two decisions stay decorrelated.
  const std::size_t h = sched::ClassKeyHash{}(key);
  return shards_[(h >> 56) % kPlanCacheShards];
}

std::size_t Engine::shard_capacity() const noexcept {
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  const std::size_t per = (cap + kPlanCacheShards - 1) / kPlanCacheShards;
  return per > 0 ? per : 1;
}

void Engine::evict_to_capacity(PlanMap& map, std::size_t cap) {
  while (map.size() > cap && !map.empty()) {
    // Fault site: an eviction that throws must not fail the lookup -- the
    // built plan is still returned, just not cached.
    IATF_FAULT_POINT("cache.evict", ::iatf::Status::Internal);
    auto victim = map.begin();
    std::uint64_t oldest =
        victim->second->last_used.load(std::memory_order_relaxed);
    for (auto it = std::next(map.begin()); it != map.end(); ++it) {
      const std::uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::insert_plan(Shard& shard, const sched::ClassKey& key,
                         std::shared_ptr<const void> plan, bool tuned,
                         std::vector<resilience::KernelId> kernels,
                         std::uint64_t generation, std::uint64_t now) {
  std::lock_guard<std::mutex> lock(shard.mu);
  // The build resolved its tuning against the config of `generation`; if
  // the engine was reconfigured (or the cache cleared) since, this plan
  // would poison the fresh cache -- drop it instead. The caller still
  // returns it to the requesting threads.
  if (generation_.load(std::memory_order_acquire) != generation) {
    return;
  }
  auto old = shard.snapshot.load(std::memory_order_acquire);
  auto next = old ? std::make_shared<PlanMap>(*old)
                  : std::make_shared<PlanMap>();
  evict_to_capacity(*next, shard_capacity() - 1);
  auto entry = std::make_shared<CacheEntry>();
  entry->plan = std::move(plan);
  entry->tuned = tuned;
  entry->kernels = std::move(kernels);
  entry->last_used.store(now, std::memory_order_relaxed);
  (*next)[key] = std::move(entry);
  shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                       std::memory_order_release);
  if (tuned) {
    tuned_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <class Plan, class Make>
std::shared_ptr<const Plan> Engine::lookup(const sched::ClassKey& key,
                                           Make&& make) {
  const std::uint64_t now =
      tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = shard_for(key);

  // Fast path: one atomic load of the shard's immutable snapshot. No
  // exclusive lock is taken on a hit.
  if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
    auto it = map->find(key);
    if (it != map->end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second->last_used.store(now, std::memory_order_relaxed);
      return std::static_pointer_cast<const Plan>(it->second->plan);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Re-check: a leader may have published between our snapshot load and
    // here. The miss above already counted, so no extra hit is recorded
    // (hits + misses always equals lookups).
    if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
      auto it = map->find(key);
      if (it != map->end()) {
        it->second->last_used.store(now, std::memory_order_relaxed);
        return std::static_pointer_cast<const Plan>(it->second->plan);
      }
    }
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    auto it = shard.inflight.find(key);
    if (it != shard.inflight.end() && it->second->generation == gen) {
      flight = it->second; // join the in-flight build
    } else {
      flight = std::make_shared<Flight>();
      flight->generation = gen;
      shard.inflight[key] = flight; // replaces a stale-generation flight
      leader = true;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> fl(flight->mu);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) {
      std::rethrow_exception(flight->error);
    }
    return std::static_pointer_cast<const Plan>(flight->plan);
  }

  // Single-flight leader: build outside every lock so joiners (and every
  // other shard) are never blocked behind plan construction.
  builds_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Plan> typed;
  std::shared_ptr<const void> plan;
  bool tuned = false;
  std::uint64_t config_gen = 0;
  std::exception_ptr error;
  try {
    typed = std::shared_ptr<const Plan>(make(&tuned, &config_gen));
    plan = typed;
  } catch (...) {
    error = std::current_exception();
  }

  if (!error) {
    try {
      insert_plan(shard, key, plan, tuned, kernel_ids_of(*typed),
                  config_gen, now);
    } catch (...) {
      // Cache-insert failures (eviction fault, bad_alloc on the map copy)
      // must not fail the call: the plan is returned uncached.
    }
  }

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.inflight.find(key);
    if (it != shard.inflight.end() && it->second == flight) {
      shard.inflight.erase(it); // by identity: never remove a successor
    }
  }
  {
    std::lock_guard<std::mutex> fl(flight->mu);
    flight->plan = plan;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) {
    std::rethrow_exception(error);
  }
  return std::static_pointer_cast<const Plan>(plan);
}

template <class T, int Bytes>
std::shared_ptr<const plan::GemmPlan<T, Bytes>>
Engine::plan_gemm(const GemmShape& shape) {
  return plan_tuned<detail::GemmOp<T, Bytes>>(shape);
}

template <class T, int Bytes>
std::shared_ptr<const plan::TrsmPlan<T, Bytes>>
Engine::plan_trsm(const TrsmShape& shape) {
  return plan_tuned<detail::TrsmOp<T, Bytes>>(shape);
}

template <class Traits>
std::shared_ptr<const typename Traits::Plan>
Engine::plan_tuned(const typename Traits::Shape& shape) {
  using Plan = typename Traits::Plan;
  const sched::ClassKey key =
      sched::class_key<typename Traits::value_type>(shape, Traits::bytes);
  return lookup<Plan>(
      key, [&](bool* tuned, std::uint64_t* config_gen) {
        IATF_FAULT_POINT(Traits::plan_site, ::iatf::Status::Unsupported);
        fault::stall_if_armed("plan.stall");
        const auto config = tuning_.load(std::memory_order_acquire);
        *config_gen = config->generation;
        const plan::PlanTuning tuning = resolve_tuning(*config, key, tuned);
        auto plan = std::make_unique<Plan>(shape, cache_, tuning);
        if (kernel_verification() && guard_.quarantined_count() > 0) {
          substitute_quarantined<Traits>(plan, shape, cache_, tuning, guard_);
        }
        return plan.release();
      });
}

template <class T, int Bytes>
std::shared_ptr<const factor::FactorPlan<T, Bytes>>
Engine::plan_factor(const factor::FactorShape& shape) {
  return lookup<factor::FactorPlan<T, Bytes>>(
      sched::class_key<T>(shape, Bytes),
      [&](bool* tuned, std::uint64_t* config_gen) {
        IATF_FAULT_POINT("plan.factor", ::iatf::Status::Unsupported);
        fault::stall_if_armed("plan.stall");
        // Factor plans take no tile tuning (the steps are straight-line
        // register sweeps), but the build still resolves against one
        // config generation so reconfigure() gates stale inserts.
        *tuned = false;
        *config_gen =
            tuning_.load(std::memory_order_acquire)->generation;
        return new factor::FactorPlan<T, Bytes>(shape, cache_);
      });
}

template <class T, int Bytes>
BatchHealth Engine::gemm(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
                         const CompactBuffer<T>& b, T beta,
                         CompactBuffer<T>& c) {
  return run_one<detail::GemmOp<T, Bytes>>(
      {op_a, op_b, alpha, beta, &a, &b, &c});
}

template <class T, int Bytes>
BatchHealth Engine::trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const CompactBuffer<T>& a, CompactBuffer<T>& b) {
  return run_one<detail::TrsmOp<T, Bytes>>(
      {side, uplo, op_a, diag, alpha, &a, &b});
}

template <class T, int Bytes>
BatchHealth Engine::trmm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const CompactBuffer<T>& a, CompactBuffer<T>& b) {
  return run_one<detail::TrsmOp<T, Bytes>>(
      {side, uplo, op_a, diag, alpha, &a, &b, TriOp::Multiply});
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::gemm_grouped(std::span<const sched::GemmSegment<T>> segments) {
  return grouped<detail::GemmOp<T, Bytes>>(segments);
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::trsm_grouped(std::span<const sched::TrsmSegment<T>> segments) {
  return grouped<detail::TrsmOp<T, Bytes>>(segments);
}

template <class Traits>
BatchHealth Engine::run_one(const typename Traits::Segment& seg) {
  detail::CallSegment<Traits> state(seg);
  BatchHealth health;
  run<Traits>({&state, 1}, {&health, 1}, /*grouped_call=*/false);
  return health;
}

template <class Traits>
std::vector<BatchHealth>
Engine::grouped(std::span<const typename Traits::Segment> segments) {
  grouped_calls_.fetch_add(1, std::memory_order_relaxed);
  std::vector<detail::CallSegment<Traits>> segs(segments.begin(),
                                                segments.end());
  std::vector<BatchHealth> healths(segments.size());
  run<Traits>(segs, healths, /*grouped_call=*/true);
  return healths;
}

void Engine::record_grouped_plans(std::size_t distinct) noexcept {
  // Bucket upper bounds: 1, 2, 4, 8, inf (EngineStats doc).
  std::size_t bucket = 4;
  if (distinct <= 1) {
    bucket = 0;
  } else if (distinct == 2) {
    bucket = 1;
  } else if (distinct <= 4) {
    bucket = 2;
  } else if (distinct <= 8) {
    bucket = 3;
  }
  grouped_plan_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
}

template <class Traits>
void Engine::run(std::span<detail::CallSegment<Traits>> segs,
                 std::span<BatchHealth> healths, bool grouped_call) {
  using T = typename Traits::value_type;
  constexpr int Bytes = Traits::bytes;
  note_width_call(Bytes);
  // The one operand check, before admission and routing: a malformed call
  // is refused on every route and never reaches its class breaker.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    segs[i].shape = Traits::validate(segs[i].seg);
    segs[i].key = sched::class_key<T>(segs[i].shape, Bytes);
    healths[i].batch = segs[i].shape.batch;
  }
  if (segs.empty()) {
    return;
  }

  const ExecPolicy policy = policy_.load(std::memory_order_relaxed);
  const bool guarded = policy != ExecPolicy::Fast;
  const bool fallback = policy == ExecPolicy::Fallback;
  ThreadPool* pool = pool_.load(std::memory_order_relaxed);
  const std::int64_t budget = deadline_ns_.load(std::memory_order_relaxed);
  Deadline deadline_at;
  const Deadline* deadline = nullptr;
  if (budget > 0) {
    deadline_at = Deadline::in(std::chrono::nanoseconds(budget));
    deadline = &deadline_at;
  }

  // Admission gate: count the call in (and possibly shed / degrade it),
  // then guarantee the slot is released on every exit path.
  const Admit admitted = admit_call(deadline);
  struct Release {
    Engine* engine;
    ~Release() { engine->release_call(); }
  } release{this};

  // Serve the segments routed to the reference path (for their class
  // leader's `route`, or for `all` when set) and count the lanes as one
  // ref-routed call.
  const auto serve_routed = [&](DegradeEvent all) {
    bool routed = false;
    std::uint64_t lanes = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const detail::CallSegment<Traits>& s = segs[i];
      const DegradeEvent event =
          all != DegradeEvent::None ? all : segs[s.leader].route;
      if (event != DegradeEvent::None) {
        ref_lanes<Traits>(s.shape, s.seg, event, healths[i]);
        lanes += static_cast<std::uint64_t>(s.shape.batch);
        routed = true;
      }
    }
    if (routed) {
      note_degraded(lanes);
      ref_routed_calls_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (admitted == Admit::RefRoute) {
    serve_routed(DegradeEvent::Overloaded);
    return;
  }

  // One verdict per held breaker gate: degraded when any segment of the
  // class (or, on a throw, the call) degraded.
  const auto record_verdicts = [&](bool failed) {
    for (std::size_t i = 0; i < segs.size(); ++i) {
      detail::BreakerGate& gate = segs[i].gate;
      if (!gate.held) {
        continue;
      }
      bool degraded = failed;
      for (std::size_t j = i; j < segs.size() && !degraded; ++j) {
        degraded = segs[j].leader == i &&
                   healths[j].events != DegradeEvent::None;
      }
      gate.held = false;
      record_breaker(gate.slot, degraded, gate.probe);
    }
  };

  try {
    // Fast runs the plans bare. Check adds a hazard recorder per
    // segment; Fallback also snapshots each written operand, taken
    // before binning and planning so a retry or the whole-call fallback
    // can restore even when the scheduler or the planner throws.
    for (detail::CallSegment<Traits>& s : segs) {
      Traits::prepare(s.seg);
      if (guarded) {
        s.rec.emplace(s.shape.batch);
      }
      if (fallback) {
        const CompactBuffer<T>& out = *sched::written(s.seg);
        s.snapshot.assign(out.data(), out.data() + out.size());
      }
    }

    // Transient-failure retry (Fallback only: a retry needs the
    // snapshots) covers the whole call.
    const int max_attempts =
        fallback
            ? std::max(1, retry_attempts_.load(std::memory_order_relaxed))
            : 1;
    std::chrono::nanoseconds delay(
        retry_base_ns_.load(std::memory_order_relaxed));
    // Saturating: a base delay near the clock's range must not overflow
    // the cap or the doubling below.
    const std::chrono::nanoseconds delay_cap =
        std::min(delay, std::chrono::nanoseconds::max() / 64) * 64;
    std::size_t classes = 0; // 0 until binning succeeds
    bool plans_counted = false;

    for (int attempt = 1;; ++attempt) {
      try {
        if (classes == 0) {
          classes = sched::bin_by_descriptor(segs);
          if constexpr (Traits::gated) {
            if (breaker_.enabled()) {
              admit_classes(segs);
            }
          }
        }
        plan_classes(segs);
        if (grouped_call && !plans_counted) {
          record_grouped_plans(classes);
          plans_counted = true;
        }
        execute_segments(segs, pool, deadline);
        break;
      } catch (...) {
        if (!fallback) {
          throw; // Fast/Check: failures still propagate
        }
        // rethrows InvalidArg and Timeout
        const DegradeEvent event = classify_failure();
        const bool transient = event == DegradeEvent::AllocFailure ||
                               event == DegradeEvent::WorkerFailure;
        if (transient && attempt < max_attempts &&
            (deadline == nullptr || !deadline->expired())) {
          for (detail::CallSegment<Traits>& s : segs) {
            std::copy(s.snapshot.begin(), s.snapshot.end(),
                      sched::written(s.seg)->data());
            if (guarded) {
              s.rec.emplace(s.shape.batch);
            }
          }
          const std::uint64_t seq =
              retries_.fetch_add(1, std::memory_order_relaxed);
          backoff_sleep(resilience::jittered_backoff(
                            delay,
                            retry_seed_.load(std::memory_order_relaxed),
                            seq),
                        deadline);
          delay = std::min(delay, delay_cap / 2) * 2;
          continue;
        }
        // Any segment may hold partial fast-path output; restore and
        // recompute every lane of every segment on the reference path.
        std::uint64_t lanes = 0;
        for (std::size_t i = 0; i < segs.size(); ++i) {
          const detail::CallSegment<Traits>& s = segs[i];
          std::copy(s.snapshot.begin(), s.snapshot.end(),
                    sched::written(s.seg)->data());
          ref_lanes<Traits>(s.shape, s.seg, event | segs[s.leader].route,
                            healths[i]);
          lanes += static_cast<std::uint64_t>(s.shape.batch);
        }
        note_degraded(lanes);
        record_verdicts(/*failed=*/false);
        return;
      }
    }

    // Classes the breaker or the kernel guard routed away never ran the
    // plan; serve them on the reference path now.
    serve_routed(DegradeEvent::None);

    if (guarded) {
      std::uint64_t lanes = 0;
      for (std::size_t i = 0; i < segs.size(); ++i) {
        detail::CallSegment<Traits>& s = segs[i];
        if (segs[s.leader].route != DegradeEvent::None) {
          continue; // reference results; nothing to scan or repair
        }
        BatchHealth& health = healths[i];
        Traits::scan(s.shape, s.seg, *s.rec);
        s.rec->fill(health);
        if (health.nonfinite == 0 && health.singular == 0) {
          continue;
        }
        health.events |= DegradeEvent::NumericalHazard;
        if (!fallback) {
          continue;
        }
        for (index_t lane = 0; lane < s.shape.batch; ++lane) {
          if (!s.rec->flagged(lane)) {
            continue;
          }
          // Repair where the reference result is defined; a lane the
          // reference refuses keeps its restored input.
          restore_lane(*sched::written(s.seg), s.snapshot, lane);
          Traits::ref_lane(s.shape, s.seg, lane);
          if (health.first_fallback < 0) {
            health.first_fallback = lane;
          }
          ++health.fallback;
        }
        lanes += static_cast<std::uint64_t>(health.fallback);
      }
      if (fallback && lanes > 0) {
        note_degraded(lanes);
      }
    }
    record_verdicts(/*failed=*/false);
  } catch (const Error& e) {
    if (e.status() == Status::Timeout) {
      timeout_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    record_verdicts(/*failed=*/true);
    throw;
  } catch (...) {
    record_verdicts(/*failed=*/true);
    throw;
  }
}

template <class Traits>
void Engine::admit_classes(std::span<detail::CallSegment<Traits>> segs) {
  for (std::size_t i = 0; i < segs.size(); ++i) {
    detail::CallSegment<Traits>& lead = segs[i];
    if (lead.leader != i) {
      continue;
    }
    const std::size_t slot = sched::ClassKeyHash{}(lead.key);
    switch (breaker_.admit(slot)) {
    case resilience::BreakerDecision::RefRoute:
      lead.route = DegradeEvent::BreakerOpen;
      break;
    case resilience::BreakerDecision::Probe:
      // The gate is held from admission on, so a probe whose plan build
      // or execution throws still reports its verdict.
      lead.gate = {slot, /*held=*/true, /*probe=*/true};
      try {
        IATF_FAULT_POINT("resilience.probe", ::iatf::Status::Internal);
      } catch (...) {
        // A failed probe re-opens the slot; the class is still served.
        lead.gate.held = false;
        record_breaker(slot, /*degraded=*/true, /*probe=*/true);
        lead.route = DegradeEvent::BreakerOpen;
      }
      break;
    case resilience::BreakerDecision::Allow:
      lead.gate = {slot, /*held=*/true, /*probe=*/false};
      break;
    }
  }
}

template <class Traits>
void Engine::plan_classes(std::span<detail::CallSegment<Traits>> segs) {
  // One plan resolution per size class; single-flight collapses
  // concurrent cold misses on the same class to one build.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    detail::CallSegment<Traits>& lead = segs[i];
    if (lead.leader != i || lead.route != DegradeEvent::None) {
      continue;
    }
    lead.plan = Traits::plan_for(*this, lead.shape);
    if constexpr (Traits::gated) {
      if (kernel_verification() && !ensure_verified(*lead.plan)) {
        // Quarantine is detected before execution, so the class's
        // written operands still hold the call's input.
        lead.route = DegradeEvent::QuarantinedKernel;
      }
    }
  }
}

template <class Traits>
void Engine::execute_segments(std::span<detail::CallSegment<Traits>> segs,
                              ThreadPool* pool, const Deadline* deadline) {
  const auto runs = [&](const detail::CallSegment<Traits>& s) {
    return segs[s.leader].route == DegradeEvent::None;
  };
  if (pool == nullptr) {
    for (detail::CallSegment<Traits>& s : segs) {
      if (runs(s)) {
        Traits::execute(*segs[s.leader].plan, s.seg,
                        s.rec ? &*s.rec : nullptr, deadline);
      }
    }
    return;
  }
  // Cut every segment into work items and interleave them round-robin
  // across segments so the pool alternates between size classes.
  std::vector<sched::SegmentExtent> extents(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const detail::CallSegment<Traits>& s = segs[i];
    if (!runs(s)) {
      continue;
    }
    const typename Traits::Plan& plan = *segs[s.leader].plan;
    extents[i].groups = sched::written(s.seg)->groups();
    extents[i].item_groups = sched::item_granularity(
        extents[i].groups, plan.slice_groups(), plan.chunk_groups(),
        static_cast<index_t>(pool->size()));
  }
  const std::vector<sched::WorkItem> items = sched::interleave_slices(extents);
  pool->parallel_for(
      0, static_cast<index_t>(items.size()),
      [&](index_t ib, index_t ie) {
        for (index_t ii = ib; ii < ie; ++ii) {
          const sched::WorkItem& it = items[static_cast<std::size_t>(ii)];
          detail::CallSegment<Traits>& s = segs[it.segment];
          Traits::execute_range(*segs[s.leader].plan, s.seg, it.g_begin,
                                it.g_end, s.rec ? &*s.rec : nullptr,
                                deadline);
        }
      },
      /*grain=*/1, deadline);
}

plan::PlanTuning Engine::resolve_tuning(const TuningConfig& config,
                                        const sched::ClassKey& key,
                                        bool* from_table) const {
  *from_table = false;
  if (config.table != nullptr) {
    if (const tune::TuneRecord* rec =
            config.table->lookup(tune::tune_key(key))) {
      *from_table = true;
      return rec->tuning();
    }
  }
  return config.has_manual ? config.manual : plan::PlanTuning{};
}

void Engine::reconfigure(std::shared_ptr<TuningConfig> next) {
  std::lock_guard<std::mutex> lock(config_mu_);
  // Ordering matters: bump the generation first (gating out every build
  // that resolved against the outgoing config), then wipe the shards, then
  // publish the new config. A build that loads the new config necessarily
  // inserts after the wipe; a build holding the old config sees a
  // generation mismatch and is dropped instead of repopulating the fresh
  // cache with stale tuning.
  next->generation =
      generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> sl(shard.mu);
    shard.snapshot.store(std::shared_ptr<const PlanMap>(),
                         std::memory_order_release);
  }
  tuning_.store(std::shared_ptr<const TuningConfig>(std::move(next)),
                std::memory_order_release);
  tuned_.store(0, std::memory_order_relaxed);
}

void Engine::set_tuning_table(
    std::shared_ptr<const tune::TuningTable> table) {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->table = std::move(table);
  reconfigure(std::move(next));
}

std::shared_ptr<const tune::TuningTable> Engine::tuning_table() const {
  return tuning_.load(std::memory_order_acquire)->table;
}

void Engine::set_plan_tuning(const plan::PlanTuning& tuning) {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->manual = tuning;
  next->has_manual = true;
  reconfigure(std::move(next));
}

void Engine::clear_plan_tuning() {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->manual = plan::PlanTuning{};
  next->has_manual = false;
  reconfigure(std::move(next));
}

plan::PlanTuning Engine::plan_tuning() const {
  const auto config = tuning_.load(std::memory_order_acquire);
  return config->has_manual ? config->manual : plan::PlanTuning{};
}

void Engine::set_plan_cache_capacity(std::size_t capacity) {
  IATF_CHECK(capacity >= 1, "engine: plan cache capacity must be >= 1");
  capacity_.store(capacity, std::memory_order_relaxed);
  const std::size_t cap = shard_capacity();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto old = shard.snapshot.load(std::memory_order_acquire);
    if (!old || old->size() <= cap) {
      continue;
    }
    auto next = std::make_shared<PlanMap>(*old);
    evict_to_capacity(*next, cap);
    shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                         std::memory_order_release);
  }
}

std::size_t Engine::plan_cache_size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
      total += map->size();
    }
  }
  return total;
}

void Engine::clear_plan_cache() {
  const auto current = tuning_.load(std::memory_order_acquire);
  reconfigure(std::make_shared<TuningConfig>(*current));
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.plan_cache_size = plan_cache_size();
  s.plan_cache_capacity = plan_cache_capacity();
  s.hits = plan_cache_hits();
  s.misses = plan_cache_misses();
  s.builds = plan_cache_builds();
  s.tuned = plan_cache_tuned();
  s.evictions = plan_cache_evictions();
  s.degraded_calls = static_cast<std::size_t>(
      degraded_calls_.load(std::memory_order_relaxed));
  s.fallback_lanes = static_cast<std::size_t>(
      fallback_lanes_.load(std::memory_order_relaxed));
  s.timeout_calls = static_cast<std::size_t>(
      timeout_calls_.load(std::memory_order_relaxed));
  s.grouped_calls = static_cast<std::size_t>(
      grouped_calls_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < EngineStats::kGroupedPlanBuckets; ++i) {
    s.distinct_plans_per_call[i] = static_cast<std::size_t>(
        grouped_plan_hist_[i].load(std::memory_order_relaxed));
  }
  s.shed_calls = static_cast<std::size_t>(
      shed_calls_.load(std::memory_order_relaxed));
  s.ref_routed_calls = static_cast<std::size_t>(
      ref_routed_calls_.load(std::memory_order_relaxed));
  s.retries =
      static_cast<std::size_t>(retries_.load(std::memory_order_relaxed));
  s.packed_reuse_hits = static_cast<std::size_t>(
      packed_reuse_hits_.load(std::memory_order_relaxed));
  s.packed_repacks = static_cast<std::size_t>(
      packed_repacks_.load(std::memory_order_relaxed));
  s.verified_kernels = guard_.verified_count();
  s.quarantined_kernels = guard_.quarantined_count();
  s.breaker_transitions = breaker_.summary().transitions;
  s.width16_calls = static_cast<std::size_t>(
      width_calls_[0].load(std::memory_order_relaxed));
  s.width32_calls = static_cast<std::size_t>(
      width_calls_[1].load(std::memory_order_relaxed));
  s.width64_calls = static_cast<std::size_t>(
      width_calls_[2].load(std::memory_order_relaxed));
  return s;
}

void Engine::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  tuned_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  degraded_calls_.store(0, std::memory_order_relaxed);
  fallback_lanes_.store(0, std::memory_order_relaxed);
  timeout_calls_.store(0, std::memory_order_relaxed);
  grouped_calls_.store(0, std::memory_order_relaxed);
  for (auto& bucket : grouped_plan_hist_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  shed_calls_.store(0, std::memory_order_relaxed);
  ref_routed_calls_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  packed_reuse_hits_.store(0, std::memory_order_relaxed);
  packed_repacks_.store(0, std::memory_order_relaxed);
  for (auto& w : width_calls_) {
    w.store(0, std::memory_order_relaxed);
  }
}

EngineHealth Engine::health() const {
  EngineHealth h;
  h.verified_kernels = guard_.verified_count();
  h.quarantined_kernels = guard_.quarantined_count();
  const resilience::CircuitBreaker::Summary s = breaker_.summary();
  h.breaker_closed = s.closed;
  h.breaker_open = s.open;
  h.breaker_half_open = s.half_open;
  h.breaker_transitions = s.transitions;
  h.inflight = inflight_.load(std::memory_order_relaxed);
  h.max_inflight = max_inflight_.load(std::memory_order_relaxed);
  h.shed_calls = static_cast<std::size_t>(
      shed_calls_.load(std::memory_order_relaxed));
  h.ref_routed_calls = static_cast<std::size_t>(
      ref_routed_calls_.load(std::memory_order_relaxed));
  h.retries =
      static_cast<std::size_t>(retries_.load(std::memory_order_relaxed));
  return h;
}

Engine::Admit Engine::admit_call(const Deadline* deadline) {
  const auto try_acquire = [this]() -> bool {
    const std::size_t max = max_inflight_.load(std::memory_order_relaxed);
    std::size_t cur = inflight_.load(std::memory_order_relaxed);
    for (;;) {
      if (max != 0 && cur >= max) {
        return false;
      }
      if (inflight_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
  };
  if (try_acquire()) {
    return Admit::Run;
  }
  switch (overload_policy()) {
  case resilience::OverloadPolicy::ShedNewest:
    // The call never enters the engine: no inflight slot is taken, so
    // the caller must NOT pair this with release_call(). Engine::gemm
    // et al. construct their Release guard only after admit_call
    // returns, which gives exactly that pairing.
    shed_calls_.fetch_add(1, std::memory_order_relaxed);
    throw OverloadError(inflight_.load(std::memory_order_relaxed),
                        max_inflight_.load(std::memory_order_relaxed));
  case resilience::OverloadPolicy::DegradeToRef:
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return Admit::RefRoute;
  case resilience::OverloadPolicy::Block:
    break;
  }
  std::unique_lock<std::mutex> lock(admit_mu_);
  for (;;) {
    if (try_acquire()) {
      return Admit::Run;
    }
    if (deadline != nullptr) {
      if (deadline->expired() ||
          admit_cv_.wait_until(lock, deadline->at) ==
              std::cv_status::timeout) {
        if (try_acquire()) {
          return Admit::Run;
        }
        // Counted here: the caller's Timeout accounting lives inside
        // its try block, which the call never reached.
        timeout_calls_.fetch_add(1, std::memory_order_relaxed);
        throw TimeoutError(0, 1);
      }
    } else {
      // Bounded wait instead of a bare wait(): a release_call or
      // set_max_inflight racing the predicate check can then delay the
      // re-check by at most one tick, never deadlock it.
      admit_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
}

void Engine::release_call() noexcept {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (max_inflight_.load(std::memory_order_relaxed) != 0) {
    // Empty critical section orders the decrement before any blocked
    // admitter's predicate re-check (classic lost-wakeup guard).
    { std::lock_guard<std::mutex> lock(admit_mu_); }
    admit_cv_.notify_one();
  }
}

template <class Plan> bool Engine::ensure_verified(const Plan& plan) {
  switch (plan.verify_state()) {
  case resilience::PlanVerify::Verified:
    return true;
  case resilience::PlanVerify::Quarantined:
    return false;
  case resilience::PlanVerify::Untested:
    break;
  }
  // First dispatch of this plan object: canary every still-untested
  // kernel it references. Concurrent first dispatches may both run the
  // same canary; the ledger transitions are idempotent, so the race only
  // costs a duplicate micro-canary, never an inconsistent verdict.
  bool ok = true;
  for (const resilience::KernelUse& use : plan.kernels_used()) {
    if (!kernel_trusted<typename Plan::value_type, Plan::bytes>(use)) {
      ok = false;
    }
  }
  plan.set_verify_state(ok ? resilience::PlanVerify::Verified
                           : resilience::PlanVerify::Quarantined);
  if (!ok) {
    invalidate_quarantined_plans();
  }
  return ok;
}

template <class T, int Bytes>
bool Engine::kernel_trusted(const resilience::KernelUse& use) {
  const resilience::KernelId id{use.kind, dtype_tag<T>(), Bytes, use.m,
                                use.n};
  switch (guard_.state(id)) {
  case resilience::KernelState::Verified:
    return true;
  case resilience::KernelState::Quarantined:
    return false;
  case resilience::KernelState::Untested:
    break;
  }
  if (verify_kernel<T, Bytes>(use)) {
    guard_.mark_verified(id);
    return true;
  }
  guard_.mark_quarantined(id);
  journal_quarantine(id);
  return false;
}

template <class T, int Bytes>
bool Engine::verify_kernel(const resilience::KernelUse& use) {
  using Gemm = detail::GemmOp<T, Bytes>;
  using Trsm = detail::TrsmOp<T, Bytes>;
  try {
    // The verification itself is a fault site (tests quarantine a chosen
    // kernel by arming it). Everything below runs with unrelated
    // injection suppressed: an armed "alloc" fault meant for the call
    // under test must be neither consumed by the canary nor allowed to
    // quarantine a good kernel.
    IATF_FAULT_POINT("resilience.verify", ::iatf::Status::Internal);
    fault::SuppressionScope suppress;
    switch (use.kind) {
    case 'g':
      return run_canary<Gemm>(use, cache_);
    case 'r':
      // Attribution guard: the rect canary exercises tri(m, n) too, so a
      // broken tri partner would condemn an innocent rect. Canary the tri
      // first; if IT is broken, report the rect as passing -- every plan
      // dispatching rect(m, n) also dispatches tri(m, n), whose own
      // quarantine already taints the plan.
      if (!run_canary<Trsm>(resilience::KernelUse{'t', use.m, use.n},
                            cache_)) {
        return true;
      }
      [[fallthrough]];
    case 't':
    case 'm':
      return run_canary<Trsm>(use, cache_);
    default:
      return true;
    }
  } catch (...) {
    return false; // a throwing kernel is as quarantined as a wrong one
  }
}

void Engine::invalidate_quarantined_plans() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto old = shard.snapshot.load(std::memory_order_acquire);
    if (!old) {
      continue;
    }
    bool dirty = false;
    auto next = std::make_shared<PlanMap>();
    next->reserve(old->size());
    for (const auto& [key, entry] : *old) {
      if (guard_.any_quarantined(entry->kernels)) {
        dirty = true;
        continue; // drop: rebuilt via single-flight on the next miss
      }
      (*next)[key] = entry;
    }
    if (dirty) {
      shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                           std::memory_order_release);
    }
  }
}

template <class T, int Bytes>
std::size_t Engine::self_test_type() {
  using Limits = kernels::KernelLimits<T>;
  std::size_t quarantined = 0;
  const auto check = [&](char kind, int m, int n) {
    if (!kernel_trusted<T, Bytes>(resilience::KernelUse{kind, m, n})) {
      ++quarantined;
    }
  };
  for (int m = 1; m <= Limits::gemm_max_mc; ++m) {
    for (int n = 1; n <= Limits::gemm_max_nc; ++n) {
      check('g', m, n);
    }
  }
  for (int m = 1; m <= Limits::tri_max_m; ++m) {
    for (int n = 1; n <= Limits::tri_max_nc; ++n) {
      check('t', m, n);
      check('m', m, n);
    }
  }
  for (int m = 1; m <= Limits::rect_max_mc; ++m) {
    for (int n = 1; n <= Limits::rect_max_nc; ++n) {
      check('r', m, n);
    }
  }
  return quarantined;
}

std::size_t Engine::self_test() {
  std::size_t quarantined = 0;
  quarantined += self_test_type<float, 16>();
  quarantined += self_test_type<double, 16>();
  quarantined += self_test_type<std::complex<float>, 16>();
  quarantined += self_test_type<std::complex<double>, 16>();
  quarantined += self_test_type<float, 32>();
  quarantined += self_test_type<double, 32>();
  quarantined += self_test_type<std::complex<float>, 32>();
  quarantined += self_test_type<std::complex<double>, 32>();
  quarantined += self_test_type<float, 64>();
  quarantined += self_test_type<double, 64>();
  quarantined += self_test_type<std::complex<float>, 64>();
  quarantined += self_test_type<std::complex<double>, 64>();
  if (quarantined > 0) {
    invalidate_quarantined_plans();
  }
  return quarantined;
}

resilience::BreakerState
Engine::breaker_state(const sched::ClassKey& key) const {
  return breaker_.slot_state(sched::ClassKeyHash{}(key));
}

// --- Crash-consistent health ledger (DESIGN.md section 14) --------------

resilience::LedgerLoad Engine::set_health_ledger(const std::string& path) {
  auto ledger = std::make_shared<resilience::HealthLedger>(path);
  const resilience::LedgerLoad result = ledger->load();
  // Replay before publishing: journaling is suspended until the new
  // ledger is installed, so replayed quarantines are not re-appended.
  bool any_quarantine = false;
  for (const resilience::LedgerRecord& rec : ledger->records()) {
    switch (rec.kind) {
    case resilience::LedgerRecord::Kind::KernelQuarantine:
      // Replay only ever quarantines -- a ledger cannot mark anything
      // Verified, so "verify never resurrects" holds across restarts.
      guard_.mark_quarantined(rec.kernel);
      any_quarantine = true;
      break;
    case resilience::LedgerRecord::Kind::BreakerTrip:
    case resilience::LedgerRecord::Kind::WatchdogReclaim:
      // Restart posture for a recently-tripped class: probe before
      // trusting the fast path again. No-op while the breaker is
      // disabled (the record stays journaled for a configured restart).
      breaker_.seed_half_open(static_cast<std::size_t>(rec.slot));
      break;
    case resilience::LedgerRecord::Kind::Degrade:
      break; // informational: stats only
    }
  }
  if (any_quarantine) {
    invalidate_quarantined_plans();
  }
  {
    std::lock_guard<std::mutex> lk(ledger_mu_);
    ledger_ = std::move(ledger);
  }
  return result;
}

std::shared_ptr<resilience::HealthLedger> Engine::health_ledger() const {
  std::lock_guard<std::mutex> lk(ledger_mu_);
  return ledger_;
}

void Engine::journal_quarantine(const resilience::KernelId& id) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::KernelQuarantine;
    rec.kernel = id;
    ledger->append(rec);
  }
}

void Engine::journal_breaker_trip(std::size_t slot_hash) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::BreakerTrip;
    rec.slot = static_cast<std::uint64_t>(slot_hash);
    ledger->append(rec);
  }
}

void Engine::journal_watchdog(std::size_t slot_hash) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::WatchdogReclaim;
    rec.slot = static_cast<std::uint64_t>(slot_hash);
    ledger->append(rec);
  }
}

void Engine::journal_degrade(unsigned events) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::Degrade;
    rec.events = events;
    ledger->append(rec);
  }
}

void Engine::record_breaker(std::size_t slot_hash, bool degraded,
                            bool probe) {
  if (breaker_.record(slot_hash, degraded, probe)) {
    journal_breaker_trip(slot_hash);
  }
}

void Engine::trip_class(const sched::ClassKey& key, int cooldown_calls) {
  if (cooldown_calls < 0) {
    cooldown_calls = breaker_.config().cooldown;
  }
  const std::size_t slot = sched::ClassKeyHash{}(key);
  breaker_.force_open(slot, cooldown_calls);
  journal_watchdog(slot);
  journal_degrade(static_cast<unsigned>(DegradeEvent::BreakerOpen));
}

Engine& Engine::default_engine() {
  // Function-local static: constructed on first use, destroyed in reverse
  // construction order during static destruction. ThreadPool::global()
  // (when used) is its own function-local static whose destructor joins
  // the workers, so by the time this engine is destroyed no worker can be
  // touching a cached plan. See the header for the full teardown contract.
  static Engine engine;
  return engine;
}

// The packed-handle and factorisation entry points (engine_factor.cpp)
// run on the same call pipeline.
#define IATF_INSTANTIATE_ENGINE(T, Bytes)                                    \
  template std::shared_ptr<const plan::GemmPlan<T, Bytes>>                  \
  Engine::plan_gemm<T, Bytes>(const GemmShape&);                            \
  template std::shared_ptr<const plan::TrsmPlan<T, Bytes>>                  \
  Engine::plan_trsm<T, Bytes>(const TrsmShape&);                            \
  template std::shared_ptr<const factor::FactorPlan<T, Bytes>>              \
  Engine::plan_factor<T, Bytes>(const factor::FactorShape&);                \
  template BatchHealth Engine::gemm<T, Bytes>(                              \
      Op, Op, T, const CompactBuffer<T>&, const CompactBuffer<T>&, T,       \
      CompactBuffer<T>&);                                                   \
  template BatchHealth Engine::trsm<T, Bytes>(Side, Uplo, Op, Diag, T,      \
                                              const CompactBuffer<T>&,      \
                                              CompactBuffer<T>&);           \
  template BatchHealth Engine::trmm<T, Bytes>(Side, Uplo, Op, Diag, T,      \
                                              const CompactBuffer<T>&,      \
                                              CompactBuffer<T>&);           \
  template BatchHealth Engine::run_one<detail::GemmOp<T, Bytes>>(           \
      const sched::GemmSegment<T>&);                                        \
  template BatchHealth Engine::run_one<detail::TrsmOp<T, Bytes>>(           \
      const sched::TrsmSegment<T>&);                                        \
  template BatchHealth Engine::run_one<detail::FactorOp<T, Bytes>>(         \
      const sched::FactorSegment<T>&);                                      \
  template std::vector<BatchHealth> Engine::gemm_grouped<T, Bytes>(         \
      std::span<const sched::GemmSegment<T>>);                              \
  template std::vector<BatchHealth> Engine::trsm_grouped<T, Bytes>(         \
      std::span<const sched::TrsmSegment<T>>);                              \
  template std::vector<BatchHealth>                                         \
  Engine::grouped<detail::FactorOp<T, Bytes>>(                              \
      std::span<const sched::FactorSegment<T>>);

IATF_INSTANTIATE_ENGINE(float, 16)
IATF_INSTANTIATE_ENGINE(double, 16)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 16)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 16)
IATF_INSTANTIATE_ENGINE(float, 32)
IATF_INSTANTIATE_ENGINE(double, 32)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 32)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 32)
IATF_INSTANTIATE_ENGINE(float, 64)
IATF_INSTANTIATE_ENGINE(double, 64)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 64)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 64)

#undef IATF_INSTANTIATE_ENGINE

} // namespace iatf
