// serve-open: traffic from one generator thread into an in-process
// serve::Server (one dispatcher thread). Tiny batches (2x the default pack
// width, the buffers iatf_served builds) from 4 tenants with weights
// 1,1,1,2; ~70% of requests in two hot classes (d and s 8x8x8 GEMM), the
// rest spread over 11 cold classes. Phases: Poisson open loop at the fixed
// `low` and `mid` rates, one synchronous caller, and a saturated server.
//
// Open-loop requests are timed from their due time, not their send time,
// so a stall is charged to every request due during it; the generator's
// own lateness (gen.lag_p99_us) is a validity check.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/bench_common.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/serve/server.hpp"
#include "layers.hpp"
#include "schedule.hpp"

namespace pb {
namespace {

using namespace iatf;

// ---- Fixed rates, calibrated once on the parent commit (NOTES.md) ------
// `serve-open-calibrate` measured the mix's capacity at ~145k req/s (the
// generator fell behind at 157k); `low` is ~15% of it and `mid` ~50%.
constexpr double kLowRps = 22000.0;
constexpr double kMidRps = 75000.0;
/// Calibration ladder: kLadderBase * 1.05^k, k = 0..kLadderSteps-1,
/// walked by `serve-open-calibrate` (every other step).
constexpr double kLadderBase = 60000.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderSteps = 30;
/// p99 latency limit (from due time) a ladder step must meet, taken as
/// the median over the step's windows. Below saturation the calibration
/// host's p99 ranged 0.1-10 ms, set by hypervisor pauses of its vCPUs;
/// the limit sits above that floor so that it trips on queueing.
constexpr double kP99LimitUs = 20000.0;
/// Backlog growth (requests) across a step that counts as a growing
/// backlog: the median outstanding count must rise from each quarter of
/// the step to the next and by more than this from first to last. A
/// host pause makes a bump that drains; it does not rise monotonically.
constexpr double kBacklogGrowth = 256.0;
/// Generator lateness at which a calibration step is abandoned as
/// overloaded.
constexpr std::int64_t kAbortLagNs = 50'000'000;

/// Latency windows per fixed-rate phase; a percentile is reported as the
/// median of the per-window percentiles.
constexpr int kWindows = 10;
constexpr const char* kWindowNote = "median of 10 windows";

/// Requests the saturation phase keeps outstanding (the server's queue
/// holds 1024).
constexpr std::uint64_t kSaturationWindow = 512;
/// Saturated throughput is taken over windows this short, so a host
/// pause empties a few windows instead of lowering one long average.
constexpr std::int64_t kRateWindowNs = 20'000'000;

constexpr int kVariants = 4;
constexpr int kHotSlots = 1280;
constexpr int kColdSlots = 256;
constexpr std::array<double, 4> kTenantWeights = {1, 1, 1, 2};

/// One request's record; written by the generator at submit and by the
/// completion callback on the dispatcher thread.
struct Rec {
  std::int64_t due_ns = 0;  ///< absolute due time
  std::int64_t done_ns = 0; ///< absolute completion time
  std::atomic<int> status{-1}; ///< -1 pending, else iatf::Status
  std::uint16_t cls = 0;
  std::uint8_t variant = 0;
  std::uint32_t lane = 0;
  bool wrong = false;
  std::atomic<int>* slot_state = nullptr;
};

enum SlotState : int { kFree = 0, kBusy = 1, kDone = 2 };

/// Shared completion bookkeeping.
struct Tally {
  std::atomic<std::uint64_t> done{0};
};

/// One request class: operands, expected results, output slots.
class Klass {
public:
  virtual ~Klass() = default;
  /// Submit `rec` (slot already chosen) through `srv`.
  virtual void submit(serve::Server& srv, Rec& rec, int slot,
                      serve::SubmitOptions opts, Tally& tally) = 0;
  /// Does the slot's output match the expected result for `rec`?
  virtual bool matches(const Rec& rec, int slot) const = 0;
  virtual double flops() const = 0;
  virtual std::string name() const = 0;
  /// Build the compact operands and the output slots from the host data
  /// (part of set-up); every slot starts free.
  virtual void build() = 0;

  int slots() const { return static_cast<int>(state_.size()); }
  std::atomic<int>& state(int slot) { return state_[slot]; }
  int& cursor() { return cursor_; }
  std::vector<Rec*>& owner() { return owner_; }

protected:
  explicit Klass(int slots) : state_(slots), owner_(slots, nullptr) {}
  void reset_slots() {
    for (auto& st : state_) {
      st.store(kFree, std::memory_order_relaxed);
    }
    std::fill(owner_.begin(), owner_.end(), nullptr);
    cursor_ = 0;
  }

private:
  std::vector<std::atomic<int>> state_;
  std::vector<Rec*> owner_; ///< record whose output occupies each slot
  int cursor_ = 0;
};

/// Completion callback. Store order matters: status, then the slot state
/// (after which the callback no longer touches `rec`), then the tally.
serve::Server::Completion completion(Rec& rec, Tally& tally) {
  return [r = &rec, t = &tally](Status st, const BatchHealth&) {
    r->done_ns = now_ns();
    r->status.store(static_cast<int>(st), std::memory_order_release);
    r->slot_state->store(kDone, std::memory_order_release);
    t->done.fetch_add(1, std::memory_order_release);
  };
}

template <class T> bool close(T got, T want, int n) {
  const double eps = std::numeric_limits<real_t<T>>::epsilon();
  return std::abs(got - want) <=
         32.0 * eps * n * (1.0 + std::abs(want));
}

template <class T> class GemmClass final : public Klass {
public:
  GemmClass(int n, int slots, std::uint64_t seed, std::uint64_t tag)
      : Klass(slots), n_(n), batch_(2 * simd::pack_width_v<T>) {
    Rng rng(Stream(seed, 0x5e0000 + tag).next());
    const std::size_t elems = static_cast<std::size_t>(n * n * batch_);
    for (int v = 0; v < kVariants; ++v) {
      std::vector<T> ha(elems), hb(elems), want(elems);
      rng.fill<T>(ha);
      rng.fill<T>(hb);
      for (index_t l = 0; l < batch_; ++l) {
        ref::gemm<T>(Op::NoTrans, Op::NoTrans, n, n, n, T(1),
                     ha.data() + l * n * n, n, hb.data() + l * n * n, n,
                     T(0), want.data() + l * n * n, n);
      }
      ha_.push_back(std::move(ha));
      hb_.push_back(std::move(hb));
      want_.push_back(std::move(want));
    }
  }
  void build() override {
    reset_slots();
    a_.clear();
    b_.clear();
    c_.clear();
    for (int v = 0; v < kVariants; ++v) {
      a_.push_back(to_compact<T>(ha_[v].data(), n_, n_, n_, n_ * n_, batch_));
      b_.push_back(to_compact<T>(hb_[v].data(), n_, n_, n_, n_ * n_, batch_));
    }
    for (int s = 0; s < slots(); ++s) {
      c_.emplace_back(n_, n_, batch_);
    }
  }
  void submit(serve::Server& srv, Rec& rec, int slot,
              serve::SubmitOptions opts, Tally& tally) override {
    (void)srv.submit_gemm<T>(Op::NoTrans, Op::NoTrans, T(1), a_[rec.variant],
                             b_[rec.variant], T(0), c_[slot], opts,
                             completion(rec, tally));
  }
  bool matches(const Rec& rec, int slot) const override {
    const index_t lane = rec.lane % batch_;
    const T* want = want_[rec.variant].data() + lane * n_ * n_;
    for (index_t j = 0; j < n_; ++j) {
      for (index_t i = 0; i < n_; ++i) {
        if (!close(c_[slot].get(lane, i, j), want[j * n_ + i], n_)) {
          return false;
        }
      }
    }
    return true;
  }
  double flops() const override {
    return gemm_flops<T>({n_, n_, n_, Op::NoTrans, Op::NoTrans, batch_});
  }
  std::string name() const override {
    return std::string(std::is_same_v<T, float> ? "s" : "d") + "gemm" +
           std::to_string(n_);
  }

  index_t n_, batch_;
  std::vector<std::vector<T>> ha_, hb_, want_; ///< host data per variant
  std::vector<CompactBuffer<T>> a_, b_, c_;
};

template <class T> class TrsmClass final : public Klass {
public:
  TrsmClass(int n, int slots, std::uint64_t seed, std::uint64_t tag)
      : Klass(slots), n_(n), batch_(2 * simd::pack_width_v<T>) {
    Rng rng(Stream(seed, 0x5e0000 + tag).next());
    for (int v = 0; v < kVariants; ++v) {
      const auto ha = bench::random_host_triangular<T>(n, batch_, rng);
      const auto hb = bench::random_host_batch<T>(n, n, batch_, rng);
      std::vector<T> want(hb.data);
      for (index_t l = 0; l < batch_; ++l) {
        ref::trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, n,
                     n, T(1), ha.mat(l), n, want.data() + l * n * n, n);
      }
      ha_.push_back(ha);
      hb_.push_back(hb);
      want_.push_back(std::move(want));
    }
  }
  void build() override {
    reset_slots();
    a_.clear();
    b_.clear();
    b0_.clear();
    for (int v = 0; v < kVariants; ++v) {
      a_.push_back(bench::to_compact_buffer(ha_[v], simd::pack_width_v<T>));
      a_.back().pad_identity();
      const CompactBuffer<T> b =
          bench::to_compact_buffer(hb_[v], simd::pack_width_v<T>);
      b0_.emplace_back(b.data(), b.data() + b.size());
    }
    for (int s = 0; s < slots(); ++s) {
      b_.emplace_back(n_, n_, batch_);
    }
  }
  void submit(serve::Server& srv, Rec& rec, int slot,
              serve::SubmitOptions opts, Tally& tally) override {
    const auto& b0 = b0_[rec.variant];
    std::memcpy(b_[slot].data(), b0.data(), b0.size() * sizeof(b0[0]));
    (void)srv.submit_trsm<T>(Side::Left, Uplo::Lower, Op::NoTrans,
                             Diag::NonUnit, T(1), a_[rec.variant], b_[slot],
                             opts, completion(rec, tally));
  }
  bool matches(const Rec& rec, int slot) const override {
    const index_t lane = rec.lane % batch_;
    const T* want = want_[rec.variant].data() + lane * n_ * n_;
    for (index_t j = 0; j < n_; ++j) {
      for (index_t i = 0; i < n_; ++i) {
        if (!close(b_[slot].get(lane, i, j), want[j * n_ + i], n_)) {
          return false;
        }
      }
    }
    return true;
  }
  double flops() const override {
    return trsm_flops<T>({n_, n_, Side::Left, Uplo::Lower, Op::NoTrans,
                          Diag::NonUnit, batch_});
  }
  std::string name() const override { return "dtrsm" + std::to_string(n_); }

  index_t n_, batch_;
  std::vector<bench::HostBatch<T>> ha_, hb_; ///< host data per variant
  std::vector<std::vector<T>> want_;
  std::vector<CompactBuffer<T>> a_, b_;
  std::vector<std::vector<real_t<T>>> b0_; ///< pristine B per variant
};

/// The request mix: class list and weights. Class 0 is the hot d class.
struct Mix {
  std::vector<std::unique_ptr<Klass>> classes;
  std::vector<double> weights;
};

Mix make_mix(std::uint64_t seed) {
  Mix mix;
  std::uint64_t tag = 0;
  mix.classes.push_back(std::make_unique<GemmClass<double>>(8, kHotSlots, seed, tag++));
  mix.classes.push_back(std::make_unique<GemmClass<float>>(8, kHotSlots, seed, tag++));
  mix.weights = {0.35, 0.35};
  for (int n : {4, 12, 16, 24, 33}) {
    mix.classes.push_back(std::make_unique<GemmClass<double>>(n, kColdSlots, seed, tag++));
    mix.classes.push_back(std::make_unique<GemmClass<float>>(n, kColdSlots, seed, tag++));
  }
  mix.classes.push_back(std::make_unique<TrsmClass<double>>(8, kColdSlots, seed, tag++));
  const double cold = 0.30 / static_cast<double>(mix.classes.size() - 2);
  mix.weights.resize(mix.classes.size(), cold);
  return mix;
}

struct Bench {
  const Args& args;
  Report& rep;
  Mix mix;
  std::unique_ptr<Engine> eng;
  std::unique_ptr<serve::Server> srv;
  Tally tally;
  std::uint64_t submitted = 0; ///< generator-side count
  std::vector<std::vector<Rec>> orphans; ///< records of unresolved requests
};

std::unique_ptr<serve::Server> start_server(Engine& eng) {
  serve::ServeConfig cfg;
  cfg.overload = resilience::OverloadPolicy::Block;
  auto srv = std::make_unique<serve::Server>(eng, cfg);
  for (std::size_t t = 0; t < kTenantWeights.size(); ++t) {
    srv->set_tenant_weight(static_cast<serve::TenantId>(t),
                           static_cast<std::uint32_t>(kTenantWeights[t]));
  }
  return srv;
}

/// Verify (if done) and free a slot; returns false while still busy.
bool reclaim(Klass& k, int slot, Ops& ops) {
  std::atomic<int>& st = k.state(slot);
  const int s = st.load(std::memory_order_acquire);
  if (s == kBusy) {
    return false;
  }
  if (s == kDone) {
    Rec* rec = k.owner()[slot];
    const int status = rec->status.load(std::memory_order_acquire);
    if (status != static_cast<int>(Status::Ok)) {
      ++ops.failed;
    } else if (!k.matches(*rec, slot)) {
      rec->wrong = true;
      ++ops.failed;
    } else {
      ++ops.ok;
    }
    st.store(kFree, std::memory_order_relaxed);
  }
  return true;
}

/// Next free slot of a class (spins while every slot is in flight).
int acquire_slot(Klass& k, Ops& ops) {
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  while (now_ns() < give_up) {
    for (int tries = 0; tries < k.slots(); ++tries) {
      const int slot = k.cursor();
      k.cursor() = (slot + 1) % k.slots();
      if (reclaim(k, slot, ops)) {
        return slot;
      }
    }
    cpu_relax();
  }
  throw std::runtime_error("serve-open: no " + k.name() +
                           " slot freed within 10 s");
}

/// Wait for every submitted request, then verify every finished slot.
void settle(Bench& b, Ops& ops) {
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  while (b.tally.done.load(std::memory_order_acquire) < b.submitted &&
         now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& k : b.mix.classes) {
    for (int s = 0; s < k->slots(); ++s) {
      if (!reclaim(*k, s, ops)) {
        ++ops.unresolved; // never answered; the slot stays unusable
      }
    }
  }
}

/// Wait for an absolute due time. Spins: a timed sleep overshoots by
/// hundreds of microseconds at the tail, which would show up as generator
/// lag. Only gaps beyond 5 ms sleep, and wake 2 ms early.
void wait_until(std::int64_t t) {
  for (std::int64_t now = now_ns(); now < t; now = now_ns()) {
    if (t - now > 5'000'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - 2'000'000));
    } else {
      cpu_relax();
    }
  }
}

/// Median over windows of the per-window q-percentile; `beyond` is the
/// smallest count beyond it in any window.
Percentile windowed(const std::vector<std::vector<double>>& windows,
                    double q) {
  std::vector<double> per;
  Percentile out;
  out.beyond = windows.empty() ? 0 : ~std::size_t{0};
  for (const auto& w : windows) {
    const Percentile pw = percentile(w, q);
    per.push_back(pw.value);
    out.samples += pw.samples;
    out.beyond = std::min(out.beyond, pw.beyond);
  }
  out.value = median(per);
  return out;
}

struct Phase {
  Ops ops;
  std::vector<double> lat_us;                 ///< ok requests, from due
  std::vector<std::vector<double>> cls_lat_us;
  std::vector<double> lag_us;
  std::vector<double> submit_ns;              ///< traced runs only
  std::vector<double> queued;
  std::vector<double> outstanding;            ///< sampled every ~1 ms
  serve::ServerStats before, after;
  double seconds = 0.0;
  bool aborted = false;
  bool growing = false;
  std::vector<std::vector<double>> win_lat_us; ///< by due-time window
  std::vector<double> win_rate; ///< ok completions/s per kRateWindowNs

  Percentile p(double q) const { return percentile(lat_us, q); }
  /// The q-percentile of each window, then the median across windows: a
  /// pause of the host that spoils one window does not move it.
  Percentile windowed(double q) const { return pb::windowed(win_lat_us, q); }
};

/// Run one open-loop phase at `rate` for `seconds`, its latencies split
/// into `windows` windows by due time. With `may_abort` the phase stops
/// once the generator runs kAbortLagNs late.
Phase run_phase(Bench& b, std::uint64_t tag, double rate, double seconds,
                bool traced, int windows = 1, bool may_abort = false) {
  Phase ph;
  const auto arrivals =
      open_schedule(b.args.seed, tag, rate, seconds, b.mix.weights,
                    kTenantWeights, kVariants);
  std::vector<Rec> recs(arrivals.size());
  ph.before = b.srv->stats();
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::int64_t next_sample = t0;
  std::size_t sent = 0;
  for (; sent < arrivals.size(); ++sent) {
    const Arrival& a = arrivals[sent];
    Rec& rec = recs[sent];
    rec.due_ns = t0 + a.due_ns;
    rec.cls = a.cls;
    rec.variant = a.variant;
    rec.lane = a.lane;
    wait_until(rec.due_ns);
    const std::int64_t start = now_ns();
    if (may_abort && start - rec.due_ns > kAbortLagNs) {
      ph.aborted = true;
      break;
    }
    if (start >= next_sample) {
      next_sample = start + 1'000'000;
      ph.outstanding.push_back(static_cast<double>(
          b.submitted - b.tally.done.load(std::memory_order_relaxed)));
      if (ph.outstanding.size() % 4 == 0) {
        ph.queued.push_back(static_cast<double>(b.srv->stats().queued));
      }
    }
    Klass& k = *b.mix.classes[a.cls];
    const int slot = acquire_slot(k, ph.ops);
    k.owner()[slot] = &rec;
    rec.slot_state = &k.state(slot);
    k.state(slot).store(kBusy, std::memory_order_relaxed);
    serve::SubmitOptions opts;
    opts.tenant = a.tenant;
    const std::int64_t s0 = now_ns();
    ph.lag_us.push_back(static_cast<double>(s0 - rec.due_ns) * 1e-3);
    k.submit(*b.srv, rec, slot, opts, b.tally);
    ++b.submitted;
    if (traced) {
      const std::int64_t s1 = now_ns();
      ph.submit_ns.push_back(static_cast<double>(s1 - s0));
      b.rep.trace.record("serve.submit", s0, s1);
    }
  }
  ph.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  settle(b, ph.ops);
  ph.after = b.srv->stats();
  if (b.tally.done.load() < b.submitted) {
    // Unresolved requests may still complete into their records.
    b.orphans.push_back(std::move(recs));
    return ph;
  }

  ph.cls_lat_us.resize(b.mix.classes.size());
  ph.win_lat_us.resize(windows);
  std::vector<std::int64_t> done;
  const double win_ns = seconds * 1e9 / windows;
  for (std::size_t i = 0; i < sent; ++i) {
    const Rec& r = recs[i];
    if (r.status.load() == static_cast<int>(Status::Ok) && !r.wrong) {
      const double us = static_cast<double>(r.done_ns - r.due_ns) * 1e-3;
      ph.lat_us.push_back(us);
      ph.cls_lat_us[r.cls].push_back(us);
      const auto w = static_cast<std::size_t>(arrivals[i].due_ns / win_ns);
      ph.win_lat_us[std::min<std::size_t>(w, windows - 1)].push_back(us);
      done.push_back(r.done_ns);
      if (traced) {
        b.rep.trace.record("serve.request", r.due_ns, r.done_ns);
      }
    }
  }
  ph.win_rate = window_rates(
      done, t0, t0 + static_cast<std::int64_t>(seconds * 1e9), kRateWindowNs);
  // Growing backlog (see kBacklogGrowth).
  const std::size_t q = ph.outstanding.size() / 4;
  if (q > 0) {
    double quarter[4];
    for (std::size_t i = 0; i < 4; ++i) {
      const auto first = ph.outstanding.begin() + i * q;
      quarter[i] = median({first, first + q});
    }
    ph.growing = quarter[0] < quarter[1] && quarter[1] < quarter[2] &&
                 quarter[2] < quarter[3] &&
                 quarter[3] - quarter[0] > kBacklogGrowth;
  }
  return ph;
}

/// Closed loop, one request at a time (submit -> future), over the mix:
/// round-trip latencies, overall and per class.
struct ClosedRtt {
  std::vector<double> us;
  std::vector<std::vector<double>> cls_us;
  std::vector<std::vector<double>> win_us; ///< by time window
};



ClosedRtt closed_rtt(Bench& b, std::uint64_t tag, double seconds, Ops& ops,
                     int windows) {
  // The schedule supplies the class/variant sequence; due times unused.
  const auto arrivals = open_schedule(b.args.seed, tag, 200000.0, seconds,
                                      b.mix.weights, kTenantWeights,
                                      kVariants);
  std::vector<Rec> recs(arrivals.size());
  ClosedRtt out;
  out.cls_us.resize(b.mix.classes.size());
  out.win_us.resize(windows);
  const double win_ns = seconds * 1e9 / windows;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < arrivals.size() && now_ns() < end; ++i) {
    Rec& rec = recs[i];
    rec.cls = arrivals[i].cls;
    rec.variant = arrivals[i].variant;
    rec.lane = arrivals[i].lane;
    Klass& k = *b.mix.classes[rec.cls];
    const int slot = acquire_slot(k, ops);
    k.owner()[slot] = &rec;
    rec.slot_state = &k.state(slot);
    k.state(slot).store(kBusy, std::memory_order_relaxed);
    serve::SubmitOptions opts;
    opts.tenant = arrivals[i].tenant;
    rec.due_ns = now_ns();
    k.submit(*b.srv, rec, slot, opts, b.tally);
    ++b.submitted;
    while (rec.status.load(std::memory_order_acquire) < 0) {
      cpu_relax();
    }
    const double us = static_cast<double>(rec.done_ns - rec.due_ns) * 1e-3;
    out.us.push_back(us);
    out.cls_us[rec.cls].push_back(us);
    const auto w = static_cast<std::size_t>(
        static_cast<double>(rec.done_ns - t0) / win_ns);
    out.win_us[std::min<std::size_t>(w, windows - 1)].push_back(us);
  }
  settle(b, ops);
  return out;
}

/// Saturation: keep kSaturationWindow requests outstanding from the
/// generator (class sequence from the seed) for `seconds`; the completion
/// rate of each kRateWindowNs window.
std::vector<double> saturate(Bench& b, std::uint64_t tag, double seconds,
                             Ops& ops) {
  const auto arrivals = open_schedule(b.args.seed, tag, 400000.0, seconds,
                                      b.mix.weights, kTenantWeights,
                                      kVariants);
  std::vector<Rec> recs(arrivals.size());
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t sent = 0;
  for (; sent < arrivals.size() && now_ns() < end; ++sent) {
    while (b.submitted - b.tally.done.load(std::memory_order_acquire) >=
           kSaturationWindow) {
      cpu_relax();
    }
    Rec& rec = recs[sent];
    rec.cls = arrivals[sent].cls;
    rec.variant = arrivals[sent].variant;
    rec.lane = arrivals[sent].lane;
    Klass& k = *b.mix.classes[rec.cls];
    const int slot = acquire_slot(k, ops);
    k.owner()[slot] = &rec;
    rec.slot_state = &k.state(slot);
    k.state(slot).store(kBusy, std::memory_order_relaxed);
    serve::SubmitOptions opts;
    opts.tenant = arrivals[sent].tenant;
    k.submit(*b.srv, rec, slot, opts, b.tally);
    ++b.submitted;
  }
  settle(b, ops);
  std::vector<std::int64_t> done;
  for (std::size_t i = 0; i < sent; ++i) {
    done.push_back(recs[i].done_ns);
  }
  return window_rates(done, t0, end, kRateWindowNs);
}

double ladder_rate(int k) { return kLadderBase * std::pow(kLadderRatio, k); }

/// Request buffers (compact operands, output slots), a fresh engine and
/// server, warmed with one request per class (plans built, kernels
/// verified).
void set_up(Bench& b) {
  b.srv.reset();
  for (auto& k : b.mix.classes) {
    k->build();
  }
  b.eng = std::make_unique<Engine>();
  b.srv = start_server(*b.eng);
  Ops warm;
  for (std::size_t c = 0; c < b.mix.classes.size(); ++c) {
    Rec rec;
    Klass& k = *b.mix.classes[c];
    const int slot = acquire_slot(k, warm);
    k.owner()[slot] = &rec;
    rec.slot_state = &k.state(slot);
    k.state(slot).store(kBusy, std::memory_order_relaxed);
    k.submit(*b.srv, rec, slot, {}, b.tally);
    ++b.submitted;
    while (k.state(slot).load(std::memory_order_acquire) != kDone) {
      cpu_relax();
    }
    if (!reclaim(k, slot, warm) || warm.not_ok() != 0) {
      throw std::runtime_error("serve-open: warm-up request failed");
    }
  }
}

} // namespace

void run_serve_calibrate(const Args& args, Report& rep) {
  Bench b{args, rep, make_mix(args.seed), nullptr, nullptr, {}, 0, {}};
  set_up(b);
  Ops ops;
  (void)run_phase(b, 4, kMidRps, 0.5, false); // warm-up
  int best = -1;
  for (int k = 0; k < kLadderSteps; k += 2) {
    const double rate = ladder_rate(k);
    const Phase ph = run_phase(b, 100 + k, rate, args.seconds, false, 4, true);
    ops += ph.ops;
    const Percentile p99 = ph.windowed(0.99);
    const bool pass = !ph.aborted && !ph.growing && ph.ops.not_ok() == 0 &&
                      p99.valid() && p99.value <= kP99LimitUs;
    if (pass) {
      best = k;
    }
    std::printf("calibrate rate=%.0f done_rps=%.0f p50_us=%.1f p90_us=%.1f "
                "p99_us=%.1f p99_windowed_us=%.1f lag_p99_us=%.1f "
                "growing=%d aborted=%d pass=%d\n",
                rate, static_cast<double>(ph.lat_us.size()) / ph.seconds,
                ph.p(0.5).value, ph.p(0.9).value, ph.p(0.99).value, p99.value,
                percentile(ph.lag_us, 0.99).value, ph.growing, ph.aborted,
                pass);
    std::fflush(stdout);
    if (ph.aborted) {
      break;
    }
  }
  const std::vector<double> sat = saturate(b, 5, args.seconds, ops);
  std::printf("calibrate saturated_rps=%.0f limit_rps=%.0f\n", median(sat),
              best >= 0 ? ladder_rate(best) : 0.0);
  rep.ops += ops;
  b.srv->drain();
}

void run_serve_open(const Args& args, Report& rep) {
  Bench b{args, rep, make_mix(args.seed), nullptr, nullptr, {}, 0, {}};
  const double s = args.seconds;

  std::vector<double> setup_s;
  // Set-up is tens of milliseconds, not far above a host pause: take the
  // median of several.
  constexpr int kSetupReps = 9;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    set_up(b);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Ops ops;
  const auto tally_phase = [&](const Phase& ph, const char* name,
                               double rate) {
    ops += ph.ops;
    char line[200];
    std::snprintf(line, sizeof line,
                  "phase %-8s rate=%.0f sent_s=%.2f n=%zu p50_us=%.1f "
                  "p99_us=%.1f lag_p99_us=%.1f growing=%d aborted=%d submit_p99_ns=%.0f",
                  name, rate, ph.seconds, ph.lat_us.size(), ph.p(0.5).value,
                  ph.p(0.99).value, percentile(ph.lag_us, 0.99).value,
                  ph.growing, ph.aborted, percentile(ph.submit_ns, 0.99).value);
    rep.notes.emplace_back(line);
    if (ph.win_lat_us.size() > 1) {
      std::string w = "windows p50/p90/p99:";
      for (const auto& lat : ph.win_lat_us) {
        char cell[48];
        std::snprintf(cell, sizeof cell, " %.0f/%.0f/%.0f",
                      percentile(lat, 0.5).value, percentile(lat, 0.9).value,
                      percentile(lat, 0.99).value);
        w += cell;
      }
      rep.notes.push_back(w);
    }
  };

  if (!args.trace) {
    // Warm-up at the mid rate (checked, not timed).
    tally_phase(run_phase(b, 4, kMidRps, 0.02 * s, false), "warm-up", kMidRps);
    const Phase low = run_phase(b, 1, kLowRps, 0.15 * s, false, kWindows);
    tally_phase(low, "low", kLowRps);
    const Phase mid = run_phase(b, 2, kMidRps, 0.15 * s, false, kWindows);
    tally_phase(mid, "mid", kMidRps);
    const ClosedRtt rtt = closed_rtt(b, 3, 0.2 * s, ops, kWindows);
    const std::vector<double> sat = saturate(b, 5, 0.3 * s, ops);

    std::vector<double> gflops;
    for (std::size_t c = 0; c < b.mix.classes.size(); ++c) {
      if (!rtt.cls_us[c].empty()) {
        gflops.push_back(b.mix.classes[c]->flops() /
                         median(rtt.cls_us[c]) * 1e-3);
      }
    }
    char sat_note[160];
    std::snprintf(sat_note, sizeof sat_note,
                  "saturation: %zu windows of 20 ms, req/s p10/p50/p90 "
                  "%.0f/%.0f/%.0f",
                  sat.size(), percentile(sat, 0.1).value,
                  percentile(sat, 0.5).value, percentile(sat, 0.9).value);
    rep.notes.emplace_back(sat_note);
    rep.add("setup_s", median(setup_s), "s");
    rep.add("gflops_geomean", geomean(gflops), "GFLOPS",
            "per class flops / p50 round trip");
    // The rate the saturated server sustains while it has the CPU: the
    // 90th percentile of its 20 ms windows. The windows below it are the
    // host taking the CPU away, which on the calibration host happened
    // for stretches of seconds (NOTES.md).
    rep.add("max_rps", percentile(sat, 0.90).value, "req/s",
            "saturated server, p90 of 20 ms windows");
    rep.add("rps", median(mid.win_rate), "req/s",
            "ok completions/s at the mid rate, median of 20 ms windows");
    rep.add("rtt_p50_us", windowed(rtt.win_us, 0.50), "us",
            "one synchronous caller; median of 10 windows");
    rep.add("rtt_p99_us", windowed(rtt.win_us, 0.99), "us",
            "one synchronous caller; median of 10 windows");
    // Open-loop latency from due time at the fixed rates. Printed, not
    // result metrics: on a host whose vCPUs are paused by the hypervisor
    // these tails measure the pauses (NOTES.md).
    rep.add_info("p50_us.low", low.windowed(0.50), "us", kWindowNote);
    rep.add_info("p99_us.low", low.windowed(0.99), "us", kWindowNote);
    rep.add_info("p50_us.mid", mid.windowed(0.50), "us", kWindowNote);
    rep.add_info("p99_us.mid", mid.windowed(0.99), "us", kWindowNote);
    rep.add_info("gen.lag_p99_us", percentile(low.lag_us, 0.99), "us",
                 "low rate; a validity check");
  } else {
    const Phase plain = run_phase(b, 1, kLowRps, 0.1 * s, false);
    tally_phase(plain, "low", kLowRps);
    const Phase low = run_phase(b, 1, kLowRps, 0.1 * s, true);
    tally_phase(low, "low-traced", kLowRps);
    const Phase mid = run_phase(b, 2, kMidRps, 0.2 * s, true);
    tally_phase(mid, "mid-traced", kMidRps);

    std::vector<double> lag = low.lag_us;
    lag.insert(lag.end(), mid.lag_us.begin(), mid.lag_us.end());
    std::vector<double> submit = low.submit_ns;
    submit.insert(submit.end(), mid.submit_ns.begin(), mid.submit_ns.end());
    const serve::ServerStats& s0 = mid.before;
    const serve::ServerStats& s1 = mid.after;
    const double completed = static_cast<double>(s1.completed - s0.completed);
    const double coalesced =
        static_cast<double>(s1.coalesced_requests - s0.coalesced_requests);
    const serve::ServerStats end = b.srv->stats();
    rep.add("gen.lag_p99_us", percentile(lag, 0.99), "us");
    rep.add("serve.submit_ns", median(submit), "ns");
    rep.add("serve.coalesce_ratio",
            completed / static_cast<double>(s1.dispatch_calls -
                                            s0.dispatch_calls),
            "req/dispatch", "mid rate");
    rep.add("serve.solo_share", (completed - coalesced) / completed, "frac",
            "mid rate");
    rep.add("serve.backlog_max",
            mid.queued.empty()
                ? 0.0
                : *std::max_element(mid.queued.begin(), mid.queued.end()),
            "requests", "sampled queued, mid rate");
    rep.add("serve.shed",
            static_cast<double>(end.shed_expired + end.shed_overflow),
            "count");
    engine_counters(rep, b.eng->stats());
    add_ladder(rep, idle_ladder(rep, *b.eng, *b.srv, 0.05 * s));
    std::vector<GemmDesc> descs;
    for (const auto& k : b.mix.classes) {
      if (const auto* g = dynamic_cast<const GemmClass<double>*>(k.get())) {
        descs.push_back({'d', g->n_, g->batch_});
      } else if (const auto* f =
                     dynamic_cast<const GemmClass<float>*>(k.get())) {
        descs.push_back({'s', f->n_, f->batch_});
      }
    }
    descriptor_layers(rep, descs, 0.1 * s, true);
    wire_probe(args, rep, 0.05 * s);
    rep.add("trace.overhead_frac", low.p(0.5).value / plain.p(0.5).value - 1.0,
            "frac", "p50 at low, traced vs untraced");
  }
  rep.ops += ops;
  b.srv->drain();
}

} // namespace pb
