// Shared plumbing of the repository benchmark: clocks, the percentile
// rule, operation accounting, metric reports and the host stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string served;      ///< iatf_served binary (wire-rpc)
  std::string workdir = "."; ///< scratch files: daemon socket and log
};

/// Outcome counts of the operations a run attempted. Every attempted
/// operation lands in exactly one bucket; everything but `ok` counts as
/// failed in the printed result.
struct Ops {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     ///< error status or wrong result
  std::uint64_t shed = 0;       ///< dropped by admission / queue policy
  std::uint64_t refused = 0;    ///< refused by the front end (wire Error)
  std::uint64_t unresolved = 0; ///< never answered within the run

  std::uint64_t attempted() const {
    return ok + failed + shed + refused + unresolved;
  }
  std::uint64_t not_ok() const { return attempted() - ok; }
  Ops& operator+=(const Ops& o) {
    ok += o.ok;
    failed += o.failed;
    shed += o.shed;
    refused += o.refused;
    unresolved += o.unresolved;
    return *this;
  }
};

/// A percentile under the reporting rule: the value is only usable when
/// at least kMinBeyond samples lie strictly beyond it.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool valid() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile (q in (0,1]) of `samples`.
Percentile percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double geomean(const std::vector<double>& values);

/// Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at
/// most 64 characters.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note; ///< printed on the human-readable line only
};

/// In-memory trace of a traced run: one span per call the benchmark
/// makes into a layer, recorded around that call from outside the
/// program. Summarised per layer (count, total time) when the run ends.
class SpanLog {
public:
  explicit SpanLog(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }
  void record(const char* layer, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({layer, start_ns, end_ns});
  }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Per-layer "span <layer> count=N total_ms=T" lines.
  std::vector<std::string> summary() const;

private:
  struct Span {
    const char* layer;
    std::int64_t start_ns, end_ns;
  };
  std::vector<Span> spans_;
};

/// Everything one run prints.
struct Report {
  Ops ops;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<Metric> info; ///< printed for people, not in the result JSON
  SpanLog trace; ///< filled by traced runs only

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Add a percentile metric; throws if it breaks the reporting rule.
  void add(const std::string& name, const Percentile& p,
           const std::string& unit, const std::string& note = "");
  /// Print a percentile as an informational line (not a result metric).
  void add_info(const std::string& name, const Percentile& p,
                const std::string& unit, const std::string& note = "");
  /// Mark the run incorrect and say why.
  void fail(const std::string& why);
};

/// Host description stamped on every result (results from different
/// hosts are never comparable): nproc, ISA and chosen width, cache sizes
/// and the iatf-bench-v1 hardware signature, as one JSON object.
std::string host_stamp_json();

/// Human-readable lines, then the result JSON as the last line.
void print_report(const Report& report);

/// Time `call` repeatedly for `seconds` (at least `min_calls` calls) and
/// return each call's latency in us. `before` runs untimed ahead of every
/// call. With a span log, every call is also recorded as a span of
/// `layer`. `gap_us` receives the time from each call's end to the next
/// call's start (the caller's own overhead between requests).
std::vector<double> time_calls(double seconds,
                               const std::function<void()>& call,
                               const std::function<void()>& before = {},
                               SpanLog* log = nullptr,
                               const char* layer = nullptr,
                               std::size_t min_calls = 3,
                               std::vector<double>* gap_us = nullptr);

/// Median latencies (us) of two calls timed in alternating order, so
/// drift and cache-order effects hit both alike.
std::pair<double, double> paired_medians(double seconds,
                                         const std::function<void()>& x,
                                         const std::function<void()>& y);

/// Completion rate (per second) of each `window_ns` window of [t0, end)
/// given completion times; completions outside the interval are ignored.
std::vector<double> window_rates(const std::vector<std::int64_t>& done_ns,
                                 std::int64_t t0, std::int64_t end,
                                 std::int64_t window_ns);

/// Workloads. Each builds its inputs from args.seed, measures for about
/// args.seconds, checks results and fills `rep`.
void run_batch_compute(const Args& args, Report& rep);
void run_serve_open(const Args& args, Report& rep);
void run_wire_rpc(const Args& args, Report& rep);
/// serve-open rate calibration: every other ladder step for
/// args.seconds each, one line per step (NOTES.md records the runs).
void run_serve_calibrate(const Args& args, Report& rep);

/// Busy-wait hint for spin loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

} // namespace pb
