#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "iatf/common/cache_info.hpp"
#include "iatf/simd/vec.hpp"
#include "iatf/tune/bench_json.hpp"

namespace iatf::bench {

namespace {

/// Row mirror for --json output, flushed by an atexit hook so every
/// bench gets the file without per-bench plumbing.
struct JsonSink {
  std::mutex mutex;
  std::string path;
  std::vector<tune::BenchRow> rows;
  int last_reps = 0; ///< repetitions of the most recent measure_gflops
};

JsonSink& json_sink() {
  static JsonSink sink;
  return sink;
}

void flush_json_at_exit() {
  JsonSink& sink = json_sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (sink.path.empty()) {
    return;
  }
  if (!tune::write_bench_json(sink.path, CacheInfo::detect(), sink.rows)) {
    std::fprintf(stderr, "bench: could not write '%s'\n",
                 sink.path.c_str());
  }
}

} // namespace

void enable_json_output(const std::string& path) {
  JsonSink& sink = json_sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  const bool first = sink.path.empty();
  sink.path = path;
  if (first && !path.empty()) {
    std::atexit(flush_json_at_exit);
  }
}

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--batch=")) {
      opt.batch = std::atoll(v);
    } else if (const char* v = value("--max-size=")) {
      opt.max_size = std::atoll(v);
    } else if (const char* v = value("--size-step=")) {
      opt.size_step = std::atoll(v);
    } else if (const char* v = value("--min-time=")) {
      opt.min_time = std::atof(v);
    } else if (const char* v = value("--min-reps=")) {
      opt.min_reps = std::atoi(v);
    } else if (const char* v = value("--threads=")) {
      opt.threads = std::atoi(v);
    } else if (const char* v = value("--json=")) {
      opt.json = v;
      enable_json_output(opt.json);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      opt.verbose = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "options: --batch=N (0=auto) --max-size=N --size-step=N "
          "--min-time=SECONDS --min-reps=N --threads=N --json=FILE "
          "--verbose\n");
      std::exit(0);
    }
  }
  return opt;
}

index_t auto_batch(index_t bytes_per_matrix_set, index_t pack_width,
                   const Options& opt) {
  if (opt.batch > 0) {
    return opt.batch;
  }
  constexpr index_t kBudget = 64ll * 1024 * 1024;
  index_t b = bytes_per_matrix_set > 0 ? kBudget / bytes_per_matrix_set
                                       : 16384;
  if (b > 16384) {
    b = 16384;
  }
  if (b < pack_width) {
    b = pack_width;
  }
  // Whole groups keep comparisons fair to every series.
  return (b + pack_width - 1) / pack_width * pack_width;
}

double measure_gflops(double flops, const Options& opt,
                      const std::function<void()>& body) {
  body(); // warm-up (also faults in all pages)
  double log_sum = 0.0;
  int reps = 0;
  Timer total;
  while (reps < opt.min_reps || total.seconds() < opt.min_time) {
    Timer t;
    body();
    const double secs = t.seconds();
    const double gflops = flops / secs * 1e-9;
    log_sum += std::log(gflops);
    ++reps;
    if (reps > 10000) {
      break;
    }
  }
  {
    JsonSink& sink = json_sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.last_reps = reps;
  }
  return std::exp(log_sum / reps);
}

void print_header() {
  std::printf("experiment,dtype,mode,n,series,value,unit\n");
}

void print_row(const std::string& experiment, const std::string& dtype,
               const std::string& mode, index_t n,
               const std::string& series, double value,
               const std::string& unit) {
  std::printf("%s,%s,%s,%lld,%s,%.4f,%s\n", experiment.c_str(),
              dtype.c_str(), mode.c_str(), static_cast<long long>(n),
              series.c_str(), value, unit.c_str());
  std::fflush(stdout);
  JsonSink& sink = json_sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (!sink.path.empty()) {
    sink.rows.push_back({experiment, dtype, mode, n, series, value, unit,
                         sink.last_reps});
  }
}

namespace {

// Opaque register barrier: keeps each accumulator a live value of its own
// width, defeating both constant folding and the compiler's (legitimate,
// but peak-definition-breaking) fusion of several narrow accumulator
// chains into one wider vector op on AVX-capable hosts.
template <class V> inline void keep_in_register(V& v) {
#if defined(__GNUC__) && defined(__x86_64__) && defined(__AVX512F__)
  // "x" only covers xmm/ymm; zmm accumulators need the EVEX class.
  asm volatile("" : "+v"(v.v));
#elif defined(__GNUC__) && defined(__x86_64__)
  asm volatile("" : "+x"(v.v));
#elif defined(__GNUC__) && defined(__aarch64__)
  asm volatile("" : "+w"(v.v));
#else
  volatile typename V::real_type sink = v.get(0);
  (void)sink;
#endif
}

// Register-blocked independent-FMA loop: 8 accumulators of width W, the
// classic peak-FLOPS probe.
template <class R, int W> double peak_probe() {
  using V = simd::vec<R, W>;
  constexpr int kAcc = 8;
  constexpr index_t kIters = 1 << 16;
  V acc[kAcc];
  for (int i = 0; i < kAcc; ++i) {
    acc[i] = V::broadcast(R(1.0) + R(i) * R(1e-3));
  }
  V a = V::broadcast(R(1.000001));
  V b = V::broadcast(R(-1e-9));
  keep_in_register(a);
  keep_in_register(b);

  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    Timer t;
    for (index_t it = 0; it < kIters; ++it) {
      for (int i = 0; i < kAcc; ++i) {
        acc[i] = V::fma(acc[i], a, b);
        keep_in_register(acc[i]);
      }
    }
    const double secs = t.seconds();
    const double flops =
        2.0 * W * kAcc * static_cast<double>(kIters);
    best = std::max(best, flops / secs * 1e-9);
  }
  volatile R sink = acc[0].get(0);
  (void)sink;
  return best;
}

} // namespace

double measure_peak_gflops_sp128() { return peak_probe<float, 4>(); }
double measure_peak_gflops_dp128() { return peak_probe<double, 2>(); }
double measure_peak_gflops_sp256() { return peak_probe<float, 8>(); }
double measure_peak_gflops_dp256() { return peak_probe<double, 4>(); }

} // namespace iatf::bench
