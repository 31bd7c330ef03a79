#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "iatf/common/cache_info.hpp"
#include "iatf/simd/isa.hpp"
#include "iatf/tune/descriptor.hpp"

namespace pb {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  return p;
}

double median(std::vector<double> samples) {
  return samples.empty() ? 0.0 : percentile(std::move(samples), 0.5).value;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::vector<double> time_calls(double seconds,
                               const std::function<void()>& call,
                               const std::function<void()>& before,
                               SpanLog* log, const char* layer,
                               std::size_t min_calls,
                               std::vector<double>* gap_us) {
  std::vector<double> us;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t prev_end = -1;
  do {
    if (before) {
      before();
    }
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t t1 = now_ns();
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (log != nullptr) {
      log->record(layer, t0, t1);
    }
    if (gap_us != nullptr && prev_end >= 0) {
      gap_us->push_back(static_cast<double>(t0 - prev_end) * 1e-3);
    }
    prev_end = t1;
  } while (us.size() < min_calls || now_ns() < end);
  return us;
}

std::pair<double, double> paired_medians(double seconds,
                                         const std::function<void()>& x,
                                         const std::function<void()>& y) {
  std::vector<double> xs, ys;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const auto timed = [](const std::function<void()>& f) {
    const std::int64_t t0 = now_ns();
    f();
    return static_cast<double>(now_ns() - t0) * 1e-3;
  };
  for (bool x_first = true; xs.size() < 6 || now_ns() < end;
       x_first = !x_first) {
    if (x_first) {
      xs.push_back(timed(x));
      ys.push_back(timed(y));
    } else {
      ys.push_back(timed(y));
      xs.push_back(timed(x));
    }
  }
  return {median(xs), median(ys)};
}

std::vector<double> window_rates(const std::vector<std::int64_t>& done_ns,
                                 std::int64_t t0, std::int64_t end,
                                 std::int64_t window_ns) {
  const auto windows = static_cast<std::size_t>((end - t0) / window_ns);
  std::vector<double> rate(std::max<std::size_t>(windows, 1), 0.0);
  const double per_completion = 1e9 / static_cast<double>(window_ns);
  for (const std::int64_t t : done_ns) {
    const auto w = static_cast<std::size_t>((t - t0) / window_ns);
    if (t >= t0 && w < windows) {
      rate[w] += per_completion;
    }
  }
  return rate;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!valid_metric_name(name)) {
    throw std::logic_error("perfbench: bad metric name '" + name + "'");
  }
  if (!std::isfinite(value)) {
    throw std::runtime_error("perfbench: " + name + " is not finite");
  }
  metrics.push_back({name, value, unit, note});
}

void Report::add(const std::string& name, const Percentile& p,
                 const std::string& unit, const std::string& note) {
  if (!p.valid()) {
    throw std::runtime_error(
        name + " has " + std::to_string(p.beyond) +
        " samples beyond it (of " + std::to_string(p.samples) +
        "); the rule needs " + std::to_string(Percentile::kMinBeyond));
  }
  add(name, p.value, unit,
      "n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
          " beyond" + (note.empty() ? "" : "; " + note));
}

void Report::add_info(const std::string& name, const Percentile& p,
                      const std::string& unit, const std::string& note) {
  info.push_back({name, p.value, unit,
                  "n=" + std::to_string(p.samples) + ", " +
                      std::to_string(p.beyond) + " beyond" +
                      (p.valid() ? "" : " (too few to report)") +
                      (note.empty() ? "" : "; " + note)});
}

void Report::fail(const std::string& why) {
  correct = false;
  notes.push_back("FAIL: " + why);
}

std::vector<std::string> SpanLog::summary() const {
  std::map<std::string, std::pair<std::size_t, double>> by_layer;
  for (const Span& sp : spans_) {
    auto& [count, total_ms] = by_layer[sp.layer];
    ++count;
    total_ms += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
  }
  std::vector<std::string> out;
  for (const auto& [layer, agg] : by_layer) {
    char line[160];
    std::snprintf(line, sizeof line, "span %s count=%zu total_ms=%.3f",
                  layer.c_str(), agg.first, agg.second);
    out.emplace_back(line);
  }
  return out;
}

std::string host_stamp_json() {
  using namespace iatf;
  const CacheInfo cache = CacheInfo::detect();
  const simd::Isa isa = simd::active_isa();
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"format\": \"iatf-bench-v1\", \"nproc\": %u, \"isa\": \"%s\", "
      "\"width_bytes\": %d, \"pack_width_s\": %d, \"pack_width_d\": %d, "
      "\"l1d\": %zu, \"l2\": %zu, \"signature\": \"%s\"}",
      std::thread::hardware_concurrency(), simd::isa_name(isa),
      simd::isa_bytes(isa), simd::active_pack_width<float>(),
      simd::active_pack_width<double>(), cache.l1d, cache.l2,
      tune::hardware_signature(cache).c_str());
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

} // namespace

void print_report(const Report& r) {
  std::printf("host %s\n", host_stamp_json().c_str());
  std::printf("ops attempted=%llu ok=%llu failed=%llu shed=%llu "
              "refused=%llu unresolved=%llu fail_frac=%.6g\n",
              (unsigned long long)r.ops.attempted(),
              (unsigned long long)r.ops.ok,
              (unsigned long long)r.ops.failed,
              (unsigned long long)r.ops.shed,
              (unsigned long long)r.ops.refused,
              (unsigned long long)r.ops.unresolved,
              r.ops.attempted() == 0
                  ? 0.0
                  : static_cast<double>(r.ops.not_ok()) /
                        static_cast<double>(r.ops.attempted()));
  for (const std::string& note : r.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const std::string& line : r.trace.summary()) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : r.info) {
    std::printf("info   %-34s %14.6g %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("metric %-34s %14.6g %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.ops.attempted());
  json += ", \"failed\": " + std::to_string(r.ops.not_ok());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    json += (i ? ", " : "") + json_string(r.metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + json_string(r.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

} // namespace pb
