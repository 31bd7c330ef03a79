#include "iatf/tune/bench_json.hpp"

#include <cstdio>
#include <fstream>

#include "iatf/tune/descriptor.hpp"

namespace iatf::tune {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

} // namespace

bool write_bench_json(const std::string& path, const CacheInfo& cache,
                      std::span<const BenchRow> rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\n  \"format\": \"iatf-bench-v1\",\n  \"hardware\": {\n"
      << "    \"signature\": \""
      << json_escape(hardware_signature(cache)) << "\",\n"
      << "    \"l1d\": " << cache.l1d << ",\n"
      << "    \"l2\": " << cache.l2 << "\n  },\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"experiment\": \"%s\", \"dtype\": \"%s\", "
                  "\"mode\": \"%s\", \"n\": %lld, \"series\": \"%s\", "
                  "\"value\": %.4f, \"unit\": \"%s\", \"reps\": %d}%s\n",
                  json_escape(r.experiment).c_str(),
                  json_escape(r.dtype).c_str(),
                  json_escape(r.mode).c_str(),
                  static_cast<long long>(r.n),
                  json_escape(r.series).c_str(), r.value,
                  json_escape(r.unit).c_str(), r.reps,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out.flush());
}

} // namespace iatf::tune
