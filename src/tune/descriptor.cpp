#include "iatf/tune/descriptor.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "iatf/simd/isa.hpp"

namespace iatf::tune {
namespace {

/// First "model name" (x86) or "CPU part" (ARM) line of /proc/cpuinfo,
/// slugged to a single token; empty when unavailable.
std::string cpu_model_slug() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const bool hit = line.rfind("model name", 0) == 0 ||
                     line.rfind("CPU part", 0) == 0 ||
                     line.rfind("Processor", 0) == 0;
    if (!hit) {
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string slug;
    for (char c : line.substr(colon + 1)) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!slug.empty() && slug.back() != '-') {
        slug += '-';
      }
    }
    while (!slug.empty() && slug.back() == '-') {
      slug.pop_back();
    }
    if (!slug.empty()) {
      return slug;
    }
  }
  return {};
}

} // namespace

std::string to_string(const sched::ClassKey& key) {
  std::ostringstream out;
  write_key(out, key);
  return out.str();
}

void write_key(std::ostream& out, const sched::ClassKey& key) {
  out << key.op << ' ' << key.dtype << ' ' << key.bytes << ' ' << key.m
      << ' ' << key.n << ' ' << key.k << ' ' << int(key.op_a) << ' '
      << int(key.op_b) << ' ' << int(key.side) << ' ' << int(key.uplo)
      << ' ' << int(key.diag);
}

bool parse_key(std::istream& in, sched::ClassKey& key) {
  key = sched::ClassKey{};
  int op_a = 0, op_b = 0, side = 0, uplo = 0, diag = 0;
  if (!(in >> key.op >> key.dtype >> key.bytes >> key.m >> key.n >> key.k >>
        op_a >> op_b >> side >> uplo >> diag)) {
    return false;
  }
  // A mode field that does not fit its byte is out of range already.
  const auto narrow = [](int v, std::uint8_t& field) {
    field = static_cast<std::uint8_t>(v);
    return field == v;
  };
  return narrow(op_a, key.op_a) && narrow(op_b, key.op_b) &&
         narrow(side, key.side) && narrow(uplo, key.uplo) &&
         narrow(diag, key.diag) && sched::valid_key(key);
}

std::string hardware_signature(const CacheInfo& cache) {
#if defined(__aarch64__)
  const char* arch = "aarch64";
#elif defined(__x86_64__)
  const char* arch = "x86_64";
#else
  const char* arch = "unknown";
#endif
  static const std::string cpu = [] {
    std::string slug = cpu_model_slug();
    return slug.empty() ? std::string("generic") : slug;
  }();
  std::ostringstream out;
  out << arch << ':' << cpu << ":l1d" << cache.l1d << ":l2" << cache.l2
      << ':' << simd::isa_name(simd::active_isa());
  return out.str();
}

} // namespace iatf::tune
