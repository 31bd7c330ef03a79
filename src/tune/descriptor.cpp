#include "iatf/tune/descriptor.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "iatf/simd/isa.hpp"

namespace iatf::tune {
namespace {

bool valid_enum_fields(const sched::ClassKey& key) {
  const bool dtype_ok = key.dtype == 's' || key.dtype == 'd' ||
                        key.dtype == 'c' || key.dtype == 'z';
  return (key.op == 'g' || key.op == 't') && dtype_ok &&
         (key.bytes == 16 || key.bytes == 32 || key.bytes == 64) &&
         key.m >= 0 && key.n >= 0 &&
         key.k >= 0 && key.op_a <= 2 && key.op_b <= 2 && key.side <= 1 &&
         key.uplo <= 1 && key.diag <= 1;
}

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
  if (op_a < 0 || op_a > 2 || op_b < 0 || op_b > 2 || side < 0 || side > 1 ||
      uplo < 0 || uplo > 1 || diag < 0 || diag > 1) {
    return false;
  }
  key.op_a = static_cast<std::uint8_t>(op_a);
  key.op_b = static_cast<std::uint8_t>(op_b);
  key.side = static_cast<std::uint8_t>(side);
  key.uplo = static_cast<std::uint8_t>(uplo);
  key.diag = static_cast<std::uint8_t>(diag);
  return valid_enum_fields(key);
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
