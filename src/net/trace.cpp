// iatf-trace 1 JSONL reader/writer. The parser is a tiny purpose-built
// scanner for the fixed key set -- not a general JSON parser -- but it
// is strict: unknown layout, missing keys, non-numeric values or
// out-of-range fields fail the load with the line number.
#include "iatf/net/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "iatf/common/error.hpp"
#include "iatf/net/wire.hpp"

namespace iatf::net {

// ---- Writer -----------------------------------------------------------

struct TraceWriter::Impl {
  std::mutex mu;
  std::ofstream out;
  std::size_t recorded = 0;
};

TraceWriter::TraceWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path, std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    throw Error("iatf-trace: cannot open '" + path + "' for writing");
  }
  impl_->out << "{\"format\":\"iatf-trace\",\"version\":" << kTraceVersion
             << "}\n";
}

TraceWriter::~TraceWriter() { delete impl_; }

std::string trace_line(const TraceEvent& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"t_us\":%lld,\"tenant\":%u,\"kind\":\"%c\","
                "\"dtype\":\"%c\",\"m\":%lld,\"n\":%lld,\"k\":%lld,"
                "\"batch\":%lld,\"deadline_ms\":%.3f}",
                static_cast<long long>(e.t_us), e.tenant, e.kind, e.dtype,
                static_cast<long long>(e.m), static_cast<long long>(e.n),
                static_cast<long long>(e.k),
                static_cast<long long>(e.batch), e.deadline_ms);
  return buf;
}

void TraceWriter::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->out << trace_line(event) << '\n';
  if (!impl_->out) {
    throw Error("iatf-trace: write failed", Status::Internal);
  }
  ++impl_->recorded;
}

std::size_t TraceWriter::recorded() const noexcept {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->recorded;
}

// ---- Reader -----------------------------------------------------------

namespace {

/// Find `"key":` in `line` and return the character index just past the
/// colon (skipping spaces), or npos.
std::size_t value_pos(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\"";
  std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::string::npos;
  }
  at += needle.size();
  while (at < line.size() && std::isspace(static_cast<unsigned char>(line[at]))) {
    ++at;
  }
  if (at >= line.size() || line[at] != ':') {
    return std::string::npos;
  }
  ++at;
  while (at < line.size() && std::isspace(static_cast<unsigned char>(line[at]))) {
    ++at;
  }
  return at;
}

bool read_number(const std::string& line, const char* key, double& out) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string::npos) {
    return false;
  }
  const char* start = line.c_str() + at;
  char* end = nullptr;
  out = std::strtod(start, &end);
  return end != start && std::isfinite(out);
}

bool read_char(const std::string& line, const char* key, char& out) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string::npos || at + 2 >= line.size() ||
      line[at] != '"' || line[at + 2] != '"') {
    return false;
  }
  out = line[at + 1];
  return true;
}

[[noreturn]] void bad_line(const std::string& path, std::size_t lineno,
                           const char* why) {
  throw Error("iatf-trace: " + path + ":" + std::to_string(lineno) +
              ": " + why);
}

} // namespace

std::vector<TraceEvent> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("iatf-trace: cannot open '" + path + "'");
  }
  std::string line;
  std::size_t lineno = 0;
  // Header line.
  if (!std::getline(in, line)) {
    bad_line(path, 1, "empty file (missing header)");
  }
  ++lineno;
  if (line.find("\"format\":\"iatf-trace\"") == std::string::npos) {
    bad_line(path, lineno, "not an iatf-trace file");
  }
  double version = 0;
  if (!read_number(line, "version", version) ||
      static_cast<int>(version) != kTraceVersion) {
    bad_line(path, lineno, "unsupported trace version");
  }

  std::vector<TraceEvent> events;
  while (std::getline(in, line)) {
    ++lineno;
    // Tolerate blank lines (trailing newline, hand edits); nothing else.
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    TraceEvent e;
    double t_us = 0, tenant = 0, m = 0, n = 0, k = 0, batch = 0,
           deadline = 0;
    if (!read_number(line, "t_us", t_us) || t_us < 0 ||
        !read_number(line, "tenant", tenant) || tenant < 0 ||
        tenant > 4294967295.0 ||
        !read_char(line, "kind", e.kind) ||
        !read_char(line, "dtype", e.dtype) ||
        !read_number(line, "m", m) ||
        !read_number(line, "n", n) ||
        !read_number(line, "k", k) ||
        !read_number(line, "batch", batch) ||
        !read_number(line, "deadline_ms", deadline)) {
      bad_line(path, lineno, "malformed event line");
    }
    if (e.kind != 'g' || (e.dtype != 's' && e.dtype != 'd')) {
      bad_line(path, lineno, "unknown kind/dtype");
    }
    if (m < 1 || n < 1 || k < 1 || m > 4096 || n > 4096 || k > 4096 ||
        batch < 1 || batch > 1048576 || deadline < 0) {
      bad_line(path, lineno, "descriptor out of range");
    }
    if (!(deadline <= kMaxWireDeadlineMs)) {
      bad_line(path, lineno, "deadline_ms above the wire's 1e12 ms bound");
    }
    e.t_us = static_cast<std::int64_t>(t_us);
    e.tenant = static_cast<std::uint32_t>(tenant);
    e.m = static_cast<index_t>(m);
    e.n = static_cast<index_t>(n);
    e.k = static_cast<index_t>(k);
    e.batch = static_cast<index_t>(batch);
    e.deadline_ms = deadline;
    events.push_back(e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t_us < b.t_us;
                   });
  return events;
}

} // namespace iatf::net
