#include "iatf/resilience/health_ledger.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/crc32.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/tune/descriptor.hpp"

#include "../common/table_file.hpp"

namespace iatf::resilience {
namespace {

char kind_tag(LedgerRecord::Kind kind) noexcept {
  switch (kind) {
  case LedgerRecord::Kind::KernelQuarantine:
    return 'q';
  case LedgerRecord::Kind::BreakerTrip:
    return 'b';
  case LedgerRecord::Kind::Degrade:
    return 'd';
  case LedgerRecord::Kind::WatchdogReclaim:
    return 'w';
  }
  return '?';
}

/// The checksummed payload text of one record (everything after the CRC
/// field). Chars serialise as integers so a zero-initialised KernelId
/// (kind '\0') round-trips instead of producing an unreadable line.
std::string payload_of(const LedgerRecord& rec) {
  std::ostringstream out;
  out << kind_tag(rec.kind);
  switch (rec.kind) {
  case LedgerRecord::Kind::KernelQuarantine:
    out << ' ' << static_cast<int>(rec.kernel.kind) << ' '
        << static_cast<int>(rec.kernel.dtype) << ' ' << rec.kernel.bytes
        << ' ' << rec.kernel.m << ' ' << rec.kernel.n;
    break;
  case LedgerRecord::Kind::BreakerTrip:
  case LedgerRecord::Kind::WatchdogReclaim:
    out << ' ' << rec.slot;
    break;
  case LedgerRecord::Kind::Degrade:
    out << ' ' << rec.events;
    break;
  }
  return out.str();
}

std::string format_line(const LedgerRecord& rec) {
  const std::string payload = payload_of(rec);
  std::ostringstream out;
  out << "rec " << std::hex << crc32(payload) << std::dec << ' '
      << payload << '\n';
  return out.str();
}

/// Parse one "rec <crc-hex> <payload>" line. False on any syntax or
/// checksum violation -- the caller treats that as the corrupt tail.
bool parse_record(const std::string& line, LedgerRecord& rec) {
  std::istringstream in(line);
  std::string tag;
  std::uint32_t crc = 0;
  if (!(in >> tag) || tag != "rec" || !(in >> std::hex >> crc >> std::dec)) {
    return false;
  }
  // Everything after the CRC field (minus the one separating space) is
  // the checksummed payload; re-hash and compare before parsing it.
  std::string payload;
  std::getline(in, payload);
  if (!payload.empty() && payload.front() == ' ') {
    payload.erase(payload.begin());
  }
  if (crc32(payload) != crc) {
    return false;
  }
  std::istringstream body(payload);
  char tag_char = 0;
  if (!(body >> tag_char)) {
    return false;
  }
  switch (tag_char) {
  case 'q': {
    int kind = 0, dtype = 0;
    if (!(body >> kind >> dtype >> rec.kernel.bytes >> rec.kernel.m >>
          rec.kernel.n)) {
      return false;
    }
    rec.kind = LedgerRecord::Kind::KernelQuarantine;
    rec.kernel.kind = static_cast<char>(kind);
    rec.kernel.dtype = static_cast<char>(dtype);
    return true;
  }
  case 'b':
  case 'w':
    if (!(body >> rec.slot)) {
      return false;
    }
    rec.kind = tag_char == 'b' ? LedgerRecord::Kind::BreakerTrip
                               : LedgerRecord::Kind::WatchdogReclaim;
    return true;
  case 'd':
    if (!(body >> rec.events)) {
      return false;
    }
    rec.kind = LedgerRecord::Kind::Degrade;
    return true;
  default:
    return false;
  }
}

} // namespace

const char* to_string(LedgerLoad result) noexcept {
  switch (result) {
  case LedgerLoad::Ok:
    return "ok";
  case LedgerLoad::Missing:
    return "missing";
  case LedgerLoad::Corrupt:
    return "corrupt";
  case LedgerLoad::HardwareMismatch:
    return "hardware-mismatch";
  case LedgerLoad::Recovered:
    return "recovered";
  }
  return "unknown";
}

HealthLedger::HealthLedger(std::string path, std::string hardware)
    : path_(std::move(path)),
      hardware_(hardware.empty()
                    ? tune::hardware_signature(CacheInfo::detect())
                    : std::move(hardware)) {}

void HealthLedger::append(const LedgerRecord& record) {
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(record);
  if (path_.empty()) {
    return;
  }
  // Journaling must never fail the serving path: an injected or real I/O
  // failure drops the on-disk line, not the in-memory record (the next
  // save() compaction rewrites the full state anyway).
  try {
    IATF_FAULT_POINT("ledger.append", Status::AllocFailure);
    FileLock lock(path_);
    const bool fresh = !std::ifstream(path_).good();
    std::ofstream out(path_, std::ios::app);
    if (!out) {
      return;
    }
    if (fresh) {
      write_table_header(out, "iatf-health", kFormatVersion, hardware_);
    }
    out << format_line(record);
    out.flush();
  } catch (...) {
  }
}

LedgerLoad HealthLedger::load() {
  std::lock_guard<std::mutex> lk(mu_);
  records_.clear();
  if (path_.empty()) {
    return LedgerLoad::Missing;
  }
  try {
    IATF_FAULT_POINT("ledger.load", Status::AllocFailure);
  } catch (...) {
    return LedgerLoad::Missing;
  }
  bool damaged_tail = false;
  {
    FileLock lock(path_);
    std::ifstream in(path_);
    if (!in) {
      return LedgerLoad::Missing;
    }
    switch (read_table_header(in, "iatf-health", kFormatVersion,
                              hardware_)) {
    case TableHeader::Ok:
      break;
    case TableHeader::Corrupt:
      return LedgerLoad::Corrupt;
    case TableHeader::OtherHardware:
      return LedgerLoad::HardwareMismatch;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      LedgerRecord rec;
      if (!parse_record(line, rec)) {
        // Torn append (SIGKILL mid-write) or bit rot: everything before
        // this line checksummed clean, so keep the prefix and drop the
        // rest of the file.
        damaged_tail = true;
        break;
      }
      records_.push_back(rec);
    }
  }
  if (damaged_tail) {
    save_locked();
    return LedgerLoad::Recovered;
  }
  return LedgerLoad::Ok;
}

bool HealthLedger::save() const {
  std::lock_guard<std::mutex> lk(mu_);
  return save_locked();
}

bool HealthLedger::save_locked() const {
  if (path_.empty()) {
    return false;
  }
  try {
    IATF_FAULT_POINT("ledger.save", Status::AllocFailure);
  } catch (...) {
    return false;
  }
  return save_table(path_, "iatf-health", kFormatVersion, hardware_,
                    [&](std::ostream& out) {
                      for (const LedgerRecord& rec : records_) {
                        out << format_line(rec);
                      }
                    });
}

std::vector<LedgerRecord> HealthLedger::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

LedgerStats HealthLedger::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  LedgerStats stats;
  stats.records = records_.size();
  for (const LedgerRecord& rec : records_) {
    switch (rec.kind) {
    case LedgerRecord::Kind::KernelQuarantine:
      ++stats.quarantines;
      break;
    case LedgerRecord::Kind::BreakerTrip:
      ++stats.breaker_trips;
      break;
    case LedgerRecord::Kind::Degrade:
      ++stats.degrades;
      break;
    case LedgerRecord::Kind::WatchdogReclaim:
      ++stats.watchdog_reclaims;
      break;
    }
  }
  return stats;
}

void HealthLedger::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  records_.clear();
}

std::string HealthLedger::default_path() {
  if (const char* env = std::getenv("IATF_HEALTH_LEDGER");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return std::string();
}

} // namespace iatf::resilience
