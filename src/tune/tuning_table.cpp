#include "iatf/tune/tuning_table.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define IATF_HAVE_FLOCK 1
#endif

namespace iatf::tune {
namespace {

#if defined(IATF_HAVE_FLOCK)
/// Advisory cross-process lock on `<path>.lock`. Two processes saving the
/// same table path serialise their tmp-write + rename sequences, so a
/// reader never observes the tmp file of one writer renamed over by
/// another (the rename itself is atomic; the lock keeps the *pairing* of
/// tmp content and final name coherent). The lock file is left in place
/// -- deleting it would race a third process opening it.
class FileLock {
public:
  explicit FileLock(const std::string& path)
      : fd_(::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                   0644)) {
    if (fd_ >= 0) {
      while (::flock(fd_, LOCK_EX) != 0) {
        if (errno != EINTR) {
          break; // degrade to unlocked: atomic rename still protects readers
        }
      }
    }
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

private:
  int fd_ = -1;
};
#else
class FileLock {
public:
  explicit FileLock(const std::string&) {}
};
#endif

bool valid_record(const TuneRecord& rec) {
  const bool packs_ok = rec.pack_a >= -1 && rec.pack_a <= 1 &&
                        rec.pack_b >= -1 && rec.pack_b <= 1;
  return packs_ok && rec.slice_groups >= 0 && rec.mc_cap >= 0 &&
         rec.nc_cap >= 0 && rec.chunk_groups >= 0 && rec.gflops >= 0.0 &&
         rec.baseline_gflops >= 0.0;
}

} // namespace

const char* to_string(LoadResult result) noexcept {
  switch (result) {
  case LoadResult::Ok:
    return "ok";
  case LoadResult::Missing:
    return "missing";
  case LoadResult::Corrupt:
    return "corrupt";
  case LoadResult::HardwareMismatch:
    return "hardware-mismatch";
  }
  return "unknown";
}

bool TuningTable::save(const std::string& path) const {
  // Serialise concurrent savers (other threads via their own tables, other
  // processes via the autotuner CLI) on an advisory file lock; the write
  // itself stays tmp + atomic rename so readers never see a torn file.
  FileLock lock(path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    // max_digits10 keeps the throughput fields (and with them record
    // equality) exact across a save -> load round trip.
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "iatf-tune " << kFormatVersion << "\n";
    out << "hw " << hardware_ << "\n";
    // Canonical record order: the map is unordered, but emitting lines
    // sorted by key text makes save -> load -> save byte-identical, so
    // tables diff cleanly and CI can cmp round-tripped files.
    std::vector<std::string> lines;
    lines.reserve(records_.size());
    for (const auto& [key, rec] : records_) {
      std::ostringstream line;
      line.precision(std::numeric_limits<double>::max_digits10);
      line << "rec ";
      write_key(line, key);
      line << ' ' << rec.pack_a << ' ' << rec.pack_b << ' '
           << rec.slice_groups << ' ' << rec.mc_cap << ' ' << rec.nc_cap
           << ' ' << rec.chunk_groups << ' ' << rec.gflops << ' '
           << rec.baseline_gflops << '\n';
      lines.push_back(line.str());
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) {
      out << line;
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

LoadResult TuningTable::load(const std::string& path) {
  records_.clear();
  std::ifstream in(path);
  if (!in) {
    return LoadResult::Missing;
  }
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "iatf-tune" ||
      version != kFormatVersion) {
    return LoadResult::Corrupt;
  }
  std::string tag, hw;
  if (!(in >> tag >> hw) || tag != "hw") {
    return LoadResult::Corrupt;
  }
  if (hw != hardware_) {
    return LoadResult::HardwareMismatch;
  }
  while (in >> tag) {
    if (tag != "rec") {
      records_.clear();
      return LoadResult::Corrupt;
    }
    sched::ClassKey key;
    TuneRecord rec;
    if (!parse_key(in, key) ||
        !(in >> rec.pack_a >> rec.pack_b >> rec.slice_groups >>
          rec.mc_cap >> rec.nc_cap >> rec.chunk_groups >> rec.gflops >>
          rec.baseline_gflops) ||
        !valid_record(rec)) {
      records_.clear();
      return LoadResult::Corrupt;
    }
    records_[key] = rec;
  }
  return LoadResult::Ok;
}

std::string TuningTable::default_path() {
  if (const char* env = std::getenv("IATF_TUNE_FILE");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return "iatf_tune.tbl";
}

} // namespace iatf::tune
