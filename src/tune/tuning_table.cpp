#include "iatf/tune/tuning_table.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../common/table_file.hpp"

namespace iatf::tune {
namespace {

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
  // processes via the autotuner CLI) on the table file's lock; the write
  // itself stays tmp + atomic rename so readers never see a torn file.
  return save_table(
      path, "iatf-tune", kFormatVersion, hardware_, [&](std::ostream& out) {
        // Canonical record order: the map is unordered, but emitting
        // lines sorted by key text makes save -> load -> save
        // byte-identical, so tables diff cleanly and CI can cmp
        // round-tripped files. max_digits10 keeps the throughput fields
        // (and with them record equality) exact across a round trip.
        std::vector<std::string> lines;
        lines.reserve(records_.size());
        for (const auto& [key, rec] : records_) {
          std::ostringstream line;
          line.precision(std::numeric_limits<double>::max_digits10);
          line << "rec ";
          write_key(line, key);
          line << ' ' << rec.pack_a << ' ' << rec.pack_b << ' '
               << rec.slice_groups << ' ' << rec.mc_cap << ' '
               << rec.nc_cap << ' ' << rec.chunk_groups << ' '
               << rec.gflops << ' ' << rec.baseline_gflops << '\n';
          lines.push_back(line.str());
        }
        std::sort(lines.begin(), lines.end());
        for (const std::string& line : lines) {
          out << line;
        }
      });
}

LoadResult TuningTable::load(const std::string& path) {
  records_.clear();
  std::ifstream in(path);
  if (!in) {
    return LoadResult::Missing;
  }
  switch (read_table_header(in, "iatf-tune", kFormatVersion, hardware_)) {
  case TableHeader::Ok:
    break;
  case TableHeader::Corrupt:
    return LoadResult::Corrupt;
  case TableHeader::OtherHardware:
    return LoadResult::HardwareMismatch;
  }
  std::string tag;
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
