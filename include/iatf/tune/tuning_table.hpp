// Persistent tuning database: empirical plan parameters per canonical
// input descriptor, keyed to the hardware they were measured on.
//
// The table is the install-time <-> run-time bridge the analytical model
// alone cannot provide (IAAT and tritonBLAS both pair a model with a
// small empirical search): the offline tuner writes records, the Engine
// consults them before falling back to the analytical defaults. The file
// format is versioned line-oriented text; a corrupt file, an unknown
// version, or a record set measured on different hardware loads as an
// empty table -- the framework silently degrades to the analytical model
// rather than applying wrong parameters.
#pragma once

#include <string>
#include <unordered_map>

#include "iatf/plan/batch_counter.hpp"
#include "iatf/tune/descriptor.hpp"

namespace iatf::tune {

/// One tuned parameter set. Every field is explicit (no "auto" values):
/// a plan built from a record is fully determined by it, which is what
/// makes save -> load -> plan round-trips bit-identical.
struct TuneRecord {
  int pack_a = -1;            ///< 0/1 (GEMM); -1 = keep analytical choice
  int pack_b = -1;            ///< 0/1; -1 = keep analytical choice
  index_t slice_groups = 0;   ///< >0 batch-counter override
  int mc_cap = 0;             ///< >0 kernel-variant tile-row cap
  int nc_cap = 0;             ///< >0 kernel-variant tile-col cap
  index_t chunk_groups = 0;   ///< >0 thread-pool chunk granularity
  double gflops = 0.0;        ///< measured throughput of this record
  double baseline_gflops = 0.0; ///< analytical default, same session

  /// The plan overrides this record encodes.
  plan::PlanTuning tuning() const noexcept {
    plan::PlanTuning t;
    t.force_pack_a = pack_a;
    t.force_pack_b = pack_b;
    t.slice_override = slice_groups;
    t.mc_cap = mc_cap;
    t.nc_cap = nc_cap;
    t.chunk_groups = chunk_groups;
    return t;
  }

  friend bool operator==(const TuneRecord&, const TuneRecord&) = default;
};

/// Outcome of TuningTable::load, for callers that want to report why a
/// file was rejected; every non-Ok outcome leaves the table empty.
enum class LoadResult {
  Ok = 0,
  Missing,          ///< file absent or unreadable
  Corrupt,          ///< bad magic, version or record syntax
  HardwareMismatch, ///< valid file recorded on different hardware
};

const char* to_string(LoadResult result) noexcept;

/// In-memory tuning database. Not internally synchronised: the Engine
/// accesses its (immutable, shared_ptr-held) table under its own lock,
/// and the tuner mutates private copies.
class TuningTable {
public:
  static constexpr int kFormatVersion = 1;

  /// Bound to the host signature by default; tests may pin another.
  explicit TuningTable(std::string hardware = std::string())
      : hardware_(hardware.empty()
                      ? hardware_signature(CacheInfo::detect())
                      : std::move(hardware)) {}

  const std::string& hardware() const noexcept { return hardware_; }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  void clear() { records_.clear(); }

  /// nullptr when the tuning key (tune_key: batch 0) has no tuned record
  /// (analytical model).
  const TuneRecord* lookup(const sched::ClassKey& key) const {
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
  }

  void insert(const sched::ClassKey& key, const TuneRecord& record) {
    records_[key] = record;
  }

  /// Atomic save: writes a sibling temp file then renames over `path`.
  /// Returns false (leaving any previous file intact) on I/O failure.
  /// Concurrent savers -- other threads or other processes (the autotuner
  /// CLI racing a serving process) -- are serialised on an advisory
  /// `<path>.lock` file where the platform supports flock(); the lock
  /// file persists between saves by design.
  bool save(const std::string& path) const;

  /// Replace the contents from `path`. Any failure -- missing file, bad
  /// version, syntax error, record measured on hardware other than this
  /// table's signature -- clears the table and reports why; the caller's
  /// plans then fall back to the analytical model.
  LoadResult load(const std::string& path);

  /// $IATF_TUNE_FILE when set, else "iatf_tune.tbl" in the working dir.
  static std::string default_path();

  using RecordMap =
      std::unordered_map<sched::ClassKey, TuneRecord, sched::ClassKeyHash>;

  const RecordMap& records() const noexcept {
    return records_;
  }

private:
  std::string hardware_;
  RecordMap records_;
};

} // namespace iatf::tune
