// The one writer of the "iatf-bench-v1" JSON schema, shared by the bench
// harness (--json), the offline tuner (iatf_tune --json) and the load
// generator (iatf_loadgen --json), so their sweeps plot through one path:
//
//   {"format": "iatf-bench-v1",
//    "hardware": {"signature": <string>, "l1d": <int>, "l2": <int>},
//    "rows": [{"experiment", "dtype", "mode": <string>, "n": <int>,
//              "series": <string>, "value": <number>, "unit": <string>,
//              "reps": <int>}, ...]}
#pragma once

#include <span>
#include <string>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/types.hpp"

namespace iatf::tune {

struct BenchRow {
  std::string experiment;
  std::string dtype;
  std::string mode;
  index_t n = 0;
  std::string series;
  double value = 0.0;
  std::string unit = "gflops";
  int reps = 0; ///< timed repetitions behind `value`
};

/// Write `rows` under the host's hardware signature and cache sizes.
/// False when the file cannot be written.
bool write_bench_json(const std::string& path, const CacheInfo& cache,
                      std::span<const BenchRow> rows);

} // namespace iatf::tune
