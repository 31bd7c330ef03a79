// Offline install-time tuner: sweep a descriptor grid, time the analytical
// plan and every one-field move from it for each point (tune/search.hpp),
// and persist the winners in a tuning table the run-time Engine picks up
// (directly via Engine::set_tuning_table, or through iatf_tune_load /
// IATF_TUNE_FILE).
//
// The default grid mirrors the paper's evaluation: square problems over
// the small-size range, single and double precision, with the batch
// normalised to whole interleave groups. Results can additionally be
// dumped as the same machine-readable JSON the bench harness emits
// (--json), so tuned/untuned throughput plots come from one schema.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "iatf/common/cache_info.hpp"
#include "iatf/common/error.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/tune/bench_json.hpp"
#include "iatf/tune/descriptor.hpp"
#include "iatf/tune/search.hpp"
#include "iatf/tune/tuning_table.hpp"
#include "iatf/version.hpp"

namespace {

using iatf::index_t;

struct CliOptions {
  std::string op = "all"; // gemm | trsm | all
  std::string dtypes = "sd";
  std::vector<index_t> sizes{2, 4, 8, 12, 16, 20, 24, 28, 32};
  std::vector<std::string> gemm_modes{"NN"};
  std::vector<std::string> trsm_modes{"LLNN"};
  iatf::tune::TuneOptions tune;
  int threads = 0;
  std::string out = iatf::tune::TuningTable::default_path();
  std::string json;
};

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok = csv.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!tok.empty()) {
      out.push_back(tok);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "iatf_tune: empirical install-time autotuner; times the analytical\n"
      "plan and every one-field move from it, keeps the fastest\n"
      "  --op=gemm|trsm|all      descriptor kinds to sweep (all)\n"
      "  --dtypes=CHARS          any of s,d,c,z (sd)\n"
      "  --sizes=N,N,...         square sizes (2,4,8,12,16,20,24,28,32)\n"
      "  --modes=M,M,...         2-char tokens route to GEMM (op_a,op_b of\n"
      "                          N/T/C), 4-char to TRSM (side L/R, uplo L/U,\n"
      "                          op N/T/C, diag N/U; e.g. LLNN)\n"
      "  --batch=N               measurement batch (256)\n"
      "  --reps=N                timed repetitions per candidate (5)\n"
      "  --threads=N             tune parallel execution on an N-thread pool\n"
      "  --out=FILE              tuning table ($IATF_TUNE_FILE or iatf_tune.tbl)\n"
      "  --json=FILE             results in the bench harness JSON schema\n"
      "  --help, --version\n");
}

/// Whether every letter of a mode token names a mode: op_a, op_b for a
/// 2-char GEMM token; side, uplo, op, diag for a 4-char TRSM token.
bool valid_mode(const std::string& tok) {
  const auto in = [](char c, const char* set) {
    return std::strchr(set, c) != nullptr;
  };
  if (tok.size() == 2) {
    return in(tok[0], "NTC") && in(tok[1], "NTC");
  }
  return tok.size() == 4 && in(tok[0], "LR") && in(tok[1], "LU") &&
         in(tok[2], "NTC") && in(tok[3], "NU");
}

/// A positive decimal integer no larger than `max`: digits only, no
/// sign, no trailing text, not zero.
bool parse_positive(const std::string& tok, long long max, long long& out) {
  if (tok.empty() || tok.size() > 18 ||
      tok.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::atoll(tok.c_str());
  return out > 0 && out <= max;
}

/// Upper bound of a size or batch token: far beyond any memory, and
/// clear of index_t overflow in the descriptor arithmetic.
constexpr long long kMaxCount = 1LL << 40;

/// Returns false when main should exit immediately with `exit_code`
/// (0 for --help/--version, 2 for anything malformed).
bool parse_cli(int argc, char** argv, CliOptions& cli, int& exit_code) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      exit_code = 0;
      return false;
    }
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("iatf_tune %s\n", IATF_VERSION_STRING);
      exit_code = 0;
      return false;
    }
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    // A count flag's value must be a positive integer; a bad one exits 2
    // before anything is tuned or written.
    const auto count = [&](const char* v, long long max, long long& out) {
      if (parse_positive(v, max, out)) {
        return true;
      }
      std::fprintf(stderr, "iatf_tune: '%s' is not a positive integer\n",
                   arg);
      exit_code = 2;
      return false;
    };
    long long n = 0;
    if (const char* v = value("--op=")) {
      cli.op = v;
      if (cli.op != "gemm" && cli.op != "trsm" && cli.op != "all") {
        std::fprintf(stderr, "iatf_tune: unknown op '%s'\n", v);
        exit_code = 2;
        return false;
      }
    } else if (const char* v = value("--dtypes=")) {
      cli.dtypes = v;
    } else if (const char* v = value("--sizes=")) {
      cli.sizes.clear();
      for (const std::string& tok : split(v)) {
        if (!parse_positive(tok, kMaxCount, n)) {
          std::fprintf(stderr, "iatf_tune: bad size '%s'\n", tok.c_str());
          exit_code = 2;
          return false;
        }
        cli.sizes.push_back(static_cast<index_t>(n));
      }
      if (cli.sizes.empty()) {
        std::fprintf(stderr, "iatf_tune: --sizes names no size\n");
        exit_code = 2;
        return false;
      }
    } else if (const char* v = value("--modes=")) {
      cli.gemm_modes.clear();
      cli.trsm_modes.clear();
      for (const std::string& tok : split(v)) {
        if (!valid_mode(tok)) {
          std::fprintf(stderr, "iatf_tune: bad mode token '%s'\n",
                       tok.c_str());
          exit_code = 2;
          return false;
        }
        (tok.size() == 2 ? cli.gemm_modes : cli.trsm_modes).push_back(tok);
      }
    } else if (const char* v = value("--batch=")) {
      if (!count(v, kMaxCount, n)) {
        return false;
      }
      cli.tune.batch = static_cast<index_t>(n);
    } else if (const char* v = value("--reps=")) {
      if (!count(v, INT_MAX, n)) {
        return false;
      }
      cli.tune.reps = static_cast<int>(n);
    } else if (const char* v = value("--threads=")) {
      if (!count(v, INT_MAX, n)) {
        return false;
      }
      cli.threads = static_cast<int>(n);
    } else if (const char* v = value("--out=")) {
      cli.out = v;
    } else if (const char* v = value("--json=")) {
      cli.json = v;
    } else {
      std::fprintf(stderr, "iatf_tune: unknown option '%s'\n", arg);
      usage(stderr);
      exit_code = 2;
      return false;
    }
  }
  return true;
}

/// The op of a letter valid_mode accepted.
iatf::Op parse_op(char c) {
  return c == 'N' ? iatf::Op::NoTrans
         : c == 'T' ? iatf::Op::Trans
                    : iatf::Op::ConjTrans;
}

void report(const char* kind, char dtype, const std::string& mode,
            index_t n, const iatf::tune::TuneRecord& rec) {
  std::printf("%s %c %s n=%lld: %.3f GF (baseline %.3f GF) pack=%d/%d "
              "slice=%lld caps=%d/%d chunk=%lld\n",
              kind, dtype, mode.c_str(), static_cast<long long>(n),
              rec.gflops, rec.baseline_gflops, rec.pack_a, rec.pack_b,
              static_cast<long long>(rec.slice_groups), rec.mc_cap,
              rec.nc_cap, static_cast<long long>(rec.chunk_groups));
  std::fflush(stdout);
}

void add_rows(std::vector<iatf::tune::BenchRow>& rows, const char* kind, char dtype,
              const std::string& mode, index_t n, int reps,
              const iatf::tune::TuneRecord& rec) {
  for (const char* series : {"tuned", "baseline"}) {
    iatf::tune::BenchRow row;
    row.experiment = std::string("tune_") + kind;
    row.dtype = std::string(1, dtype);
    row.mode = mode;
    row.n = n;
    row.series = series;
    row.value = std::strcmp(series, "tuned") == 0 ? rec.gflops
                                                  : rec.baseline_gflops;
    row.reps = reps;
    rows.push_back(row);
  }
}

} // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  int exit_code = 0;
  if (!parse_cli(argc, argv, cli, exit_code)) {
    return exit_code;
  }
  const iatf::CacheInfo cache = iatf::CacheInfo::detect();
  std::unique_ptr<iatf::ThreadPool> pool;
  if (cli.threads > 0) {
    pool = std::make_unique<iatf::ThreadPool>(cli.threads);
    cli.tune.pool = pool.get();
  }

  iatf::tune::TuningTable table;
  std::vector<iatf::tune::BenchRow> rows;
  const bool do_gemm = cli.op == "gemm" || cli.op == "all";
  const bool do_trsm = cli.op == "trsm" || cli.op == "all";

  try {
    for (char dtype : cli.dtypes) {
      for (index_t n : cli.sizes) {
        if (do_gemm) {
          for (const std::string& mode : cli.gemm_modes) {
            iatf::GemmShape shape;
            shape.m = shape.n = shape.k = n;
            shape.op_a = parse_op(mode[0]);
            shape.op_b = parse_op(mode[1]);
            const auto tuned =
                iatf::tune::tune_gemm_dyn(dtype, shape, cache, cli.tune);
            table.insert(tuned.key, tuned.record);
            report("gemm", dtype, mode, n, tuned.record);
            add_rows(rows, "gemm", dtype, mode, n, cli.tune.reps,
                     tuned.record);
          }
        }
        if (do_trsm) {
          for (const std::string& mode : cli.trsm_modes) {
            iatf::TrsmShape shape;
            shape.m = shape.n = n;
            shape.side = mode[0] == 'R' ? iatf::Side::Right
                                        : iatf::Side::Left;
            shape.uplo = mode[1] == 'U' ? iatf::Uplo::Upper
                                        : iatf::Uplo::Lower;
            shape.op_a = parse_op(mode[2]);
            shape.diag = mode[3] == 'U' ? iatf::Diag::Unit
                                        : iatf::Diag::NonUnit;
            const auto tuned =
                iatf::tune::tune_trsm_dyn(dtype, shape, cache, cli.tune);
            table.insert(tuned.key, tuned.record);
            report("trsm", dtype, mode, n, tuned.record);
            add_rows(rows, "trsm", dtype, mode, n, cli.tune.reps,
                     tuned.record);
          }
        }
      }
    }
  } catch (const iatf::Error& e) {
    std::fprintf(stderr, "iatf_tune: %s\n", e.what());
    return 1;
  }

  if (!table.save(cli.out)) {
    std::fprintf(stderr, "iatf_tune: could not write '%s'\n",
                 cli.out.c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s (hw %s)\n", table.size(),
              cli.out.c_str(), table.hardware().c_str());
  if (!cli.json.empty() && !iatf::tune::write_bench_json(cli.json, cache, rows)) {
    std::fprintf(stderr, "iatf_tune: could not write '%s'\n",
                 cli.json.c_str());
    return 1;
  }
  return 0;
}
