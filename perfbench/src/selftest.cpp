// The benchmark's own tests: the percentile rule, seeded schedule
// determinism, the metric-name grammar (also over BENCHMARK.json when its
// path is given) and op accounting.
//
//   perfbench_tests [path/to/BENCHMARK.json]
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "schedule.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(n - i); // unsorted on purpose
  }
  return v;
}

void test_percentile_rule() {
  using pb::percentile;
  // p99 of 1000 samples: value 990, exactly 10 beyond -> reportable.
  pb::Percentile p = percentile(iota(1000), 0.99);
  check(p.value == 990.0 && p.beyond == 10 && p.valid(), "p99 of 1000");
  // 999 samples leave only 9 beyond p99 -> not reportable.
  p = percentile(iota(999), 0.99);
  check(p.beyond == 9 && !p.valid(), "p99 of 999 is not reportable");
  p = percentile(iota(100), 0.99);
  check(!p.valid(), "p99 of 100 is not reportable");
  // p50 of 21: value 11 with 10 beyond.
  p = percentile(iota(21), 0.50);
  check(p.value == 11.0 && p.beyond == 10 && p.valid(), "p50 of 21");
  check(!percentile(iota(19), 0.50).valid(), "p50 of 19 is not reportable");
  check(!percentile({}, 0.5).valid(), "empty sample set");
  check(pb::median({3, 1, 2}) == 2.0, "median");

  pb::Report rep;
  bool threw = false;
  try {
    rep.add("p99_us", percentile(iota(500), 0.99), "us");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw && rep.metrics.empty(),
        "a percentile with fewer than 10 beyond is refused");
  rep.add("p99_us", percentile(iota(5000), 0.99), "us");
  check(rep.metrics.size() == 1 &&
            rep.metrics[0].note.find("n=5000") != std::string::npos,
        "a reported percentile carries its sample count");
}

void test_schedule_determinism() {
  const std::vector<double> classes = {0.35, 0.35, 0.1, 0.1, 0.1};
  const std::vector<double> tenants = {1, 1, 1, 2};
  const auto a = pb::open_schedule(7, 1, 20000, 0.5, classes, tenants, 4);
  const auto b = pb::open_schedule(7, 1, 20000, 0.5, classes, tenants, 4);
  const auto c = pb::open_schedule(8, 1, 20000, 0.5, classes, tenants, 4);
  const auto d = pb::open_schedule(7, 2, 20000, 0.5, classes, tenants, 4);
  check(a == b, "same seed, same open-loop schedule");
  check(a != c, "another seed, another schedule");
  check(a != d, "another phase, another schedule");
  check(a.size() > 9000 && a.size() < 11000, "Poisson count near rate x time");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) {
    sorted = sorted && a[i - 1].due_ns <= a[i].due_ns;
  }
  check(sorted, "due times never decrease");

  pb::WireStream w1(7, 0, 4), w2(7, 0, 4), w3(8, 0, 4), w4(7, 1, 4);
  bool same = true, differs_seed = false, differs_conn = false;
  std::size_t heavy = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const pb::WireReq r1 = w1.next();
    same = same && r1 == w2.next();
    differs_seed = differs_seed || !(r1 == w3.next());
    differs_conn = differs_conn || !(r1 == w4.next());
    heavy += r1.heavy;
  }
  check(same, "same seed, same frame sequence");
  check(differs_seed && differs_conn, "another seed or connection differs");
  const double share = static_cast<double>(heavy) / kDraws;
  check(share > 0.045 && share < 0.055, "heavy-frame share near 5%");
}

void test_metric_names(const char* spec_path) {
  for (const char* ok : {"setup_s", "p99_us.low", "net.idle_rtt_us",
                         "core.overhead_us.small", "9lives", "a-b"}) {
    check(pb::valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".x", "_x", "a b", "a/b", "a\"b", "ü"}) {
    check(!pb::valid_metric_name(bad), std::string("invalid name '") + bad +
                                           "'");
  }
  check(!pb::valid_metric_name(std::string(65, 'a')), "65 characters");
  check(pb::valid_metric_name(std::string(64, 'a')), "64 characters");
  pb::Report rep;
  bool threw = false;
  try {
    rep.add("bad name", 1.0, "s");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "Report refuses a bad metric name");

  if (spec_path == nullptr) {
    return;
  }
  std::ifstream in(spec_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string spec = buf.str();
  check(!spec.empty(), "BENCHMARK.json readable");
  const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
  const std::regex unit_re("\"unit\":\\s*\"([^\"]*)\"");
  const std::regex unit_ok("[A-Za-z0-9_/%.-]{1,16}");
  std::size_t names = 0;
  for (auto it = std::sregex_iterator(spec.begin(), spec.end(), name_re);
       it != std::sregex_iterator(); ++it, ++names) {
    check(pb::valid_metric_name((*it)[1].str()),
          "BENCHMARK.json name '" + (*it)[1].str() + "'");
  }
  for (auto it = std::sregex_iterator(spec.begin(), spec.end(), unit_re);
       it != std::sregex_iterator(); ++it) {
    check(std::regex_match((*it)[1].str(), unit_ok),
          "BENCHMARK.json unit '" + (*it)[1].str() + "'");
  }
  check(names > 3, "BENCHMARK.json lists names");
}

void test_op_accounting() {
  pb::Ops a;
  a.ok = 3;
  a.failed = 1;
  a.shed = 2;
  a.refused = 4;
  a.unresolved = 5;
  check(a.attempted() == 15, "attempted = ok + failed + shed + refused + "
                             "unresolved");
  check(a.not_ok() == 12, "everything but ok counts as failed");
  pb::Ops b;
  b.ok = 10;
  b.unresolved = 1;
  a += b;
  check(a.attempted() == 26 && a.ok == 13 && a.unresolved == 6,
        "accounting adds up across phases");
  check(a.attempted() == a.ok + a.not_ok(), "attempted = ok + not ok");
}

} // namespace

int main(int argc, char** argv) {
  test_percentile_rule();
  test_schedule_determinism();
  test_metric_names(argc > 1 ? argv[1] : nullptr);
  test_op_accounting();
  if (failures == 0) {
    std::printf("perfbench_tests: all passed\n");
  }
  return failures == 0 ? 0 : 1;
}
