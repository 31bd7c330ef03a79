#include "iatf/plan/plan_dump.hpp"

#include <complex>
#include <sstream>

namespace iatf::plan {

template <class T, int Bytes>
std::string dump(const GemmPlan<T, Bytes>& plan) {
  std::ostringstream os;
  const auto& s = plan.shape();
  os << "execution plan: " << blas_prefix_v<T> << "gemm "
     << to_string(s.op_a) << to_string(s.op_b) << " m=" << s.m
     << " n=" << s.n << " k=" << s.k << " batch=" << s.batch
     << " (pack width " << plan.pack_width() << ", " << Bytes * 8
     << "-bit registers)\n";
  os << "  pack selecter: A " << (plan.packs_a() ? "packed" : "no-pack")
     << ", B " << (plan.packs_b() ? "packed" : "no-pack") << "\n";
  os << "  batch counter: " << plan.slice_groups()
     << " group(s) per L1 slice\n";
  os << "  C save: "
     << (plan.streams_c(T{}, nullptr)
             ? "streamed (non-temporal) when beta = 0 and unscanned"
             : "cached")
     << "\n";
  os << "  m tiles:";
  for (const Tile& t : plan.m_tiles()) {
    os << ' ' << t.size << "@" << t.offset;
  }
  os << "\n  n tiles:";
  for (const Tile& t : plan.n_tiles()) {
    os << ' ' << t.size << "@" << t.offset;
  }
  os << "\n  command queue (" << plan.calls().size()
     << " kernel calls per group):\n";
  for (const auto& call : plan.calls()) {
    os << "    gemm_kernel " << call.mc << "x" << call.nc
       << "  C+=" << call.c_off << " a_off=" << call.a_off
       << " b_off=" << call.b_off << " k=" << call.k << "\n";
  }
  return os.str();
}

template <class T, int Bytes>
std::string dump(const TrsmPlan<T, Bytes>& plan) {
  using Step = typename TrsmPlan<T, Bytes>::Step;
  std::ostringstream os;
  const auto& s = plan.shape();
  const bool solve = s.op == TriOp::Solve;
  os << "execution plan: " << blas_prefix_v<T> << (solve ? "trsm " : "trmm ")
     << to_string(s.side) << to_string(s.op_a) << to_string(s.uplo)
     << to_string(s.diag) << " m=" << s.m << " n=" << s.n
     << " batch=" << s.batch << "\n";
  const auto& c = plan.canon();
  os << "  canonical form: Left/Lower/NoTrans via"
     << (c.transpose ? " transpose" : "") << (c.reverse ? " reversal" : "")
     << (c.conj ? " conjugation" : "")
     << (c.b_transpose ? " B-transpose" : "")
     << ((c.transpose || c.reverse || c.conj || c.b_transpose)
             ? ""
             : " (identity)")
     << "\n";
  os << "  pack selecter: triangle packed"
     << (solve ? " (reciprocal diagonal)" : "") << ", B "
     << (plan.packs_b() ? "packed" : "in-place") << "\n";
  os << "  path: "
     << (plan.small_path() ? "register-resident triangle" : "blocked")
     << "; batch counter: " << plan.slice_groups()
     << " group(s) per L1 slice\n";
  os << "  command queue (" << plan.steps().size() << " steps):\n";
  for (const Step& step : plan.steps()) {
    switch (step.kind) {
    case Step::Kind::Rect:
      os << "    rect  rows@" << step.row_off << " -= L * rows@"
         << step.x_row_off << " (k=" << step.k << ", col@"
         << step.col_off << ")\n";
      break;
    case Step::Kind::Tri:
      os << "    tri   solve rows@" << step.row_off << " (col@"
         << step.col_off << ")\n";
      break;
    case Step::Kind::MulTri:
      os << "    tri   multiply rows@" << step.row_off << " (col@"
         << step.col_off << ")\n";
      break;
    case Step::Kind::MulRect:
      os << "    gemm  rows@" << step.row_off << " += L * rows@"
         << step.x_row_off << " (k=" << step.k << ", col@"
         << step.col_off << ")\n";
      break;
    }
  }
  return os.str();
}

#define IATF_INSTANTIATE_DUMP(T)                                             \
  template std::string dump<T, 16>(const GemmPlan<T, 16>&);                 \
  template std::string dump<T, 16>(const TrsmPlan<T, 16>&);                 \
  template std::string dump<T, 32>(const GemmPlan<T, 32>&);                 \
  template std::string dump<T, 32>(const TrsmPlan<T, 32>&);

IATF_INSTANTIATE_DUMP(float)
IATF_INSTANTIATE_DUMP(double)
IATF_INSTANTIATE_DUMP(std::complex<float>)
IATF_INSTANTIATE_DUMP(std::complex<double>)

#undef IATF_INSTANTIATE_DUMP

} // namespace iatf::plan
