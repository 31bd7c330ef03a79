#include "iatf/common/types.hpp"

#include <sstream>

namespace iatf {

const char* to_string(Op op) noexcept {
  switch (op) {
  case Op::NoTrans:
    return "N";
  case Op::Trans:
    return "T";
  case Op::ConjTrans:
    return "C";
  }
  return "?";
}

const char* to_string(Side side) noexcept {
  return side == Side::Left ? "L" : "R";
}

const char* to_string(Uplo uplo) noexcept {
  return uplo == Uplo::Lower ? "L" : "U";
}

const char* to_string(Diag diag) noexcept {
  return diag == Diag::NonUnit ? "N" : "U";
}

std::string to_string(const GemmShape& s) {
  std::ostringstream os;
  os << "gemm[" << to_string(s.op_a) << to_string(s.op_b) << " m=" << s.m
     << " n=" << s.n << " k=" << s.k << " batch=" << s.batch << "]";
  return os.str();
}

std::string to_string(const TrsmShape& s) {
  std::ostringstream os;
  os << (s.op == TriOp::Solve ? "trsm[" : "trmm[") << to_string(s.side)
     << to_string(s.op_a) << to_string(s.uplo) << to_string(s.diag)
     << " m=" << s.m << " n=" << s.n << " batch=" << s.batch << "]";
  return os.str();
}

} // namespace iatf
