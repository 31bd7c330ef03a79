// The one plan-versus-reference check behind the kernel canary and the
// tuner's correctness gate (detail::agrees_with_reference in
// src/core/engine_ops.hpp). The quarantine tests reach a canary failure
// only through the `resilience.verify` fault site; these drive the
// comparison itself: an element of a checked lane moved past the
// tolerance and a NaN in that element are mismatches, an untouched
// output agrees. GEMM and TRSM run their canary operands through the
// real plan; the edit is applied to the plan's output.
#include <complex>
#include <limits>

#include <gtest/gtest.h>

#include "core/engine_ops.hpp"

namespace iatf::detail {
namespace {

template <class Traits>
void expect_only_untouched_output_agrees(const resilience::KernelUse& use) {
  using T = typename Traits::value_type;
  using R = real_t<T>;
  const auto [shape, tuning] = Traits::canary_plan(use);
  const typename Traits::Plan plan(shape, CacheInfo::kunpeng920(), tuning);
  const R eps = std::numeric_limits<R>::epsilon() * R(512);
  const Tolerance<R> tol{eps, eps};
  // The last element of the last checked lane.
  const index_t lane = shape.batch - 1;
  const auto check = [&](auto edit) {
    typename Traits::Operands ops(shape);
    Traits::canary_fill(ops);
    CompactBuffer<T>& out = *sched::written(ops.seg);
    const index_t i = out.rows() - 1;
    const index_t j = out.cols() - 1;
    return agrees_with_reference<Traits>(shape, ops.seg, shape.batch, tol,
                                         [&] {
                                           Traits::execute(plan, ops.seg,
                                                           nullptr, nullptr);
                                           edit(out, i, j);
                                         });
  };

  EXPECT_TRUE(check([](CompactBuffer<T>&, index_t, index_t) {}))
      << "untouched output";
  EXPECT_FALSE(check([&](CompactBuffer<T>& out, index_t i, index_t j) {
    const T v = out.get(lane, i, j);
    const R bound = tol.abs + tol.rel * static_cast<R>(std::abs(v));
    out.set(lane, i, j, v + T(R(4) * bound));
  })) << "one element moved past the tolerance";
  EXPECT_FALSE(check([&](CompactBuffer<T>& out, index_t i, index_t j) {
    out.set(lane, i, j, T(std::numeric_limits<R>::quiet_NaN()));
  })) << "one NaN element";
}

TEST(AgreesWithReference, GemmRejectsMovedAndNaNElements) {
  expect_only_untouched_output_agrees<GemmOp<double, 16>>({'g', 3, 4});
  expect_only_untouched_output_agrees<GemmOp<std::complex<float>, 16>>(
      {'g', 2, 2});
}

TEST(AgreesWithReference, TrsmRejectsMovedAndNaNElements) {
  expect_only_untouched_output_agrees<TrsmOp<float, 16>>({'t', 3, 2});
  expect_only_untouched_output_agrees<TrsmOp<std::complex<double>, 16>>(
      {'r', 2, 2});
}

} // namespace
} // namespace iatf::detail
