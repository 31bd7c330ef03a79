#include <gtest/gtest.h>

#include "iatf/plan/plan_dump.hpp"

namespace iatf::plan {
namespace {

TEST(PlanDump, GemmShowsGridAndDecisions) {
  GemmPlan<float> plan(GemmShape{15, 15, 15, Op::Trans, Op::NoTrans, 64},
                       CacheInfo::kunpeng920());
  const std::string text = dump(plan);
  EXPECT_NE(text.find("sgemm TN"), std::string::npos);
  EXPECT_NE(text.find("A packed"), std::string::npos);
  EXPECT_NE(text.find("B no-pack"), std::string::npos);
  // Figure 4(b): 15 -> 4+4+4+3 on both dimensions, 16 kernel calls.
  EXPECT_NE(text.find("4@0 4@4 4@8 3@12"), std::string::npos);
  EXPECT_NE(text.find("16 kernel calls"), std::string::npos);
  EXPECT_NE(text.find("gemm_kernel 3x3"), std::string::npos);
}

TEST(PlanDump, TrsmShowsCanonicalisationAndQueue) {
  TrsmPlan<double> plan(
      TrsmShape{9, 6, Side::Right, Uplo::Lower, Op::NoTrans,
                Diag::NonUnit, 32},
      CacheInfo::kunpeng920());
  const std::string text = dump(plan);
  EXPECT_NE(text.find("dtrsm RNLN"), std::string::npos);
  // Right + Lower NoTrans canonicalises via transpose (no reversal).
  EXPECT_NE(text.find("via transpose"), std::string::npos);
  EXPECT_NE(text.find("B packed"), std::string::npos);
  EXPECT_NE(text.find("blocked"), std::string::npos);
  EXPECT_NE(text.find("rect"), std::string::npos);
  EXPECT_NE(text.find("tri"), std::string::npos);

  // The multiply of the same descriptor: same canonical form, plain
  // diagonal, block rows bottom-up with GEMM updates.
  TrsmPlan<double> mul(
      TrsmShape{9, 6, Side::Right, Uplo::Lower, Op::NoTrans,
                Diag::NonUnit, 32, TriOp::Multiply},
      CacheInfo::kunpeng920());
  const std::string mtext = dump(mul);
  EXPECT_NE(mtext.find("dtrmm RNLN"), std::string::npos);
  EXPECT_NE(mtext.find("via transpose"), std::string::npos);
  EXPECT_EQ(mtext.find("reciprocal"), std::string::npos);
  EXPECT_NE(mtext.find("tri   multiply"), std::string::npos);
  EXPECT_NE(mtext.find("gemm  rows@"), std::string::npos);
  ASSERT_FALSE(mul.steps().empty());
  EXPECT_EQ(mul.steps().front().row_off, mul.blocks().back().offset);
}

TEST(PlanDump, TrsmIdentityCanonicalForm) {
  TrsmPlan<double> plan(
      TrsmShape{4, 4, Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                8},
      CacheInfo::kunpeng920());
  const std::string text = dump(plan);
  EXPECT_NE(text.find("(identity)"), std::string::npos);
  EXPECT_NE(text.find("B in-place"), std::string::npos);
  EXPECT_NE(text.find("register-resident"), std::string::npos);
}

} // namespace
} // namespace iatf::plan
