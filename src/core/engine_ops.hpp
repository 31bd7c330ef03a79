// Op traits for the engine's one call pipeline (DESIGN.md section 11.6).
// Engine::run<Traits> serves every call -- a single call is a one-segment
// call -- through the same admission -> breaker -> plan -> verify ->
// execute -> retry -> lane repair -> reference fallback path; each traits
// struct below holds only the facts that differ between ops. A segment's
// descriptor, size class, written operand and width are not among them:
// they come from sched::shape_of / class_key / written / width_of, which
// the serving front end shares.
//
//   Segment, Shape, Plan   the operand bundle, its descriptor, its plan;
//   gated                  breaker + kernel canary apply (false for
//                          factorisations, whose plans dispatch no
//                          registry kernels);
//   plan_site,             fault site and tile-cap bounds of the tuned
//   max_mc, max_nc         plan builder (GEMM and TRSM only; factor
//                          plans take no tuning);
//   plan_for               the engine's plan_* lookup;
//   prepare / scan         pre-execution step and post-execution hazard
//                          scan (factorisations only);
//   execute /              the whole batch, or interleave groups
//   execute_range          [g_begin, g_end) (thread-pool work items);
//   validate               the call's whole operand contract, checked
//                          once per segment before any route is chosen:
//                          the null check, then Plan::check_operands
//                          (dimensions, batch and width); returns the
//                          segment's descriptor;
//   ref_lane               recompute one lane on the scalar reference;
//                          false when the reference refuses the lane
//                          (factorisations only), which keeps its
//                          current contents and is flagged singular;
//   Operands               owning operands of one shape with a segment
//                          bound to them (GEMM and triangular: kernel
//                          canary and tuner data);
//   canary_plan,           the shape and tuning whose plan exercises one
//   canary_fill            registry kernel, and its exact operand fill
//                          (GEMM and triangular).
//
// TrsmOp serves both triangular ops, solve and multiply: the descriptor's
// TriOp picks the plan's command queue and the reference routine.
//
// agrees_with_reference is the one plan-versus-reference check, shared
// by the kernel canary and the tuner's correctness gate.
//
// CallSegment is the per-segment state the pipeline carries between its
// stages.
//
// Not installed; not part of the public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/common/status.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/kernels/registry.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/sched/group_scheduler.hpp"

namespace iatf::detail {

/// Canary operand (DESIGN.md section 11.1): small exact binary fractions,
/// so the tiled kernels and the scalar reference agree to a few ulps and
/// a mismatch means a broken kernel, not accumulated rounding. A nonzero
/// `diag` replaces the diagonal.
template <class T>
void fill_exact(CompactBuffer<T>& buf, int salt, T diag = T(0)) {
  using R = real_t<T>;
  for (index_t b = 0; b < buf.batch(); ++b) {
    for (index_t j = 0; j < buf.cols(); ++j) {
      for (index_t i = 0; i < buf.rows(); ++i) {
        const int seed = static_cast<int>(salt + 13 * b + 7 * j + 3 * i);
        const R re = static_cast<R>(((seed % 11) - 5) * 0.0625);
        T v = T(re);
        if constexpr (is_complex_v<T>) {
          v.imag(static_cast<R>((((seed / 3) % 7) - 3) * 0.125));
        }
        buf.set(b, i, j, i == j && diag != T(0) ? diag : v);
      }
    }
  }
}

template <class T, int Bytes> struct GemmOp {
  using value_type = T;
  using Segment = sched::GemmSegment<T>;
  using Shape = GemmShape;
  using Plan = plan::GemmPlan<T, Bytes>;
  static constexpr int bytes = Bytes;
  static constexpr bool gated = true;

  static constexpr const char* plan_site = "plan.gemm";
  static constexpr index_t max_mc = kernels::KernelLimits<T>::gemm_max_mc;
  static constexpr index_t max_nc = kernels::KernelLimits<T>::gemm_max_nc;

  static auto plan_for(Engine& engine, const Shape& s) {
    return engine.plan_gemm<T, Bytes>(s);
  }

  static void prepare(const Segment&) {}
  static void scan(const Shape&, const Segment&, HealthRecorder&) {}

  static void execute(const Plan& plan, const Segment& seg,
                      HealthRecorder* rec, const Deadline* deadline) {
    plan.execute(*seg.a, *seg.b, *seg.c, seg.alpha, seg.beta, rec,
                 deadline);
  }
  static void execute_range(const Plan& plan, const Segment& seg,
                            index_t g_begin, index_t g_end,
                            HealthRecorder* rec, const Deadline* deadline) {
    plan.execute_range(*seg.a, *seg.b, *seg.c, seg.alpha, seg.beta, g_begin,
                       g_end, rec, deadline);
  }

  static Shape validate(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr && seg.b != nullptr && seg.c != nullptr,
               "gemm_grouped: segment with a null buffer");
    const Shape s = sched::shape_of(seg);
    Plan::check_operands(s, *seg.a, *seg.b, *seg.c);
    return s;
  }

  /// Recompute one lane with the scalar reference GEMM. The lane's C must
  /// hold the original (pre-call) values so beta applies correctly.
  static bool ref_lane(const Shape& s, const Segment& seg, index_t lane) {
    const CompactBuffer<T>& a = *seg.a;
    const CompactBuffer<T>& b = *seg.b;
    CompactBuffer<T>& c = *seg.c;
    const index_t lda = std::max<index_t>(a.rows(), 1);
    const index_t ldb = std::max<index_t>(b.rows(), 1);
    const index_t ldc = std::max<index_t>(c.rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a.rows() * a.cols()));
    std::vector<T> tb(static_cast<std::size_t>(b.rows() * b.cols()));
    std::vector<T> tc(static_cast<std::size_t>(c.rows() * c.cols()));
    a.export_colmajor(lane, ta.data(), lda);
    b.export_colmajor(lane, tb.data(), ldb);
    c.export_colmajor(lane, tc.data(), ldc);
    ref::gemm(s.op_a, s.op_b, s.m, s.n, s.k, seg.alpha, ta.data(), lda,
              tb.data(), ldb, seg.beta, tc.data(), ldc);
    c.import_colmajor(lane, tc.data(), ldc);
    return true;
  }

  struct Operands {
    explicit Operands(const Shape& s)
        : a(s.op_a == Op::NoTrans ? s.m : s.k,
            s.op_a == Op::NoTrans ? s.k : s.m, s.batch, Plan::pack_width()),
          b(s.op_b == Op::NoTrans ? s.k : s.n,
            s.op_b == Op::NoTrans ? s.n : s.k, s.batch, Plan::pack_width()),
          c(s.m, s.n, s.batch, Plan::pack_width()) {
      seg.op_a = s.op_a;
      seg.op_b = s.op_b;
      seg.a = &a;
      seg.b = &b;
      seg.c = &c;
    }
    Operands(const Operands&) = delete;
    Operands& operator=(const Operands&) = delete;

    CompactBuffer<T> a, b, c;
    Segment seg; ///< bound to a, b, c; alpha 1 and beta 0 until set
  };

  /// At default tuning an (m, n) within the register-budget caps yields
  /// exactly one tile: the kernel under test, alone, here at depth 3.
  static std::pair<Shape, plan::PlanTuning>
  canary_plan(const resilience::KernelUse& use) {
    return {Shape{use.m, use.n, 3, Op::NoTrans, Op::NoTrans,
                  Plan::pack_width()},
            plan::PlanTuning{}};
  }
  static void canary_fill(Operands& ops) {
    fill_exact(ops.a, 1);
    fill_exact(ops.b, 2);
    fill_exact(ops.c, 3);
    ops.seg.alpha = T(0.5);
    ops.seg.beta = T(0.25);
  }
};

template <class T, int Bytes> struct TrsmOp {
  using value_type = T;
  using Segment = sched::TrsmSegment<T>;
  using Shape = TrsmShape;
  using Plan = plan::TrsmPlan<T, Bytes>;
  static constexpr int bytes = Bytes;
  static constexpr bool gated = true;

  static constexpr const char* plan_site = "plan.trsm";
  static constexpr index_t max_mc = kernels::KernelLimits<T>::trsm_block;
  static constexpr index_t max_nc = kernels::KernelLimits<T>::tri_max_nc;

  static auto plan_for(Engine& engine, const Shape& s) {
    return engine.plan_trsm<T, Bytes>(s);
  }

  static void prepare(const Segment&) {}
  static void scan(const Shape&, const Segment&, HealthRecorder&) {}

  static void execute(const Plan& plan, const Segment& seg,
                      HealthRecorder* rec, const Deadline* deadline) {
    plan.execute(*seg.a, *seg.b, seg.alpha, rec, deadline);
  }
  static void execute_range(const Plan& plan, const Segment& seg,
                            index_t g_begin, index_t g_end,
                            HealthRecorder* rec, const Deadline* deadline) {
    plan.execute_range(*seg.a, *seg.b, seg.alpha, g_begin, g_end, rec,
                       deadline);
  }

  static Shape validate(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr && seg.b != nullptr,
               "trsm_grouped: segment with a null buffer");
    const Shape s = sched::shape_of(seg);
    Plan::check_operands(s, *seg.a, *seg.b);
    return s;
  }

  /// Recompute one lane with the scalar reference TRSM or TRMM. The
  /// lane's B must hold the original input, not the partial fast-path
  /// result.
  static bool ref_lane(const Shape& s, const Segment& seg, index_t lane) {
    const CompactBuffer<T>& a = *seg.a;
    CompactBuffer<T>& b = *seg.b;
    const index_t lda = std::max<index_t>(a.rows(), 1);
    const index_t ldb = std::max<index_t>(b.rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a.rows() * a.cols()));
    std::vector<T> tb(static_cast<std::size_t>(b.rows() * b.cols()));
    a.export_colmajor(lane, ta.data(), lda);
    b.export_colmajor(lane, tb.data(), ldb);
    const auto reference = s.op == TriOp::Solve ? &ref::trsm<T> : &ref::trmm<T>;
    reference(s.side, s.uplo, s.op_a, s.diag, s.m, s.n, seg.alpha, ta.data(),
              lda, tb.data(), ldb);
    b.import_colmajor(lane, tb.data(), ldb);
    return true;
  }

  struct Operands {
    explicit Operands(const Shape& s)
        : a(s.a_dim(), s.a_dim(), s.batch, Plan::pack_width()),
          b(s.m, s.n, s.batch, Plan::pack_width()) {
      seg.side = s.side;
      seg.uplo = s.uplo;
      seg.op_a = s.op_a;
      seg.diag = s.diag;
      seg.op = s.op;
      seg.a = &a;
      seg.b = &b;
    }
    Operands(const Operands&) = delete;
    Operands& operator=(const Operands&) = delete;

    CompactBuffer<T> a, b;
    Segment seg; ///< bound to a and b; alpha 1 until set
  };

  /// LLNN. A tri kernel ('t', or 'm' in a multiply) runs alone on the
  /// small path. A rect kernel gets two block rows of its row size: the
  /// plan solves tri(m, n) on the diagonal block and updates the second
  /// block row through rect(m, n).
  static std::pair<Shape, plan::PlanTuning>
  canary_plan(const resilience::KernelUse& use) {
    const bool rect = use.kind == 'r';
    Shape s;
    s.m = rect ? 2 * use.m : use.m;
    s.n = use.n;
    s.batch = Plan::pack_width();
    s.op = use.kind == 'm' ? TriOp::Multiply : TriOp::Solve;
    plan::PlanTuning tuning;
    if (rect) {
      tuning.mc_cap = use.m;
      tuning.nc_cap = use.n;
    }
    return {s, tuning};
  }
  /// A power-of-two diagonal keeps the triangle well-conditioned with an
  /// exact reciprocal (and an exact product in a multiply).
  static void canary_fill(Operands& ops) {
    fill_exact(ops.a, 4, T(2));
    fill_exact(ops.b, 5);
    ops.seg.alpha = T(0.5);
  }
};

/// Factorisations run the same pipeline without the breaker and canary
/// (`gated` is false: a FactorPlan is a fixed register sweep with no
/// registry kernels, so there is nothing to canary and no per-kernel
/// failure domain to trip).
template <class T, int Bytes> struct FactorOp {
  using value_type = T;
  using Segment = sched::FactorSegment<T>;
  using Shape = factor::FactorShape;
  using Plan = factor::FactorPlan<T, Bytes>;
  static constexpr int bytes = Bytes;
  static constexpr bool gated = false;

  static auto plan_for(Engine& engine, const Shape& s) {
    return engine.plan_factor<T, Bytes>(s);
  }

  /// Factorisations divide by the pad-lane diagonals, so make them unit
  /// before touching the data (to_compact zero-fills the padding).
  static void prepare(const Segment& seg) { seg.a->pad_identity(); }

  /// Post-execution hazard scan over the written region. The plan's
  /// pivot scan catches bad pivots as they are formed; this catches
  /// Inf/NaN that propagated into the output without passing through a
  /// scanned diagonal (a non-finite off-diagonal input under Trtri, for
  /// example).
  static void scan(const Shape& s, const Segment& seg, HealthRecorder& rec) {
    for (index_t lane = 0; lane < s.batch; ++lane) {
      if (rec.flagged(lane)) {
        continue;
      }
      bool bad = false;
      for (index_t j = 0; j < s.m && !bad; ++j) {
        for (index_t i = 0; i < s.m; ++i) {
          if (in_written_region(s, i, j) &&
              !finite_scalar(seg.a->get(lane, i, j))) {
            bad = true;
            break;
          }
        }
      }
      if (bad) {
        rec.note_nonfinite(lane);
      }
    }
  }

  static void execute(const Plan& plan, const Segment& seg,
                      HealthRecorder* rec, const Deadline* deadline) {
    plan.execute(*seg.a, rec, deadline);
  }
  static void execute_range(const Plan& plan, const Segment& seg,
                            index_t g_begin, index_t g_end,
                            HealthRecorder* rec, const Deadline* deadline) {
    plan.execute_range(*seg.a, g_begin, g_end, rec, deadline);
  }

  static Shape validate(const Segment& seg) {
    IATF_CHECK(seg.a != nullptr, "factor_grouped: null segment buffer");
    const Shape s = sched::shape_of(seg);
    Plan::check_operands(s, *seg.a);
    return s;
  }

  /// Recompute one lane with the scalar reference factorisation,
  /// out-of-place. The lane is written back only when the reference
  /// result is defined -- ref::potrf accepted the input and the written
  /// region is free of Inf/NaN. Otherwise returns false and leaves the
  /// lane exactly as it was.
  static bool ref_lane(const Shape& s, const Segment& seg, index_t lane) {
    CompactBuffer<T>& a = *seg.a;
    const index_t lda = std::max<index_t>(a.rows(), 1);
    std::vector<T> ta(static_cast<std::size_t>(a.rows() * a.cols()));
    a.export_colmajor(lane, ta.data(), lda);
    try {
      switch (s.op) {
      case factor::FactorOp::Potrf:
        ref::potrf(s.m, ta.data(), lda);
        break;
      case factor::FactorOp::GetrfNp:
        ref::getrf_np(s.m, ta.data(), lda);
        break;
      case factor::FactorOp::Trtri:
        ref::trtri(s.uplo, s.diag, s.m, ta.data(), lda);
        break;
      }
    } catch (const Error&) {
      return false; // ref::potrf refuses non-positive-definite input
    }
    for (index_t j = 0; j < s.m; ++j) {
      for (index_t i = 0; i < s.m; ++i) {
        if (in_written_region(s, i, j) &&
            !finite_scalar(ta[static_cast<std::size_t>(j * lda + i)])) {
          return false; // quiet zero pivot: as failed as a throwing one
        }
      }
    }
    a.import_colmajor(lane, ta.data(), lda);
    return true;
  }

private:
  static bool finite_scalar(T v) {
    if constexpr (is_complex_v<T>) {
      return std::isfinite(v.real()) && std::isfinite(v.imag());
    } else {
      return std::isfinite(v);
    }
  }

  /// Does the factorisation write element (i, j)? Potrf touches the lower
  /// triangle only, LU the full matrix, Trtri its own triangle (diagonal
  /// included only when it is stored).
  static bool in_written_region(const Shape& s, index_t i, index_t j) {
    switch (s.op) {
    case factor::FactorOp::Potrf:
      return i >= j;
    case factor::FactorOp::GetrfNp:
      return true;
    case factor::FactorOp::Trtri:
      if (i == j) {
        return s.diag == Diag::NonUnit;
      }
      return s.uplo == Uplo::Lower ? i > j : i < j;
    }
    return true;
  }
};

/// Tolerance of agrees_with_reference: an element agrees when
/// |got - want| <= abs + rel * |want|. NaN never agrees, nor does Inf
/// on either side.
template <class R> struct Tolerance {
  R abs = 0;
  R rel = 0;
};

/// The one plan-versus-reference check (DESIGN.md section 11.1), shared
/// by the kernel canary and the tuner's correctness gate:
///   1. snapshot lanes [0, lanes) of the written operand;
///   2. run the plan once through `run`;
///   3. recompute those lanes from the snapshot with Traits::ref_lane;
///   4. compare them with the plan's output, element by element.
/// The written operand keeps the plan's output. For GEMM and TRSM, whose
/// ref_lane never refuses a lane.
template <class Traits, class Run>
bool agrees_with_reference(
    const typename Traits::Shape& shape, const typename Traits::Segment& seg,
    index_t lanes, Tolerance<real_t<typename Traits::value_type>> tol,
    const Run& run) {
  using T = typename Traits::value_type;
  using R = real_t<T>;
  CompactBuffer<T>& out = *sched::written(seg);
  const index_t ld = std::max<index_t>(out.rows(), 1);
  const auto elems = static_cast<std::size_t>(out.rows() * out.cols());
  std::vector<T> snapshot(elems * static_cast<std::size_t>(lanes));
  const auto lane_of = [&](std::vector<T>& v, index_t lane) {
    return v.data() + static_cast<std::size_t>(lane) * elems;
  };
  for (index_t lane = 0; lane < lanes; ++lane) {
    out.export_colmajor(lane, lane_of(snapshot, lane), ld);
  }
  run();
  std::vector<T> got(elems);
  std::vector<T> want(elems);
  for (index_t lane = 0; lane < lanes; ++lane) {
    // ref_lane recomputes in place from the lane's pre-call contents:
    // swap the snapshot in, recompute, and put the plan's output back.
    out.export_colmajor(lane, got.data(), ld);
    out.import_colmajor(lane, lane_of(snapshot, lane), ld);
    Traits::ref_lane(shape, seg, lane);
    out.export_colmajor(lane, want.data(), ld);
    out.import_colmajor(lane, got.data(), ld);
    for (std::size_t i = 0; i < elems; ++i) {
      const R err = static_cast<R>(std::abs(got[i] - want[i]));
      const R mag = static_cast<R>(std::abs(want[i]));
      if (!(err <= tol.abs + tol.rel * mag)) {
        return false;
      }
    }
  }
  return true;
}

/// The breaker gate of one admitted size class, held by the class
/// leader: its slot and whether this call is the slot's HalfOpen probe.
/// A held gate gets exactly one verdict on every exit of the call.
struct BreakerGate {
  std::size_t slot = 0;
  bool held = false;
  bool probe = false;
};

/// One segment of a call through Engine::run. Binning sets `leader` to
/// the first segment of the same size class; the class's plan, route
/// event and breaker gate live on that leader and are read through it.
template <class Traits> struct CallSegment {
  using Segment = typename Traits::Segment;
  using R = real_t<typename Traits::value_type>;

  explicit CallSegment(const Segment& s) : seg(s) {}

  Segment seg;
  typename Traits::Shape shape{};
  sched::ClassKey key{};
  std::size_t leader = 0;
  std::optional<HealthRecorder> rec;  ///< Check and Fallback
  std::vector<R> snapshot;            ///< Fallback: the written operand
  std::shared_ptr<const typename Traits::Plan> plan;
  DegradeEvent route = DegradeEvent::None; ///< != None: reference path
  BreakerGate gate;
};

} // namespace iatf::detail
