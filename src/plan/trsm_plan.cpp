#include "iatf/plan/trsm_plan.hpp"

#include <algorithm>
#include <array>
#include <complex>

#include "iatf/common/error.hpp"

namespace iatf::plan {
namespace {

// In-place alpha scale of `elems` element blocks of compact data (used by
// the no-pack path, where B is solved directly in the user's buffer).
template <class T>
void scale_compact(real_t<T>* data, index_t elems, index_t es, T alpha) {
  using R = real_t<T>;
  if constexpr (is_complex_v<T>) {
    const index_t half = es / 2;
    const R ar = alpha.real();
    const R ai = alpha.imag();
    for (index_t e = 0; e < elems; ++e) {
      R* blk = data + e * es;
      for (index_t l = 0; l < half; ++l) {
        const R re = blk[l];
        const R im = blk[half + l];
        blk[l] = ar * re - ai * im;
        blk[half + l] = ar * im + ai * re;
      }
    }
  } else {
    for (index_t i = 0; i < elems * es; ++i) {
      data[i] *= alpha;
    }
  }
}

} // namespace

template <class T, int Bytes>
TrsmPlan<T, Bytes>::TrsmPlan(const TrsmShape& shape, const CacheInfo& cache,
                             const PlanTuning& tuning)
    : Base(shape.op == TriOp::Solve ? "trsm" : "trmm", tuning, shape.batch),
      shape_(shape), canon_(pack::TrsmCanon::make(shape)) {
  IATF_CHECK(shape.m >= 0 && shape.n >= 0 && shape.batch >= 0,
             "trsm: negative dimension");
  this->idle_ = shape.m == 0 || shape.n == 0 || shape.batch == 0;

  using Limits = kernels::KernelLimits<T>;
  const index_t es = Base::element_stride();

  // Diagonal-block decomposition: the whole triangle when it fits in
  // registers (the paper's M <= 5 case), else main-kernel-sized blocks.
  // A tuner-chosen mc_cap forces the blocked decomposition with smaller
  // diagonal blocks (a different registry kernel set); nc_cap narrows
  // the column panels below the register-budget width.
  const index_t block_cap =
      tuning.mc_cap > 0 && tuning.mc_cap < Limits::trsm_block
          ? tuning.mc_cap
          : Limits::trsm_block;
  if (canon_.m <= Limits::tri_max_m && tuning.mc_cap == 0) {
    if (canon_.m > 0) {
      blocks_.push_back(Tile{0, canon_.m});
    }
  } else {
    blocks_ = tile_dimension(canon_.m, block_cap);
  }
  const index_t panel_cap =
      tuning.nc_cap > 0 && tuning.nc_cap < Limits::tri_max_nc
          ? tuning.nc_cap
          : Limits::tri_max_nc;
  panels_ = tile_dimension(canon_.n, panel_cap);

  // Pack Selecter: B needs gathering only when the canonical form moves
  // values around (row reversal or the Right-side transpose); plain
  // Left/Lower solves run in the user's buffer -- the paper's no-packing
  // strategy for the LNLN-like modes.
  pack_b_ = canon_.reverse || canon_.b_transpose;
  if (tuning.force_pack_a == 1 || tuning.force_pack_b == 1) {
    pack_b_ = true; // forcing a pack is always legal
  } else if (tuning.force_pack_b == 0) {
    // Forcing *no-pack* is only legal when the canonical form leaves B in
    // place (the gather of a reversed/transposed mode cannot be skipped).
    IATF_CHECK(!canon_.reverse && !canon_.b_transpose,
               "trsm: cannot force no-pack for a mode whose canonical "
               "form gathers B");
    pack_b_ = false;
  }

  pa_group_size_ = pack::packed_trsm_a_size(blocks_, es);
  pb_group_size_ = pack_b_ ? canon_.m * canon_.n * es : 0;

  // Command queue. A solve interleaves, per column panel, rect updates
  // and triangular solves in dependency order (paper equation 1); a
  // multiply runs the block rows bottom-up, each triangular multiply
  // before the GEMM updates that read lower, not yet updated rows.
  // push(panel, bi, bj): block row bi's triangle when bj == bi, else its
  // update from block row bj.
  using Reg = kernels::Registry<T, Bytes>;
  const bool solve = shape.op == TriOp::Solve;
  const auto push = [&](const Tile& panel, std::size_t bi, std::size_t bj) {
    const Tile& rowb = blocks_[bi];
    const Tile& colb = blocks_[bj];
    const int m = static_cast<int>(rowb.size);
    const int n = static_cast<int>(panel.size);
    Step step;
    char kind = 0;
    if (bi == bj) {
      if (solve) {
        step.kind = Step::Kind::Tri;
        step.tri_fn = Reg::tri(m, n);
        kind = 't';
      } else {
        step.kind = Step::Kind::MulTri;
        step.mul_tri_fn = Reg::trmm_tri(m, n);
        kind = 'm';
      }
    } else {
      if (solve) {
        step.kind = Step::Kind::Rect;
        step.rect_fn = Reg::rect(m, n);
        kind = 'r';
      } else {
        step.kind = Step::Kind::MulRect;
        step.gemm_fn = Reg::gemm(m, n);
        step.a_kstride = rowb.size * es;
        kind = 'g';
      }
      step.x_row_off = colb.offset;
      step.k = colb.size;
    }
    resilience::note_kernel(kernels_used_, kind, m, n);
    step.pa_off =
        pack::packed_trsm_row_offset(blocks_, static_cast<index_t>(bi), es) +
        colb.offset * rowb.size * es;
    step.col_off = panel.offset;
    step.row_off = rowb.offset;
    steps_.push_back(step);
  };
  for (const Tile& panel : panels_) {
    if (solve) {
      for (std::size_t bi = 0; bi < blocks_.size(); ++bi) {
        for (std::size_t bj = 0; bj <= bi; ++bj) {
          push(panel, bi, bj);
        }
      }
    } else {
      for (std::size_t bi = blocks_.size(); bi-- > 0;) {
        push(panel, bi, bi);
        for (std::size_t bj = 0; bj < bi; ++bj) {
          push(panel, bi, bj);
        }
      }
    }
  }

  const index_t group_bytes =
      (pa_group_size_ + canon_.m * canon_.n * es) *
      static_cast<index_t>(sizeof(R));
  this->size_slice(cache, group_bytes);

  // Next-group stream over the steps: the stored triangle of the source
  // A group, which the next pack reads, and B, which the solve
  // overwrites.
  const auto elem_bytes = static_cast<std::size_t>(es) * sizeof(R);
  const auto a_dim = static_cast<std::size_t>(shape.a_dim());
  const std::size_t a_bytes = a_dim * a_dim * elem_bytes;
  const std::size_t b_bytes =
      static_cast<std::size_t>(shape.m * shape.n) * elem_bytes;
  const auto groups = static_cast<std::size_t>(
      (shape.batch + Base::pack_width() - 1) / Base::pack_width());
  if (stream_next_group(std::max(a_bytes, b_bytes),
                        groups * (a_bytes + b_bytes), cache)) {
    std::vector<GroupStream::Segment> segments = triangle_segments(
        0, a_dim, elem_bytes, shape.uplo == Uplo::Lower, false);
    segments.push_back({1, 0, b_bytes, true});
    stream_ = GroupStream(segments, steps_.size());
  }
}

template <class T, int Bytes>
void TrsmPlan<T, Bytes>::check_operands(const TrsmShape& s,
                                        const CompactBuffer<T>& a,
                                        const CompactBuffer<T>& b) {
  const char* op = s.op == TriOp::Solve ? "trsm" : "trmm";
  IATF_CHECK(a.rows() == s.a_dim() && a.cols() == s.a_dim(),
             std::string(op) + ": A must be a_dim x a_dim");
  IATF_CHECK(b.rows() == s.m && b.cols() == s.n,
             std::string(op) + ": B has mismatched dimensions");
  IATF_CHECK(a.batch() == s.batch && b.batch() == s.batch,
             std::string(op) + ": operand batch sizes do not match");
  IATF_CHECK(a.pack_width() == Base::pack_width() &&
                 b.pack_width() == Base::pack_width(),
             std::string(op) + ": operand pack width does not match the plan");
}

template <class T, int Bytes>
template <class Cursor>
void TrsmPlan<T, Bytes>::run_steps(const R* packed_a, R* bdata, T alpha,
                                   Cursor& next) const {
  const index_t es = Base::element_stride();
  const index_t jstride = canon_.m * es;
  for (const Step& step : steps_) {
    next.step();
    R* brow = bdata + (step.col_off * canon_.m + step.row_off) * es;
    if (step.kind == Step::Kind::Rect) {
      kernels::TrsmRectArgs<T> args;
      args.pa = packed_a + step.pa_off;
      args.x = bdata + (step.col_off * canon_.m + step.x_row_off) * es;
      args.b = brow;
      args.k = step.k;
      args.xb_jstride = jstride;
      step.rect_fn(args);
    } else if (step.kind == Step::Kind::Tri) {
      kernels::TrsmTriArgs<T> args;
      args.pa = packed_a + step.pa_off;
      args.b = brow;
      args.b_jstride = jstride;
      step.tri_fn(args);
    } else if (step.kind == Step::Kind::MulTri) {
      kernels::TrmmTriArgs<T> args;
      args.pa = packed_a + step.pa_off;
      args.b = brow;
      args.b_jstride = jstride;
      args.alpha = alpha;
      step.mul_tri_fn(args);
    } else {
      kernels::GemmKernelArgs<T> args;
      args.pa = packed_a + step.pa_off;
      args.pb = bdata + (step.col_off * canon_.m + step.x_row_off) * es;
      args.c = brow;
      args.k = step.k;
      args.a_kstride = step.a_kstride;
      args.b_kstride = es;
      args.b_jstride = jstride;
      args.c_jstride = jstride;
      args.alpha = alpha;
      args.beta = T(1);
      step.gemm_fn(args);
    }
  }
}

template <class T, int Bytes>
void TrsmPlan<T, Bytes>::execute_range(const CompactBuffer<T>& a,
                                       CompactBuffer<T>& b, T alpha,
                                       index_t g_begin, index_t g_end,
                                       HealthRecorder* health,
                                       const Deadline* deadline) const {
  check_operands(shape_, a, b);
  const index_t es = Base::element_stride();
  const index_t pw = Base::pack_width();
  // A solve packs reciprocal diagonals (scanning them first) and scales
  // B by alpha up front; a multiply packs the plain triangle and hands
  // alpha to its kernels.
  const bool solve = shape_.op == TriOp::Solve;
  const T b_scale = solve ? alpha : T(1);
  this->walk(
      this->stream_, b.groups(), g_begin, g_end, deadline,
      [&](index_t g) {
        return std::array<const void*, 2>{a.group_data(g), b.group_data(g)};
      },
      [&](const auto& slice) {
        for (index_t g = slice.g0; g < slice.g1; ++g) {
          std::uint64_t singular = 0;
          pack::pack_trsm_a<T>(
              a.group_data(g), es, canon_, shape_.diag, blocks_, slice.a(g),
              solve, health != nullptr && solve ? &singular : nullptr);
          if (health != nullptr && singular != 0) {
            const index_t lanes = this->live_lanes(g);
            for (index_t lane = 0; lane < lanes; ++lane) {
              if ((singular >> lane) & 1u) {
                health->note_singular(g * pw + lane);
              }
            }
          }
        }
      },
      [&](const auto& slice, index_t g, auto& next) {
        const R* ga = slice.a(g);
        if (pack_b_) {
          R* gb = slice.b(g);
          pack::pack_trsm_b<T>(b.group_data(g), shape_.m, canon_, es,
                               b_scale, gb);
          run_steps(ga, gb, alpha, next);
          pack::unpack_trsm_b<T>(gb, shape_.m, canon_, es,
                                 b.group_data(g));
        } else {
          R* gb = b.group_data(g);
          if (!(b_scale == T(1))) {
            scale_compact<T>(gb, shape_.m * shape_.n, es, b_scale);
          }
          run_steps(ga, gb, alpha, next);
        }
        if (health != nullptr) {
          // Output scan while the group is still cache-resident.
          scan_nonfinite_group<R>(b.group_data(g), shape_.m * shape_.n, pw,
                                  CompactBuffer<T>::planes,
                                  this->live_lanes(g), g * pw, *health);
        }
      });
}

template class TrsmPlan<float, 16>;
template class TrsmPlan<double, 16>;
template class TrsmPlan<std::complex<float>, 16>;
template class TrsmPlan<std::complex<double>, 16>;
template class TrsmPlan<float, 32>;
template class TrsmPlan<double, 32>;
template class TrsmPlan<std::complex<float>, 32>;
template class TrsmPlan<std::complex<double>, 32>;
template class TrsmPlan<float, 64>;
template class TrsmPlan<double, 64>;
template class TrsmPlan<std::complex<float>, 64>;
template class TrsmPlan<std::complex<double>, 64>;

} // namespace iatf::plan

