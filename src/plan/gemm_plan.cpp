#include "iatf/plan/gemm_plan.hpp"

#include <algorithm>
#include <array>
#include <complex>

#include "iatf/common/error.hpp"
#include "iatf/pack/gemm_pack.hpp"

namespace iatf::plan {

template <class T, int Bytes>
GemmPlan<T, Bytes>::GemmPlan(const GemmShape& shape, const CacheInfo& cache,
                             const PlanTuning& tuning)
    : Base("gemm", tuning, shape.batch), shape_(shape) {
  IATF_CHECK(shape.m >= 0 && shape.n >= 0 && shape.k >= 0 &&
                 shape.batch >= 0,
             "gemm: negative dimension");
  this->idle_ = shape.m == 0 || shape.n == 0 || shape.batch == 0;

  const index_t es = Base::element_stride();

  // Kernel-variant selection: the width's own CMAR-derived tile shape
  // first (an AVX2 backend with 16 ymm registers selects 3x2 where the
  // 128-bit and AVX-512 backends select 4x4), then the tuner may cap the
  // tile sizes further, picking a different registry kernel set.
  using WTile = kernels::WidthTile<T, Bytes>;
  const index_t max_mc =
      tuning.mc_cap > 0 && tuning.mc_cap < WTile::mc ? tuning.mc_cap
                                                     : WTile::mc;
  const index_t max_nc =
      tuning.nc_cap > 0 && tuning.nc_cap < WTile::nc ? tuning.nc_cap
                                                     : WTile::nc;
  m_tiles_ = tile_dimension(shape.m, max_mc);
  n_tiles_ = tile_dimension(shape.n, max_nc);

  // Pack Selecter (section 4.4): "it only chooses data packing when the
  // data cannot be continuously accessed in the computing core". The
  // paper's assembly kernels demand fully contiguous panels, so on the
  // original platform only single-tile NoTrans operands skip the pack;
  // our portable kernels take per-operand strides, which makes every
  // NoTrans operand directly consumable -- the matrices are L1-resident,
  // so the strided walk costs nothing while packing costs a full copy.
  // Only gathered (transposed / conjugated) operands pack. The
  // bench_ablation_nopack harness quantifies this policy.
  pack_a_ = shape.op_a != Op::NoTrans;
  pack_b_ = shape.op_b != Op::NoTrans;
  // Ablation overrides; forcing *no-pack* is only legal for NoTrans
  // operands (a transposed gather cannot be skipped).
  if (tuning.force_pack_a == 1) {
    pack_a_ = true;
  } else if (tuning.force_pack_a == 0) {
    IATF_CHECK(shape.op_a == Op::NoTrans,
               "gemm: cannot force no-pack for a transposed A");
    pack_a_ = false;
  }
  if (tuning.force_pack_b == 1) {
    pack_b_ = true;
  } else if (tuning.force_pack_b == 0) {
    IATF_CHECK(shape.op_b == Op::NoTrans,
               "gemm: cannot force no-pack for a transposed B");
    pack_b_ = false;
  }

  pa_group_size_ =
      pack_a_ ? pack::packed_gemm_a_size(shape.m, shape.k, es) : 0;
  pb_group_size_ =
      pack_b_ ? pack::packed_gemm_b_size(shape.k, shape.n, es) : 0;

  // Build the command queue: one kernel call per (m-tile, n-tile), with
  // source offsets resolved against either the packed panel layout or the
  // user's compact layout.
  calls_.reserve(m_tiles_.size() * n_tiles_.size());
  index_t a_rows_done = 0;
  for (const Tile& mt : m_tiles_) {
    index_t b_cols_done = 0;
    for (const Tile& nt : n_tiles_) {
      Call call;
      call.fn = kernels::Registry<T, Bytes>::gemm(
          static_cast<int>(mt.size), static_cast<int>(nt.size));
      resilience::note_kernel(kernels_used_, 'g', mt.size, nt.size);
      call.k = shape.k;
      call.mc = mt.size;
      call.nc = nt.size;
      if (pack_a_) {
        call.a_off = a_rows_done * shape.k * es;
        call.a_kstride = mt.size * es;
      } else {
        call.a_off = mt.offset * es;
        call.a_kstride = shape.m * es;
      }
      if (pack_b_) {
        call.b_off = b_cols_done * shape.k * es;
        call.b_kstride = nt.size * es;
        call.b_jstride = es;
      } else {
        call.b_off = nt.offset * shape.k * es;
        call.b_kstride = es;
        call.b_jstride = shape.k * es;
      }
      call.c_off = (nt.offset * shape.m + mt.offset) * es;
      calls_.push_back(call);
      b_cols_done += nt.size;
    }
    a_rows_done += mt.size;
  }

  // Batch Counter: slice so packed A + packed B + the C block stay in L1.
  const index_t group_scalars = shape.m * shape.k + shape.k * shape.n +
                                shape.m * shape.n;
  const index_t group_bytes =
      group_scalars * es * static_cast<index_t>(sizeof(R));
  this->size_slice(cache, group_bytes);

  // Next-group stream over the command queue: A and B are read (a packed
  // operand at its source group, which the next pack reads), C is
  // read-modify-written.
  const auto bytes = [&](index_t scalars) {
    return static_cast<std::size_t>(scalars * es) * sizeof(R);
  };
  const std::size_t a_bytes = bytes(shape.m * shape.k);
  const std::size_t b_bytes = bytes(shape.k * shape.n);
  const std::size_t c_bytes = bytes(shape.m * shape.n);
  const auto groups = static_cast<std::size_t>(
      (shape.batch + Base::pack_width() - 1) / Base::pack_width());
  if (stream_next_group(std::max({a_bytes, b_bytes, c_bytes}),
                        groups * (a_bytes + b_bytes + c_bytes), cache)) {
    const GroupStream::Segment segments[] = {{0, 0, a_bytes, false},
                                             {1, 0, b_bytes, false},
                                             {2, 0, c_bytes, true}};
    stream_ = GroupStream(segments, calls_.size());
  }
}

template <class T, int Bytes>
void GemmPlan<T, Bytes>::check_operands(const GemmShape& s,
                                        const CompactBuffer<T>& a,
                                        const CompactBuffer<T>& b,
                                        const CompactBuffer<T>& c) {
  const auto expect = [](const CompactBuffer<T>& buf, index_t rows,
                         index_t cols, const char* name) {
    IATF_CHECK(buf.rows() == rows && buf.cols() == cols,
               std::string("gemm: operand ") + name +
                   " has mismatched dimensions");
  };
  const bool ta = s.op_a != Op::NoTrans;
  const bool tb = s.op_b != Op::NoTrans;
  expect(a, ta ? s.k : s.m, ta ? s.m : s.k, "A");
  expect(b, tb ? s.n : s.k, tb ? s.k : s.n, "B");
  expect(c, s.m, s.n, "C");
  IATF_CHECK(a.batch() == s.batch && b.batch() == s.batch &&
                 c.batch() == s.batch,
             "gemm: operand batch sizes do not match");
  IATF_CHECK(a.pack_width() == Base::pack_width() &&
                 b.pack_width() == Base::pack_width() &&
                 c.pack_width() == Base::pack_width(),
             "gemm: operand pack width does not match the plan");
}

template <class T, int Bytes>
void GemmPlan<T, Bytes>::execute_range(const CompactBuffer<T>& a,
                                       const CompactBuffer<T>& b,
                                       CompactBuffer<T>& c, T alpha, T beta,
                                       index_t g_begin, index_t g_end,
                                       HealthRecorder* health,
                                       const Deadline* deadline) const {
  check_operands(shape_, a, b, c);
  const index_t es = Base::element_stride();
  const index_t pw = Base::pack_width();
  this->walk(
      c.groups(), g_begin, g_end, deadline,
      [&](index_t g) {
        return std::array<const void*, 3>{a.group_data(g), b.group_data(g),
                                          c.group_data(g)};
      },
      [&](const auto& slice) {
        if (pack_a_) {
          for (index_t g = slice.g0; g < slice.g1; ++g) {
            pack::pack_gemm_a<T>(a.group_data(g), a.rows(), es, shape_.op_a,
                                 m_tiles_, shape_.k, slice.a(g));
          }
        }
        if (pack_b_) {
          for (index_t g = slice.g0; g < slice.g1; ++g) {
            pack::pack_gemm_b<T>(b.group_data(g), b.rows(), es, shape_.op_b,
                                 n_tiles_, shape_.k, slice.b(g));
          }
        }
      },
      [&](const auto& slice, index_t g, auto& next) {
        const R* ga = pack_a_ ? slice.a(g) : a.group_data(g);
        const R* gb = pack_b_ ? slice.b(g) : b.group_data(g);
        R* gc = c.group_data(g);
        for (const Call& call : calls_) {
          next.step();
          kernels::GemmKernelArgs<T> args;
          args.pa = ga + call.a_off;
          args.pb = gb + call.b_off;
          args.c = gc + call.c_off;
          args.k = call.k;
          args.a_kstride = call.a_kstride;
          args.b_kstride = call.b_kstride;
          args.b_jstride = call.b_jstride;
          args.c_jstride = shape_.m * es;
          args.alpha = alpha;
          args.beta = beta;
          call.fn(args);
        }
        if (health != nullptr) {
          // Output scan while the group is still cache-resident.
          scan_nonfinite_group<R>(gc, shape_.m * shape_.n, pw,
                                  CompactBuffer<T>::planes,
                                  this->live_lanes(g), g * pw, *health);
        }
      });
}

template class GemmPlan<float, 16>;
template class GemmPlan<double, 16>;
template class GemmPlan<std::complex<float>, 16>;
template class GemmPlan<std::complex<double>, 16>;
template class GemmPlan<float, 32>;
template class GemmPlan<double, 32>;
template class GemmPlan<std::complex<float>, 32>;
template class GemmPlan<std::complex<double>, 32>;
template class GemmPlan<float, 64>;
template class GemmPlan<double, 64>;
template class GemmPlan<std::complex<float>, 64>;
template class GemmPlan<std::complex<double>, 64>;

} // namespace iatf::plan
