// Size-class scheduler for grouped variable-size compact batches.
//
// An engine call hands the engine its segments -- `group_count` of them
// for a grouped call, one for a single call -- each with its own
// descriptor (shape, mode, scalars, batch) over compact-layout buffers.
// The scheduler's job is twofold:
//
//  * bin segments by descriptor (ClassKey) so each distinct descriptor
//    resolves exactly one execution plan through the engine's sharded
//    cache -- segments sharing a size class share a plan, and the
//    single-flight machinery collapses concurrent cold misses to one
//    build;
//
//  * cut each segment's interleave groups into work items of a bounded
//    granularity and interleave the items round-robin across segments,
//    so the thread pool alternates between size classes and one huge
//    group cannot starve the small ones queued behind it.
//
// The binning and interleaving are pure functions over descriptors and
// extents, so they are directly unit-testable without any engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "iatf/common/fault_inject.hpp"
#include "iatf/common/types.hpp"
#include "iatf/factor/factor_plan.hpp"
#include "iatf/layout/compact.hpp"

namespace iatf::sched {

/// One GEMM segment of a grouped call:
/// C = alpha * op_a(A) * op_b(B) + beta * C for every matrix in the
/// segment's batch. Shapes are inferred from the buffers and the ops,
/// exactly like Engine::gemm. Buffers are non-owning.
template <class T> struct GemmSegment {
  Op op_a = Op::NoTrans;
  Op op_b = Op::NoTrans;
  T alpha = T(1);
  T beta = T(0);
  const CompactBuffer<T>* a = nullptr;
  const CompactBuffer<T>* b = nullptr;
  CompactBuffer<T>* c = nullptr;
};

/// One triangular segment of a grouped call. Solve: op_a(A) X = alpha B
/// (Left) or X op_a(A) = alpha B (Right); B is overwritten by X.
/// Multiply: B = alpha op_a(A) B (Left) or alpha B op_a(A) (Right).
template <class T> struct TrsmSegment {
  Side side = Side::Left;
  Uplo uplo = Uplo::Lower;
  Op op_a = Op::NoTrans;
  Diag diag = Diag::NonUnit;
  T alpha = T(1);
  const CompactBuffer<T>* a = nullptr;
  CompactBuffer<T>* b = nullptr;
  TriOp op = TriOp::Solve;
};

/// One factorisation segment of a grouped call: factor the segment's
/// batch in place with the named routine (uplo/diag apply to Trtri
/// only). Heterogeneous chains -- a Cholesky beside a triangular inverse
/// beside an LU -- bin into separate size classes of one grouped call.
template <class T> struct FactorSegment {
  factor::FactorOp op = factor::FactorOp::Potrf;
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  CompactBuffer<T>* a = nullptr;
};

/// The descriptor class of a segment: the one identity the engine keys
/// its plan cache, breaker slots and tuning table on (a tuning key is a
/// ClassKey with batch 0) and the serving front end coalesces on. Two
/// segments with equal ClassKeys share an execution plan. `dtype` and
/// `bytes` are always set by class_key: requests whose buffers belong to
/// different dtypes or ISA backends never merge, since the kernel class
/// is part of the identity. The operands' layout (raw buffers or packed
/// handles) is not: plans are built from the descriptor alone.
struct ClassKey {
  char op = 0; ///< 'g' GEMM, 't' TRSM, 'm' TRMM, 'p'/'l'/'i' factorisations
  char dtype = 0; ///< 's', 'd', 'c', 'z'
  index_t m = 0, n = 0, k = 0;
  std::uint8_t op_a = 0, op_b = 0, side = 0, uplo = 0, diag = 0;
  index_t batch = 0;
  int bytes = 0; ///< register width of the kernel class

  friend bool operator==(const ClassKey&, const ClassKey&) = default;
};

/// FNV-1a over a ClassKey's fields. Its value is also the breaker slot of
/// the class, which the health ledger persists (DESIGN.md section 14), so
/// the mixing order is a file format: changing it orphans every journaled
/// breaker record.
struct ClassKeyHash {
  std::size_t operator()(const ClassKey& key) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(key.op) << 8 |
        static_cast<std::uint64_t>(key.dtype));
    mix(static_cast<std::uint64_t>(key.bytes));
    mix(static_cast<std::uint64_t>(key.m));
    mix(static_cast<std::uint64_t>(key.n));
    mix(static_cast<std::uint64_t>(key.k));
    mix(static_cast<std::uint64_t>(key.op_a) |
        static_cast<std::uint64_t>(key.op_b) << 8 |
        static_cast<std::uint64_t>(key.side) << 16 |
        static_cast<std::uint64_t>(key.uplo) << 24 |
        static_cast<std::uint64_t>(key.diag) << 32);
    mix(static_cast<std::uint64_t>(key.batch));
    return static_cast<std::size_t>(h);
  }
};

// --- Descriptors -------------------------------------------------------
// The one source of every op's descriptor, class, written operand and
// width: the engine's call pipeline keys its plan cache, breaker slots and
// tuning lookups on these, and the serving front end coalesces on the
// same ClassKey and dispatches on the same width.

/// Descriptor of a GEMM segment; shapes are inferred from C and op(A).
template <class T> GemmShape shape_of(const GemmSegment<T>& seg) {
  GemmShape s;
  s.m = seg.c->rows();
  s.n = seg.c->cols();
  s.k = seg.op_a == Op::NoTrans ? seg.a->cols() : seg.a->rows();
  s.op_a = seg.op_a;
  s.op_b = seg.op_b;
  s.batch = seg.c->batch();
  return s;
}

/// Descriptor of a TRSM segment; shapes are inferred from B.
template <class T> TrsmShape shape_of(const TrsmSegment<T>& seg) {
  TrsmShape s;
  s.m = seg.b->rows();
  s.n = seg.b->cols();
  s.side = seg.side;
  s.uplo = seg.uplo;
  s.op_a = seg.op_a;
  s.diag = seg.diag;
  s.batch = seg.b->batch();
  s.op = seg.op;
  return s;
}

/// Descriptor of a factorisation segment; the order is A's row count.
template <class T>
factor::FactorShape shape_of(const FactorSegment<T>& seg) {
  factor::FactorShape s;
  s.op = seg.op;
  s.m = seg.a->rows();
  s.uplo = seg.uplo;
  s.diag = seg.diag;
  s.batch = seg.a->batch();
  return s;
}

/// The operand a segment overwrites (C, B or A): the engine snapshots,
/// restores and repairs it, and its pack width is the segment's width.
template <class T> CompactBuffer<T>* written(const GemmSegment<T>& seg) {
  return seg.c;
}
template <class T> CompactBuffer<T>* written(const TrsmSegment<T>& seg) {
  return seg.b;
}
template <class T> CompactBuffer<T>* written(const FactorSegment<T>& seg) {
  return seg.a;
}

/// The width of a call over `segs` (one segment, or a grouped call's),
/// in bytes like ClassKey::bytes: its first written operand's, or the
/// 128-bit default when there is none. It picks the kernel class the call
/// runs on; the engine refuses every operand of another width.
template <template <class> class Seg, class T>
int width_of(std::span<const Seg<T>> segs) {
  const CompactBuffer<T>* out = segs.empty() ? nullptr : written(segs[0]);
  return out == nullptr ? 16 : static_cast<int>(out->pack_width() *
                                                sizeof(real_t<T>));
}

/// The class of a descriptor computed in dtype T on the `bytes`-wide
/// kernel class: op tag 'g' plus every GEMM field. Inline, like the
/// shape_of overloads: every plan-cache lookup and every serve submission
/// computes one.
template <class T> ClassKey class_key(const GemmShape& s, int bytes) {
  ClassKey key;
  key.op = 'g';
  key.dtype = blas_prefix_v<T>[0];
  key.m = s.m;
  key.n = s.n;
  key.k = s.k;
  key.op_a = static_cast<std::uint8_t>(s.op_a);
  key.op_b = static_cast<std::uint8_t>(s.op_b);
  key.batch = s.batch;
  key.bytes = bytes;
  return key;
}

/// The class of a descriptor: op tag 't' (solve) or 'm' (multiply) plus
/// every other triangular field.
template <class T> ClassKey class_key(const TrsmShape& s, int bytes) {
  ClassKey key;
  key.op = s.op == TriOp::Solve ? 't' : 'm';
  key.dtype = blas_prefix_v<T>[0];
  key.m = s.m;
  key.n = s.n;
  key.op_a = static_cast<std::uint8_t>(s.op_a);
  key.side = static_cast<std::uint8_t>(s.side);
  key.uplo = static_cast<std::uint8_t>(s.uplo);
  key.diag = static_cast<std::uint8_t>(s.diag);
  key.batch = s.batch;
  key.bytes = bytes;
  return key;
}

/// The class of a descriptor: op tag 'p' (Cholesky), 'l' (unpivoted LU)
/// or 'i' (triangular inverse) plus order, uplo, diag and batch. The
/// matrix is square, so the order is both m and n.
template <class T>
ClassKey class_key(const factor::FactorShape& s, int bytes) {
  ClassKey key;
  switch (s.op) {
  case factor::FactorOp::Potrf:
    key.op = 'p';
    break;
  case factor::FactorOp::GetrfNp:
    key.op = 'l';
    break;
  case factor::FactorOp::Trtri:
    key.op = 'i';
    break;
  }
  key.dtype = blas_prefix_v<T>[0];
  key.m = s.m;
  key.n = s.m;
  key.uplo = static_cast<std::uint8_t>(s.uplo);
  key.diag = static_cast<std::uint8_t>(s.diag);
  key.batch = s.batch;
  key.bytes = bytes;
  return key;
}

/// Whether `k` is a key class_key can emit: a known op letter and dtype,
/// a 16-, 32- or 64-byte kernel class, no negative size or batch, and
/// every mode field within its enum. The tuning table loads only these.
inline bool valid_key(const ClassKey& k) {
  const std::string_view ops = "gtmpli", dtypes = "sdcz";
  return ops.find(k.op) != ops.npos && dtypes.find(k.dtype) != dtypes.npos &&
         (k.bytes == 16 || k.bytes == 32 || k.bytes == 64) && k.m >= 0 &&
         k.n >= 0 && k.k >= 0 && k.batch >= 0 && k.op_a <= 2 &&
         k.op_b <= 2 && k.side <= 1 && k.uplo <= 1 && k.diag <= 1;
}

/// Bin segments by descriptor: set each segment's `leader` to the index
/// of the first segment in `segs` whose `key` equals its own, so classes
/// keep first-appearance order and a segment leads its class exactly
/// when `leader` is its own index. `Seg` is any type with a ClassKey
/// `key` and a std::size_t `leader` (the engine's per-segment call
/// state). Returns the number of distinct classes. Each segment is
/// compared against the leaders before it only; grouped calls carry tens
/// of segments over a few classes, and a call of one segment compares
/// nothing.
template <class Seg> std::size_t bin_by_descriptor(std::span<Seg> segs) {
  IATF_FAULT_POINT("sched.bin", Status::Internal);
  fault::stall_if_armed("sched.bin");
  std::size_t classes = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    segs[i].leader = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (segs[j].leader == j && segs[j].key == segs[i].key) {
        segs[i].leader = j;
        break;
      }
    }
    if (segs[i].leader == i) {
      ++classes;
    }
  }
  return classes;
}

/// One thread-pool work item: a contiguous range of interleave groups of
/// one segment.
struct WorkItem {
  std::size_t segment = 0;
  index_t g_begin = 0;
  index_t g_end = 0;
};

/// Per-segment extent handed to interleave_slices: total interleave
/// groups and the granularity (groups per work item) chosen for it.
struct SegmentExtent {
  index_t groups = 0;
  index_t item_groups = 1;
};

/// Cut every segment into ceil(groups / item_groups) items and emit them
/// round-robin across segments (item 0 of each segment, then item 1 of
/// each, ...), so the pool's shared queue alternates between size classes
/// instead of draining one segment to completion first. Segments with
/// zero groups contribute nothing.
std::vector<WorkItem> interleave_slices(std::span<const SegmentExtent> extents);

/// Groups per work item for a segment of `seg_groups` interleave groups.
/// `tuned_chunk` (> 0) -- the plan's tuned/overridden parallel chunk
/// size -- wins when set. Otherwise aim for ~2 items per worker over
/// this segment alone (so the tail imbalance stays small even in the
/// degenerate one-segment case) but never cut finer than one L1 batch
/// slice (`slice_groups`), which bounds the per-item packing-workspace
/// amortisation loss. The result is clamped to [1, max(seg_groups, 1)].
index_t item_granularity(index_t seg_groups, index_t slice_groups,
                         index_t tuned_chunk, index_t workers);

} // namespace iatf::sched
