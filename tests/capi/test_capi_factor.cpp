// C-API surface of the packed-layout and factorisation subsystem:
// handle lifecycle and accessors, the packed compute routines against
// their compact-buffer counterparts (bit-identical), the factorisation
// shims against the scalar reference, the packed stats counters, and
// the hazard status contract (CHECK reports NUMERICAL_HAZARD, FALLBACK
// repairs and returns OK), and the _compact factorisations as exact
// aliases of their _batch counterparts.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../factor/factor_testutil.hpp"
#include "../testutil.hpp"
#include "iatf/capi/iatf.h"

namespace iatf {
namespace {

// The C API routes through the process-wide default engine; leave it the
// way we found it so suites sharing the binary stay independent.
struct PolicyGuard {
  ~PolicyGuard() {
    iatf_set_exec_policy(IATF_EXEC_FAST);
    iatf_clear_error();
  }
};

TEST(CApiFactor, PackedLifecycleRoundTrip) {
  Rng rng(0xca01);
  const index_t m = 6, batch = 5;
  auto host = test::random_batch<double>(m, m, batch, rng);

  iatf_dpacked* p = iatf_dpack(host.data.data(), m, m, host.ld(),
                               host.matrix_stride(), batch);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(iatf_dpacked_rows(p), m);
  EXPECT_EQ(iatf_dpacked_cols(p), m);
  EXPECT_EQ(iatf_dpacked_batch(p), batch);
  EXPECT_EQ(iatf_dpacked_epoch(p), 0u);

  test::HostBatch<double> out(m, m, batch);
  ASSERT_EQ(iatf_dunpack(p, out.data.data(), out.ld(), out.matrix_stride()),
            IATF_STATUS_OK);
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(host, out, lane));
  }

  // Repack with fresh contents bumps the epoch.
  auto fresh = test::random_batch<double>(m, m, batch, rng);
  ASSERT_EQ(iatf_drepack(p, fresh.data.data(), fresh.ld(),
                         fresh.matrix_stride()),
            IATF_STATUS_OK);
  EXPECT_GE(iatf_dpacked_epoch(p), 1u);

  iatf_dfree_packed(p);
  iatf_dfree_packed(nullptr); // must be safe
}

TEST(CApiFactor, PackRejectsBadArguments) {
  EXPECT_EQ(iatf_spack(nullptr, 3, 3, 3, 9, 2), nullptr);
  EXPECT_NE(std::strlen(iatf_last_error()), 0u);
  iatf_clear_error();
  EXPECT_EQ(iatf_srepack(nullptr, nullptr, 3, 9), IATF_STATUS_INVALID_ARG);
  EXPECT_EQ(iatf_sunpack(nullptr, nullptr, 3, 9), IATF_STATUS_INVALID_ARG);
  iatf_clear_error();
}

TEST(CApiFactor, GemmPackedMatchesCompactBitForBit) {
  Rng rng(0xca02);
  const index_t m = 5, n = 4, k = 6, batch = 7;
  auto a = test::random_batch<double>(m, k, batch, rng);
  auto b = test::random_batch<double>(k, n, batch, rng);
  auto c = test::random_batch<double>(m, n, batch, rng);

  // Compact-buffer path.
  iatf_dbuf* ca = iatf_dcreate(m, k, batch);
  iatf_dbuf* cb = iatf_dcreate(k, n, batch);
  iatf_dbuf* cc = iatf_dcreate(m, n, batch);
  ASSERT_NE(ca, nullptr);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dimport(ca, l, a.mat(l), m), 0);
    ASSERT_EQ(iatf_dimport(cb, l, b.mat(l), k), 0);
    ASSERT_EQ(iatf_dimport(cc, l, c.mat(l), m), 0);
  }
  ASSERT_EQ(iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.5, ca, cb,
                               -0.5, cc),
            IATF_STATUS_OK);

  // Packed-handle path over the same inputs.
  iatf_dpacked* pa = iatf_dpack(a.data.data(), m, k, a.ld(),
                                a.matrix_stride(), batch);
  iatf_dpacked* pb = iatf_dpack(b.data.data(), k, n, b.ld(),
                                b.matrix_stride(), batch);
  iatf_dpacked* pc = iatf_dpack(c.data.data(), m, n, c.ld(),
                                c.matrix_stride(), batch);
  ASSERT_NE(pc, nullptr);
  ASSERT_EQ(iatf_dgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.5, pa, pb,
                              -0.5, pc),
            IATF_STATUS_OK);
  EXPECT_GE(iatf_dpacked_epoch(pc), 1u); // output write bumps the epoch
  EXPECT_EQ(iatf_dpacked_epoch(pa), 0u); // inputs untouched

  test::HostBatch<double> raw(m, n, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dexport(cc, l, raw.mat(l), m), 0);
  }
  test::HostBatch<double> packed(m, n, batch);
  ASSERT_EQ(iatf_dunpack(pc, packed.data.data(), packed.ld(),
                         packed.matrix_stride()),
            IATF_STATUS_OK);
  for (index_t lane = 0; lane < batch; ++lane) {
    EXPECT_TRUE(test::lanes_equal(raw, packed, lane)) << "lane " << lane;
  }

  iatf_dfree_packed(pa);
  iatf_dfree_packed(pb);
  iatf_dfree_packed(pc);
  iatf_ddestroy(ca);
  iatf_ddestroy(cb);
  iatf_ddestroy(cc);
}

TEST(CApiFactor, PotrfBatchMatchesReference) {
  Rng rng(0xca03);
  const index_t m = 9, batch = 6;
  auto host = test::random_spd_batch<double>(m, batch, rng);
  auto expected = host;
  test::ref_potrf_batch(expected);

  iatf_dbuf* a = iatf_dcreate(m, m, batch);
  ASSERT_NE(a, nullptr);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dimport(a, l, host.mat(l), m), 0);
  }
  ASSERT_EQ(iatf_dpotrf_batch(a), IATF_STATUS_OK);
  test::HostBatch<double> actual(m, m, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dexport(a, l, actual.mat(l), m), 0);
  }
  test::expect_batch_near(expected, actual,
                          test::ulp_tolerance<double>(m, 128.0),
                          "capi dpotrf_batch");
  iatf_ddestroy(a);
}

TEST(CApiFactor, GetrfnpAndTrtriPackedMatchReference) {
  Rng rng(0xca04);
  const index_t m = 8, batch = 5;

  auto dd = test::random_diag_dominant_batch<float>(m, batch, rng);
  auto exp_lu = dd;
  test::ref_getrf_np_batch(exp_lu);
  iatf_spacked* pl = iatf_spack(dd.data.data(), m, m, dd.ld(),
                                dd.matrix_stride(), batch);
  ASSERT_NE(pl, nullptr);
  ASSERT_EQ(iatf_sgetrfnp_packed(pl), IATF_STATUS_OK);
  EXPECT_GE(iatf_spacked_epoch(pl), 1u);
  test::HostBatch<float> lu(m, m, batch);
  ASSERT_EQ(iatf_sunpack(pl, lu.data.data(), lu.ld(), lu.matrix_stride()),
            IATF_STATUS_OK);
  test::expect_batch_near(exp_lu, lu, test::ulp_tolerance<float>(m, 128.0f),
                          "capi sgetrfnp_packed");
  iatf_sfree_packed(pl);

  auto tri = test::random_triangular_batch<float>(m, batch, rng);
  auto exp_inv = tri;
  test::ref_trtri_batch(Uplo::Lower, Diag::NonUnit, exp_inv);
  iatf_spacked* pt = iatf_spack(tri.data.data(), m, m, tri.ld(),
                                tri.matrix_stride(), batch);
  ASSERT_NE(pt, nullptr);
  ASSERT_EQ(iatf_strtri_packed(IATF_LOWER, IATF_NONUNIT, pt),
            IATF_STATUS_OK);
  test::HostBatch<float> inv(m, m, batch);
  ASSERT_EQ(iatf_sunpack(pt, inv.data.data(), inv.ld(),
                         inv.matrix_stride()),
            IATF_STATUS_OK);
  test::expect_batch_near(exp_inv, inv,
                          test::ulp_tolerance<float>(m, 128.0f),
                          "capi strtri_packed");
  iatf_sfree_packed(pt);
}

TEST(CApiFactor, StatsExposePackedCounters) {
  Rng rng(0xca05);
  const index_t m = 4, batch = 4;
  auto host = test::random_batch<double>(m, m, batch, rng);

  iatf_engine_stats before;
  ASSERT_EQ(iatf_get_engine_stats(&before), 0);

  iatf_dpacked* pa = iatf_dpack(host.data.data(), m, m, host.ld(),
                                host.matrix_stride(), batch);
  iatf_dpacked* pb = iatf_dpack(host.data.data(), m, m, host.ld(),
                                host.matrix_stride(), batch);
  iatf_dpacked* pc = iatf_dpack(host.data.data(), m, m, host.ld(),
                                host.matrix_stride(), batch);
  ASSERT_NE(pc, nullptr);
  ASSERT_EQ(iatf_dgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.0, pa, pb, 0.0,
                              pc),
            IATF_STATUS_OK);

  iatf_engine_stats after;
  ASSERT_EQ(iatf_get_engine_stats(&after), 0);
  EXPECT_EQ(after.packed_repacks - before.packed_repacks, 3);
  EXPECT_EQ(after.packed_reuse_hits - before.packed_reuse_hits, 3);

  iatf_dfree_packed(pa);
  iatf_dfree_packed(pb);
  iatf_dfree_packed(pc);
}

TEST(CApiFactor, HazardStatusContract) {
  PolicyGuard guard;
  Rng rng(0xca06);
  const index_t m = 6, batch = 4, bad = 1;
  auto host = test::random_spd_batch<double>(m, batch, rng);
  for (index_t j = 0; j < m; ++j) {
    host.mat(bad)[j * m + j] = -host.mat(bad)[j * m + j];
  }

  auto load = [&] {
    iatf_dbuf* a = iatf_dcreate(m, m, batch);
    for (index_t l = 0; l < batch; ++l) {
      iatf_dimport(a, l, host.mat(l), m);
    }
    return a;
  };

  // FAST: no scanning, the call reports OK and the caller owns the risk.
  iatf_set_exec_policy(IATF_EXEC_FAST);
  iatf_dbuf* fast = load();
  EXPECT_EQ(iatf_dpotrf_batch(fast), IATF_STATUS_OK);
  iatf_ddestroy(fast);

  // CHECK: the non-SPD lane surfaces as a numerical hazard, with the
  // failing descriptor recorded in the error detail.
  iatf_set_exec_policy(IATF_EXEC_CHECK);
  iatf_dbuf* check = load();
  EXPECT_EQ(iatf_dpotrf_batch(check), IATF_STATUS_NUMERICAL_HAZARD);
  iatf_error_detail detail;
  ASSERT_EQ(iatf_last_error_detail(&detail), 1);
  EXPECT_EQ(detail.op, 'p');
  EXPECT_EQ(detail.dtype, 'd');
  EXPECT_EQ(detail.m, m);
  EXPECT_EQ(detail.batch, batch);
  iatf_ddestroy(check);

  // FALLBACK: repaired (restored) lanes, the call reports OK.
  iatf_set_exec_policy(IATF_EXEC_FALLBACK);
  iatf_dbuf* fb = load();
  EXPECT_EQ(iatf_dpotrf_batch(fb), IATF_STATUS_OK);
  test::HostBatch<double> out(m, m, batch);
  for (index_t l = 0; l < batch; ++l) {
    ASSERT_EQ(iatf_dexport(fb, l, out.mat(l), m), 0);
  }
  // The reference refuses the indefinite lane too: original input back.
  EXPECT_TRUE(test::lanes_equal(host, out, bad));
  iatf_ddestroy(fb);
}


// Typed access to one C buffer family, so one alias check serves the
// float and double entry points.
template <class T, class Buf> struct CBufOps {
  Buf* (*create)(int64_t, int64_t, int64_t);
  int (*import)(Buf*, int64_t, const T*, int64_t);
  int (*export_)(const Buf*, int64_t, T*, int64_t);
  void (*destroy)(Buf*);
};

// Everything a caller can observe from one C factorisation call.
template <class T> struct CallOutcome {
  int rc = 0;
  int has_detail = 0;
  iatf_error_detail detail{};
  std::string message;
  std::vector<T> exported;
};

template <class T, class Buf>
CallOutcome<T> run_factor(const CBufOps<T, Buf>& ops, int (*fn)(Buf*),
                          const test::HostBatch<T>& host) {
  const index_t m = host.rows;
  Buf* a = ops.create(m, m, host.batch);
  EXPECT_NE(a, nullptr);
  for (index_t l = 0; l < host.batch; ++l) {
    EXPECT_EQ(ops.import(a, l, host.mat(l), m), IATF_STATUS_OK);
  }
  iatf_clear_error();
  CallOutcome<T> out;
  out.rc = fn(a);
  out.has_detail = iatf_last_error_detail(&out.detail);
  out.message = iatf_last_error();
  out.exported.resize(host.data.size());
  for (index_t l = 0; l < host.batch; ++l) {
    EXPECT_EQ(ops.export_(a, l, out.exported.data() + l * m * m, m),
              IATF_STATUS_OK);
  }
  ops.destroy(a);
  return out;
}

void expect_same_detail(const iatf_error_detail& x,
                        const iatf_error_detail& y) {
  EXPECT_EQ(x.status, y.status);
  EXPECT_EQ(x.events, y.events);
  EXPECT_EQ(x.op, y.op);
  EXPECT_EQ(x.dtype, y.dtype);
  EXPECT_EQ(x.m, y.m);
  EXPECT_EQ(x.n, y.n);
  EXPECT_EQ(x.k, y.k);
  EXPECT_EQ(x.batch, y.batch);
  EXPECT_EQ(x.op_a, y.op_a);
  EXPECT_EQ(x.op_b, y.op_b);
  EXPECT_EQ(x.side, y.side);
  EXPECT_EQ(x.uplo, y.uplo);
  EXPECT_EQ(x.diag, y.diag);
}

// Under every exec policy the alias and the _batch call must agree on the
// return code, the error detail and message, and every exported bit (NaN
// payloads included, hence memcmp).
template <class T, class Buf>
void expect_alias(const CBufOps<T, Buf>& ops, int (*alias)(Buf*),
                  int (*batch)(Buf*), const test::HostBatch<T>& host) {
  for (const iatf_exec_policy policy :
       {IATF_EXEC_FAST, IATF_EXEC_CHECK, IATF_EXEC_FALLBACK}) {
    SCOPED_TRACE(testing::Message() << "policy " << policy);
    iatf_set_exec_policy(policy);
    const CallOutcome<T> x = run_factor(ops, alias, host);
    const CallOutcome<T> y = run_factor(ops, batch, host);
    EXPECT_EQ(x.rc, y.rc);
    EXPECT_EQ(x.has_detail, y.has_detail);
    if (x.has_detail != 0 && y.has_detail != 0) {
      expect_same_detail(x.detail, y.detail);
    }
    EXPECT_EQ(x.message, y.message);
    ASSERT_EQ(x.exported.size(), y.exported.size());
    EXPECT_EQ(std::memcmp(x.exported.data(), y.exported.data(),
                          x.exported.size() * sizeof(T)),
              0);
    if (policy == IATF_EXEC_CHECK) {
      EXPECT_EQ(y.rc, IATF_STATUS_NUMERICAL_HAZARD);
    }
  }
}

TEST(CApiFactor, CompactFactorisationsAliasBatch) {
  PolicyGuard guard;
  Rng rng(0xca07);
  const index_t m = 5;

  // Ragged double batch with one non-SPD lane.
  const index_t dbatch = 2 * simd::pack_width_v<double> + 1;
  auto spd = test::random_spd_batch<double>(m, dbatch, rng);
  for (index_t j = 0; j < m; ++j) {
    spd.mat(1)[j * m + j] = -spd.mat(1)[j * m + j];
  }
  const CBufOps<double, iatf_dbuf> dops{iatf_dcreate, iatf_dimport,
                                        iatf_dexport, iatf_ddestroy};
  expect_alias(dops, iatf_dpotrf_compact, iatf_dpotrf_batch, spd);

  // Ragged float batch with one zero-pivot lane.
  const index_t sbatch = 2 * simd::pack_width_v<float> + 3;
  auto dd = test::random_diag_dominant_batch<float>(m, sbatch, rng);
  dd.mat(sbatch - 1)[0] = 0.0f;
  const CBufOps<float, iatf_sbuf> sops{iatf_screate, iatf_simport,
                                       iatf_sexport, iatf_sdestroy};
  expect_alias(sops, iatf_sgetrfnp_compact, iatf_sgetrfnp_batch, dd);
}

// One dtype's GEMM entry points over both C handle kinds. R is the
// C-side scalar (the real type; complex data is interleaved pairs).
template <class R, class Buf, class Packed> struct GemmShims {
  Buf* (*create)(int64_t, int64_t, int64_t);
  void (*destroy)(Buf*);
  Packed* (*pack)(const R*, int64_t, int64_t, int64_t, int64_t, int64_t);
  void (*free_packed)(Packed*);
  int (*compact)(const Buf*, const Buf*, Buf*);
  int (*packed)(const Packed*, const Packed*, Packed*);
};

// A failing GEMM (A 4x3, B 5x4, C 4x4: A's k = 3 disagrees with B's 5)
// is attributed identically over buffers and packed handles: the same
// class key, k included.
template <class R, class Buf, class Packed>
void expect_packed_gemm_detail_matches(
    const GemmShims<R, Buf, Packed>& shims, char dtype) {
  SCOPED_TRACE(testing::Message() << "dtype " << dtype);
  const int64_t batch = 8;
  const std::vector<R> host(2 * 5 * 4 * batch, R(0));
  const auto pack = [&](int64_t rows, int64_t cols) {
    return shims.pack(host.data(), rows, cols, rows, rows * cols, batch);
  };
  Buf* a = shims.create(4, 3, batch);
  Buf* b = shims.create(5, 4, batch);
  Buf* c = shims.create(4, 4, batch);
  Packed* pa = pack(4, 3);
  Packed* pb = pack(5, 4);
  Packed* pc = pack(4, 4);
  ASSERT_TRUE(a && b && c && pa && pb && pc) << iatf_last_error();

  iatf_clear_error();
  EXPECT_EQ(shims.compact(a, b, c), IATF_STATUS_INVALID_ARG);
  iatf_error_detail compact;
  ASSERT_EQ(iatf_last_error_detail(&compact), 1);
  iatf_clear_error();
  EXPECT_EQ(shims.packed(pa, pb, pc), IATF_STATUS_INVALID_ARG);
  iatf_error_detail packed;
  ASSERT_EQ(iatf_last_error_detail(&packed), 1);

  EXPECT_EQ(compact.op, 'g');
  EXPECT_EQ(compact.dtype, dtype);
  EXPECT_EQ(compact.m, 4);
  EXPECT_EQ(compact.n, 4);
  EXPECT_EQ(compact.k, 3);
  EXPECT_EQ(compact.batch, batch);
  expect_same_detail(compact, packed);

  shims.destroy(a);
  shims.destroy(b);
  shims.destroy(c);
  shims.free_packed(pa);
  shims.free_packed(pb);
  shims.free_packed(pc);
  iatf_clear_error();
}

TEST(CApiFactor, PackedGemmDetailMatchesCompact) {
  expect_packed_gemm_detail_matches(
      GemmShims<float, iatf_sbuf, iatf_spacked>{
          iatf_screate, iatf_sdestroy, iatf_spack, iatf_sfree_packed,
          [](const iatf_sbuf* a, const iatf_sbuf* b, iatf_sbuf* c) {
            return iatf_sgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, a,
                                      b, 0.0f, c);
          },
          [](const iatf_spacked* a, const iatf_spacked* b, iatf_spacked* c) {
            return iatf_sgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.0f, a, b,
                                     0.0f, c);
          }},
      's');
  expect_packed_gemm_detail_matches(
      GemmShims<double, iatf_dbuf, iatf_dpacked>{
          iatf_dcreate, iatf_ddestroy, iatf_dpack, iatf_dfree_packed,
          [](const iatf_dbuf* a, const iatf_dbuf* b, iatf_dbuf* c) {
            return iatf_dgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b,
                                      0.0, c);
          },
          [](const iatf_dpacked* a, const iatf_dpacked* b, iatf_dpacked* c) {
            return iatf_dgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.0, a, b,
                                     0.0, c);
          }},
      'd');
  expect_packed_gemm_detail_matches(
      GemmShims<float, iatf_cbuf, iatf_cpacked>{
          iatf_ccreate, iatf_cdestroy, iatf_cpack, iatf_cfree_packed,
          [](const iatf_cbuf* a, const iatf_cbuf* b, iatf_cbuf* c) {
            return iatf_cgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0f, 0.0f,
                                      a, b, 0.0f, 0.0f, c);
          },
          [](const iatf_cpacked* a, const iatf_cpacked* b, iatf_cpacked* c) {
            return iatf_cgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.0f, 0.0f,
                                     a, b, 0.0f, 0.0f, c);
          }},
      'c');
  expect_packed_gemm_detail_matches(
      GemmShims<double, iatf_zbuf, iatf_zpacked>{
          iatf_zcreate, iatf_zdestroy, iatf_zpack, iatf_zfree_packed,
          [](const iatf_zbuf* a, const iatf_zbuf* b, iatf_zbuf* c) {
            return iatf_zgemm_compact(IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, a,
                                      b, 0.0, 0.0, c);
          },
          [](const iatf_zpacked* a, const iatf_zpacked* b, iatf_zpacked* c) {
            return iatf_zgemm_packed(IATF_NOTRANS, IATF_NOTRANS, 1.0, 0.0, a,
                                     b, 0.0, 0.0, c);
          }},
      'z');
}

} // namespace
} // namespace iatf
