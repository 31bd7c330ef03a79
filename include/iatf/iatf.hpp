// Umbrella header: the whole public IATF API.
//
//   compact BLAS       iatf/core/compact_blas.hpp   (gemm, trsm, trmm,
//                                                    getrs_np)
//   factorisations     iatf/factor/factor.hpp       (packed handles, potrf,
//                                                    getrf_nopiv, trtri)
//   layout             iatf/layout/compact.hpp      (CompactBuffer, convert)
//   engine & plans     iatf/core/engine.hpp         (plan cache, tuning)
//   multicore          iatf/parallel/thread_pool.hpp
//   C interface        iatf/capi/iatf.h
#pragma once

#include "iatf/common/cache_info.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/rng.hpp"
#include "iatf/common/timer.hpp"
#include "iatf/common/types.hpp"
#include "iatf/core/compact_blas.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/factor/factor.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/parallel/thread_pool.hpp"
#include "iatf/tune/search.hpp"
#include "iatf/tune/tuning_table.hpp"
