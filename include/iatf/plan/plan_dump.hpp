// Human-readable execution-plan dumps: the run-time stage's "command
// queue" (paper section 5.3) rendered as text, for debugging, tests and
// the documentation. Shows the tile grid with its selected kernels, the
// pack decisions, the batch-counter slice and (GEMM) whether the C SAVE
// streams.
#pragma once

#include <string>

#include "iatf/plan/gemm_plan.hpp"
#include "iatf/plan/trsm_plan.hpp"

namespace iatf::plan {

template <class T, int Bytes>
std::string dump(const GemmPlan<T, Bytes>& plan);

template <class T, int Bytes>
std::string dump(const TrsmPlan<T, Bytes>& plan);

} // namespace iatf::plan
