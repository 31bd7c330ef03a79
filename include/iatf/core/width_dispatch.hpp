// Runtime width -> compile-time kernel-class dispatch.
//
// The engine's entry points are templated over the register width in
// bytes (the Bytes parameter threaded through kreg / Registry / plans),
// but user-facing surfaces -- the C API, the serving front end, the
// compact_* free functions -- receive buffers whose width is a runtime
// property (chosen by the active ISA when the buffer was created). This
// helper folds that runtime width back onto the instantiated kernel
// classes exactly once, at the dispatch boundary.
#pragma once

#include <type_traits>
#include <utility>

#include "iatf/common/error.hpp"
#include "iatf/common/types.hpp"

namespace iatf {

/// Invoke `f` with std::integral_constant<int, Bytes> for the kernel
/// class of register width `bytes`. Widths outside the instantiated set
/// {16, 32, 64} throw Status::Unsupported -- a diagnosable refusal, never
/// a SIGILL or a silently wrong kernel.
template <class T, class F>
decltype(auto) dispatch_bytes(index_t bytes, F&& f) {
  switch (bytes) {
  case 16:
    return std::forward<F>(f)(std::integral_constant<int, 16>{});
  case 32:
    return std::forward<F>(f)(std::integral_constant<int, 32>{});
  case 64:
    return std::forward<F>(f)(std::integral_constant<int, 64>{});
  default:
    throw Error("iatf: no kernel class for pack width " +
                    std::to_string(bytes / static_cast<index_t>(
                                                sizeof(real_t<T>))) +
                    " (register width " + std::to_string(bytes) + " bytes)",
                Status::Unsupported);
  }
}

/// dispatch_bytes for the kernel class whose register width matches
/// `pack_width` lanes of real_t<T>.
template <class T, class F>
decltype(auto) dispatch_width(index_t pack_width, F&& f) {
  return dispatch_bytes<T>(
      pack_width * static_cast<index_t>(sizeof(real_t<T>)),
      std::forward<F>(f));
}

} // namespace iatf
