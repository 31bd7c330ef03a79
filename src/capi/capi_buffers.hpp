// Definitions of the C API's opaque buffer handles, its checked enum
// conversions and its one milliseconds-to-nanoseconds conversion, shared
// between the core shim (iatf_c.cpp) and the serving shim
// (iatf_server_c.cpp). Each handle wraps exactly one CompactBuffer; the
// C-side pointer identity is the handle identity.
#pragma once

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <optional>
#include <string>

#include "iatf/capi/iatf.h"
#include "iatf/common/error.hpp"
#include "iatf/common/types.hpp"
#include "iatf/factor/packed_handle.hpp"
#include "iatf/layout/compact.hpp"

struct iatf_sbuf {
  iatf::CompactBuffer<float> buf;
};
struct iatf_dbuf {
  iatf::CompactBuffer<double> buf;
};
struct iatf_cbuf {
  iatf::CompactBuffer<std::complex<float>> buf;
};
struct iatf_zbuf {
  iatf::CompactBuffer<std::complex<double>> buf;
};

// Persistent packed-layout handles (s/d/c/z): each wraps one
// PackedHandle so the C side carries the interleaved data, descriptor
// and epoch tag as one opaque unit.
struct iatf_spacked {
  iatf::factor::PackedHandle<float> h;
};
struct iatf_dpacked {
  iatf::factor::PackedHandle<double> h;
};
struct iatf_cpacked {
  iatf::factor::PackedHandle<std::complex<float>> h;
};
struct iatf_zpacked {
  iatf::factor::PackedHandle<std::complex<double>> h;
};

namespace iatf::capi {

/// The raw value of a C enum argument, read without an enum-typed load.
/// A C caller may pass any int, and loading a value outside the enum's
/// range as the enum type is undefined (UBSan's -fsanitize=enum); the
/// *_MAX_ENUM sentinels in iatf.h pin every enum to int size.
template <class E> int enum_bits(const E& e) {
  static_assert(sizeof(E) == sizeof(int), "C enums are int-sized");
  int bits;
  std::memcpy(&bits, &e, sizeof(bits));
  return bits;
}

/// A C enum argument as its C++ counterpart, or nullopt for a value
/// outside [0, last]; the range is checked before any cast.
template <class To, class E>
std::optional<To> enum_in_range(const E& e, int last) {
  const int bits = enum_bits(e);
  if (bits < 0 || bits > last) {
    return std::nullopt;
  }
  return static_cast<To>(bits);
}

/// Convert a C enum argument to its C++ counterpart, rejecting values
/// outside [0, last] with Status::InvalidArg before the cast.
template <class To, class E>
To checked_enum(const E& e, int last, const char* what) {
  if (const std::optional<To> v = enum_in_range<To>(e, last)) {
    return *v;
  }
  throw Error(std::string("iatf: invalid ") + what + " value " +
                  std::to_string(enum_bits(e)),
              Status::InvalidArg);
}

/// A C duration in milliseconds as nanoseconds. Zero, negative and NaN
/// mean "none" (0); anything above 1e12 ms -- the wire protocol's
/// deadline bound, about 31.7 years -- clamps to it, so an infinite or
/// huge value never overflows the integer cast.
inline std::chrono::nanoseconds ms_to_ns(double ms) {
  constexpr double kMaxMs = 1e12;
  if (!(ms > 0)) {
    return std::chrono::nanoseconds(0);
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(std::min(ms, kMaxMs)));
}

inline Op to_op(const iatf_op& op) {
  return checked_enum<Op>(op, IATF_CONJTRANS, "iatf_op");
}
inline Side to_side(const iatf_side& s) {
  return checked_enum<Side>(s, IATF_RIGHT, "iatf_side");
}
inline Uplo to_uplo(const iatf_uplo& u) {
  return checked_enum<Uplo>(u, IATF_UPPER, "iatf_uplo");
}
inline Diag to_diag(const iatf_diag& d) {
  return checked_enum<Diag>(d, IATF_UNIT, "iatf_diag");
}

} // namespace iatf::capi
