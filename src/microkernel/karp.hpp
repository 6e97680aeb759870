#pragma once

/// Karp's reciprocal square root (A. Karp, "Speeding Up N-body Calculations
/// on Machines Lacking a Hardware Square Root", Scientific Programming 1(2)):
/// range-reduce the argument to [1,4), look up a per-segment Chebyshev-node
/// quadratic fit of 1/sqrt(m), then sharpen with Newton–Raphson iterations —
/// all adds and multiplies, no divide and no square root instruction. This is
/// the second implementation benchmarked in the paper's §3.2.
///
/// The functions are inline because the treecode force walk calls
/// karp_rsqrt once per interaction; out of line the call costs more than
/// the arithmetic. The table is built once, before main, in karp.cpp, so a
/// call pays no initialization guard (and must not come from another
/// translation unit's static initializer).

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace bladed::micro {

/// Number of table segments over the reduced range [1,4).
inline constexpr int kKarpTableSegments = 128;

/// One table segment: quadratic in t = m - mid, f(m) ~ c0 + t*(c1 + t*c2).
struct KarpSegment {
  double c0, c1, c2;
  double mid;
};

/// Quadratic interpolation of 1/sqrt at the three Chebyshev nodes of each
/// segment of [1,4) (defined in karp.cpp).
extern const std::array<KarpSegment, kKarpTableSegments> kKarpTable;

namespace karp_detail {

/// x = m * 2^e with e even and m in [1,4).
struct Reduced {
  double m;
  std::int64_t e;  ///< even
};

inline Reduced reduce(double x) {
  BLADED_REQUIRE_MSG(x > 0.0 && std::isfinite(x),
                     "karp_rsqrt requires a positive finite argument");
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  std::int64_t e = static_cast<std::int64_t>((bits >> 52) & 0x7FF) - 1023;
  const std::uint64_t mant = bits & ((std::uint64_t{1} << 52) - 1);
  if (e == -1023) {  // subnormal: normalize via multiplication by 2^54
    const Reduced r = reduce(x * 0x1p54);
    return {r.m, r.e - 54};
  }
  double m = std::bit_cast<double>(mant | (std::uint64_t{1023} << 52));  // [1,2)
  if (e & 1) {  // fold the exponent parity into the mantissa range
    m *= 2.0;
    e -= 1;
  }
  return {m, e};
}

inline double estimate_on_reduced(double m) {
  const double width = 3.0 / kKarpTableSegments;
  int idx = static_cast<int>((m - 1.0) / width);
  if (idx >= kKarpTableSegments) idx = kKarpTableSegments - 1;
  const KarpSegment& s = kKarpTable[static_cast<std::size_t>(idx)];
  const double t = m - s.mid;
  return s.c0 + t * (s.c1 + t * s.c2);
}

/// 2^(-e/2) for even e, built directly from the exponent field.
inline double half_exponent_scale(std::int64_t e) {
  const std::int64_t half = -e / 2;
  return std::bit_cast<double>(static_cast<std::uint64_t>(half + 1023) << 52);
}

}  // namespace karp_detail

/// 1/sqrt(x) for finite x > 0 (normal range), with `nr_iterations`
/// Newton–Raphson refinements after the table+polynomial estimate.
/// 0 iterations: ~1e-6 relative error; 1: ~1e-12; 2: ~1e-16 (full double).
[[nodiscard]] inline double karp_rsqrt(double x, int nr_iterations = 2) {
  BLADED_REQUIRE(nr_iterations >= 0);
  const karp_detail::Reduced r = karp_detail::reduce(x);
  double y = karp_detail::estimate_on_reduced(r.m);
  // Newton–Raphson for f(y) = y^-2 - m: y' = y*(1.5 - 0.5*m*y*y).
  for (int i = 0; i < nr_iterations; ++i) {
    y = y * (1.5 - 0.5 * r.m * y * y);
  }
  return y * karp_detail::half_exponent_scale(r.e);
}

/// The raw table+polynomial estimate on the reduced range, exposed for
/// accuracy tests and the ablation bench.
[[nodiscard]] inline double karp_rsqrt_estimate(double x) {
  const karp_detail::Reduced r = karp_detail::reduce(x);
  return karp_detail::estimate_on_reduced(r.m) *
         karp_detail::half_exponent_scale(r.e);
}

/// Reciprocal cube sqrt, 1/r^3 from r^2: karp_rsqrt(r2) cubed. This is the
/// quantity the gravity kernel actually needs (paper Eq. 1: Gm (xj-xk)/r^3).
[[nodiscard]] inline double karp_rcbrt3(double r2, int nr_iterations = 2) {
  const double y = karp_rsqrt(r2, nr_iterations);
  return y * y * y;
}

}  // namespace bladed::micro
