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
#include <cfloat>
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

/// Two lanes of doubles / 64-bit unsigned integers in one 16-byte vector
/// (the GCC/Clang vector extension; native SSE2 on baseline x86-64). Lane
/// arithmetic is element-wise IEEE arithmetic, so a lane computes exactly
/// what the same scalar expression computes.
using Double2 = double __attribute__((vector_size(16)));
using Uint2 = std::uint64_t __attribute__((vector_size(16)));

namespace karp_detail {

inline constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;

/// The range reduction on the bits of a positive normal x (scalar or lane):
/// x = m * 2^e with m in [1,4) and e even. The unbiased exponent is odd
/// exactly when the biased one is even; that parity goes into m's exponent
/// field, putting m in [2,4), instead of into a branch. `scale` receives the bits of
/// 2^(-e/2) = 2^((3069 + odd - biased) / 2 - 1023), an exact power of two.
template <class U>
inline void fold(U bits, U& m, U& scale) {
  const U biased = bits >> 52;
  const U odd = ~biased & 1;
  m = (bits & kMantissaMask) | ((1023 + odd) << 52);
  scale = ((3069 + odd - biased) >> 1) << 52;
}

/// x = m * scale^-2 with m in [1,4) and scale a power of two.
struct Reduced {
  double m;
  double scale;  ///< 2^(-e/2)
};

inline Reduced reduce(double x) {
  BLADED_REQUIRE_MSG(x > 0.0 && std::isfinite(x),
                     "karp_rsqrt requires a positive finite argument");
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if ((bits >> 52) == 0) [[unlikely]] {  // subnormal: normalize by 2^54
    const Reduced r = reduce(x * 0x1p54);
    return {r.m, r.scale * 0x1p27};
  }
  std::uint64_t m, scale;
  fold(bits, m, scale);
  return {std::bit_cast<double>(m), std::bit_cast<double>(scale)};
}

inline constexpr double kSegmentWidth = 3.0 / kKarpTableSegments;

/// Table segment of a reduced argument m in [1,4), given q = (m - 1) / width.
inline const KarpSegment& segment(double q) {
  int idx = static_cast<int>(q);
  if (idx >= kKarpTableSegments) idx = kKarpTableSegments - 1;
  return kKarpTable[static_cast<std::size_t>(idx)];
}

inline double estimate_on_reduced(double m) {
  const KarpSegment& s = segment((m - 1.0) / kSegmentWidth);
  const double t = m - s.mid;
  return s.c0 + t * (s.c1 + t * s.c2);
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
  return y * r.scale;
}

/// The raw table+polynomial estimate on the reduced range, exposed for
/// accuracy tests and the ablation bench.
[[nodiscard]] inline double karp_rsqrt_estimate(double x) {
  const karp_detail::Reduced r = karp_detail::reduce(x);
  return karp_detail::estimate_on_reduced(r.m) * r.scale;
}

/// Reciprocal cube sqrt, 1/r^3 from r^2: karp_rsqrt(r2) cubed. This is the
/// quantity the gravity kernel actually needs (paper Eq. 1: Gm (xj-xk)/r^3).
[[nodiscard]] inline double karp_rcbrt3(double r2, int nr_iterations = 2) {
  const double y = karp_rsqrt(r2, nr_iterations);
  return y * y * y;
}

/// karp_rsqrt(x[l], 2) in each lane l whose bit is set in `active`, bit for
/// bit: the same reduction, table segment, polynomial and Newton steps, two
/// lanes at a time. A pair whose lanes are not both positive normal numbers
/// takes the scalar call per active lane, so a subnormal is normalized and
/// 0, a negative, inf or NaN in an active lane throws the same
/// PreconditionError. Inactive lanes return an unspecified value and never
/// throw.
[[nodiscard]] inline Double2 karp_rsqrt2(Double2 x, unsigned active) {
  const auto normal = (x >= DBL_MIN) & (x <= DBL_MAX);
  if (!(normal[0] & normal[1])) [[unlikely]] {
    Double2 y = {0.0, 0.0};
    for (int l = 0; l < 2; ++l) {
      if ((active >> l) & 1u) y[l] = karp_rsqrt(x[l], 2);
    }
    return y;
  }
  Uint2 mbits, sbits;
  karp_detail::fold(std::bit_cast<Uint2>(x), mbits, sbits);
  const auto m = std::bit_cast<Double2>(mbits);
  const Double2 q = (m - 1.0) / karp_detail::kSegmentWidth;
  const KarpSegment& s0 = karp_detail::segment(q[0]);
  const KarpSegment& s1 = karp_detail::segment(q[1]);
  const Double2 t = m - Double2{s0.mid, s1.mid};
  Double2 y = Double2{s0.c0, s1.c0} +
              t * (Double2{s0.c1, s1.c1} + t * Double2{s0.c2, s1.c2});
  y = y * (1.5 - 0.5 * m * y * y);
  y = y * (1.5 - 0.5 * m * y * y);
  return y * std::bit_cast<Double2>(sbits);
}

}  // namespace bladed::micro
