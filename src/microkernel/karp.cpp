#include "microkernel/karp.hpp"

namespace bladed::micro {

namespace {

/// Quadratic interpolation of 1/sqrt at the three Chebyshev nodes of each
/// segment — interpolation at Chebyshev nodes is within a small factor of the
/// minimax fit, which is the "Chebyshev polynomial interpolation" step of
/// Karp's scheme.
std::array<KarpSegment, kKarpTableSegments> build_table() {
  std::array<KarpSegment, kKarpTableSegments> table;
  const double width = 3.0 / kKarpTableSegments;  // range [1,4)
  for (int i = 0; i < kKarpTableSegments; ++i) {
    const double a = 1.0 + i * width;
    const double b = a + width;
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    // Chebyshev nodes for n=3 on [-1,1]: cos(pi*(2k+1)/6) = ±sqrt(3)/2, 0.
    const double n0 = -std::sqrt(3.0) / 2.0 * half;
    const double n1 = 0.0;
    const double n2 = std::sqrt(3.0) / 2.0 * half;
    const double f0 = 1.0 / std::sqrt(mid + n0);
    const double f1 = 1.0 / std::sqrt(mid + n1);
    const double f2 = 1.0 / std::sqrt(mid + n2);
    // Fit f(t) = c0 + c1 t + c2 t^2 through (n0,f0),(n1,f1),(n2,f2); n1 = 0
    // and n0 = -n2 make the solve trivial.
    KarpSegment s;
    s.mid = mid;
    s.c0 = f1;
    s.c1 = (f2 - f0) / (2.0 * n2);
    s.c2 = (f2 + f0 - 2.0 * f1) / (2.0 * n2 * n2);
    table[static_cast<std::size_t>(i)] = s;
  }
  return table;
}

}  // namespace

const std::array<KarpSegment, kKarpTableSegments> kKarpTable = build_table();

}  // namespace bladed::micro
