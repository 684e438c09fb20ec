// In-place kernels of the batched hot path: gemv must be bitwise identical
// to the scalar code it replaced (ascending-order accumulation), because
// the batch evaluation spine promises bit-identical results at every block
// size.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/sampler.hpp"

namespace mayo::linalg {
namespace {

Matrixd make_matrix(std::size_t rows, std::size_t cols) {
  Matrixd m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = 0.37 * static_cast<double>(r) -
                1.21 * static_cast<double>(c) +
                0.05 * static_cast<double>(r * c);
  return m;
}

TEST(Kernels, GemvMatchesAscendingScalarLoop) {
  const Matrixd m = make_matrix(5, 3);
  Vector x{0.5, -1.25, 2.0};
  Vector y(5);
  gemv_into(ConstMatrixView(m), x, y);
  for (std::size_t r = 0; r < 5; ++r) {
    double expect = 0.0;
    for (std::size_t c = 0; c < 3; ++c) expect += m(r, c) * x[c];
    EXPECT_EQ(y[r], expect) << "row " << r;
  }
}

TEST(Kernels, GemvBitwiseMatchesSampleSetDot) {
  const stats::SampleSet samples(64, 4, 0xFEEDu);
  const mayo::linalg::StatUnitVec g{1.5, -0.25, 0.75, 2.0};
  Vector y(samples.count());
  gemv_into(ConstMatrixView(samples.matrix()), g.raw(), y);  // space-ok: kernel test
  for (std::size_t j = 0; j < samples.count(); ++j)
    EXPECT_EQ(y[j], samples.dot(j, g)) << "sample " << j;
}

TEST(Kernels, GemvCheckedFormRejectsBadSizes) {
  const Matrixd m = make_matrix(4, 3);
  Vector x(3);
  Vector y_short(2);
  EXPECT_THROW(gemv_into(ConstMatrixView(m), x, y_short), std::exception);
  Vector x_short(2);
  Vector y(4);
  EXPECT_THROW(gemv_into(ConstMatrixView(m), x_short, y), std::exception);
}

TEST(Kernels, GemvOnStridedSubview) {
  // A middle_rows sub-view must produce the same rows as the full gemv.
  const Matrixd m = make_matrix(6, 3);
  Vector x{1.0, -2.0, 0.5};
  Vector full(6);
  gemv_into(ConstMatrixView(m), x, full);
  Vector part(2);
  gemv_into(ConstMatrixView(m).middle_rows(3, 2), x, part);
  EXPECT_EQ(part[0], full[3]);
  EXPECT_EQ(part[1], full[4]);
}

TEST(Kernels, AssembleComplexWritesGPlusJOmegaC) {
  const Matrixd g = make_matrix(3, 3);
  const Matrixd c = make_matrix(3, 3);
  const double omega = 2.5e6;
  Matrixc a(3, 3);
  // Pre-poison to prove every entry is overwritten.
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t col = 0; col < 3; ++col) a(r, col) = {1e99, -1e99};
  assemble_complex_into(g, c, omega, a);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t col = 0; col < 3; ++col) {
      EXPECT_EQ(a(r, col).real(), g(r, col));
      EXPECT_EQ(a(r, col).imag(), omega * c(r, col));
    }
}

TEST(Kernels, AssembleComplexValidatesShapes) {
  Matrixc a(3, 3);
  EXPECT_THROW(assemble_complex_into(make_matrix(2, 3), make_matrix(3, 3), 1.0, a),
               std::invalid_argument);
  EXPECT_THROW(assemble_complex_into(make_matrix(3, 3), make_matrix(2, 2), 1.0, a),
               std::invalid_argument);
  Matrixc small(2, 2);
  EXPECT_THROW(
      assemble_complex_into(make_matrix(3, 3), make_matrix(3, 3), 1.0, small),
      std::invalid_argument);
}

}  // namespace
}  // namespace mayo::linalg
