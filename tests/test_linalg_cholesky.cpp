#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"

namespace mayo::linalg {
namespace {

Matrixd spd_2x2() {
  Matrixd a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 3.0;
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  const Matrixd a = spd_2x2();
  Cholesky chol(a);
  const Matrixd l = chol.factor();
  const Matrixd reconstructed = l * l.transposed();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-12);
}

TEST(Cholesky, KnownFactor) {
  Cholesky chol(spd_2x2());
  EXPECT_NEAR(chol.factor()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.factor()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.factor()(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(chol.factor()(0, 1), 0.0);
}

TEST(Cholesky, Solve) {
  const Matrixd a = spd_2x2();
  Cholesky chol(a);
  const Vector x = chol.solve(Vector{8.0, 7.0});
  const Vector b = a * x;
  EXPECT_NEAR(b[0], 8.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(Cholesky, NotPositiveDefiniteThrows) {
  Matrixd a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky c(a), std::domain_error);
}

TEST(Cholesky, NonSymmetricThrows) {
  Matrixd a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 0.5;
  a(1, 0) = 0.0; a(1, 1) = 1.0;
  EXPECT_THROW(Cholesky c(a), std::invalid_argument);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(Cholesky c(Matrixd(2, 3)), std::invalid_argument);
}

TEST(Cholesky, ApplyFactorInverseUndoesTheFactor) {
  const Matrixd a = spd_2x2();
  Cholesky chol(a);
  const Vector v{1.0, -2.0};
  const Vector back = chol.apply_factor_inverse(chol.factor() * v);
  EXPECT_NEAR(back[0], v[0], 1e-12);
  EXPECT_NEAR(back[1], v[1], 1e-12);
}

TEST(Cholesky, RandomSpdRoundTrip) {
  stats::Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + trial;
    Matrixd g(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c <= r; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) g(i, i) = rng.uniform(0.5, 2.0);
    const Matrixd a = g * g.transposed();
    Cholesky chol(a);
    const Matrixd l = chol.factor();
    const Matrixd back = l * l.transposed();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_NEAR(back(r, c), a(r, c), 1e-9);
  }
}

TEST(IsSymmetric, DetectsAsymmetry) {
  Matrixd a = Matrixd::identity(2);
  EXPECT_TRUE(is_symmetric(a));
  a(0, 1) = 1e-6;
  EXPECT_FALSE(is_symmetric(a, 1e-9));
  EXPECT_TRUE(is_symmetric(a, 1e-3));
  EXPECT_FALSE(is_symmetric(Matrixd(2, 3)));
}

}  // namespace
}  // namespace mayo::linalg
