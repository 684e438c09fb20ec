#include "linalg/cholesky.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "core/check.hpp"

namespace mayo::linalg {

Cholesky::Cholesky(const Matrixd& a) : l_(a.rows(), a.cols()) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("Cholesky: matrix must be square");
  // A non-finite entry would propagate silently: NaN fails the diag <= 0
  // test below and sqrt(NaN) flows into every downstream solve.
  MAYO_CHECK_FINITE(
      (std::span<const double>(a.data(), a.rows() * a.cols())),
      "Cholesky: input matrix");
  if (!is_symmetric(a, 1e-9 * std::max(1.0, a.max_abs())))
    throw std::invalid_argument("Cholesky: matrix must be symmetric");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (diag <= 0.0)
      throw std::domain_error("Cholesky: matrix not positive definite at row " +
                              std::to_string(j));
    l_(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc / l_(j, j);
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: rhs size mismatch");
  // L y = b
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_(i, j) * y[j];
    y[i] = acc / l_(i, i);
  }
  // L^T x = y
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::apply_factor_inverse(const Vector& v) const {
  const std::size_t n = size();
  if (v.size() != n)
    throw std::invalid_argument("Cholesky::apply_factor_inverse: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = v[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_(i, j) * y[j];
    y[i] = acc / l_(i, i);
  }
  return y;
}

bool is_symmetric(const Matrixd& a, double tol) {
  if (a.rows() != a.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = r + 1; c < a.cols(); ++c)
      if (std::abs(a(r, c) - a(c, r)) > tol) return false;
  return true;
}

}  // namespace mayo::linalg
