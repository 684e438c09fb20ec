#include "linalg/kernels.hpp"

#include <stdexcept>

namespace mayo::linalg {

void gemv_into(ConstMatrixView m, const double* x, double* y) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = m.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void gemv_into(ConstMatrixView m, const Vector& x, Vector& y) {
  if (x.size() != m.cols())
    throw std::invalid_argument("gemv_into: x size mismatch");
  if (y.size() != m.rows())
    throw std::invalid_argument("gemv_into: y size mismatch");
  gemv_into(m, x.data(), y.data());
}

void assemble_complex_into(const double* g, const double* c, double omega,
                           std::complex<double>* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    a[i] = std::complex<double>(g[i], omega * c[i]);
}

void assemble_complex_into(const Matrixd& g, const Matrixd& c, double omega,
                           Matrixc& a) {
  if (g.rows() != c.rows() || g.cols() != c.cols() || g.rows() != a.rows() ||
      g.cols() != a.cols())
    throw std::invalid_argument("assemble_complex_into: shape mismatch");
  assemble_complex_into(g.data(), c.data(), omega, a.data(),
                        g.rows() * g.cols());
}

}  // namespace mayo::linalg
