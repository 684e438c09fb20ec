// mayo/linalg -- Cholesky factorization of symmetric positive definite
// matrices.
//
// Used by the statistics layer to obtain the factor G(d) of the covariance
// matrix C(d) = G G^T (paper eq. 11), which maps standard-normal samples
// into correlated statistical parameters.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::linalg {

/// Lower-triangular Cholesky factorization A = L L^T of an SPD matrix.
class Cholesky {
 public:
  /// Factorizes `a`; throws std::domain_error if `a` is not positive
  /// definite (non-positive pivot encountered).
  explicit Cholesky(const Matrixd& a);

  std::size_t size() const { return l_.rows(); }

  /// The lower-triangular factor L.
  const Matrixd& factor() const { return l_; }

  /// Solves A x = b via forward/back substitution.
  Vector solve(const Vector& b) const;

  /// Solves L y = v (forward substitution only) -- maps a correlated vector
  /// back to standard-normal coordinates, the inverse of v -> L v.
  Vector apply_factor_inverse(const Vector& v) const;

 private:
  Matrixd l_;
};

/// True if `a` is symmetric within `tol` (max abs asymmetry).
bool is_symmetric(const Matrixd& a, double tol = 1e-12);

}  // namespace mayo::linalg
