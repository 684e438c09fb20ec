// mayo/linalg -- LU decomposition with partial pivoting.
//
// Used by the circuit simulator for the (real) DC Newton systems and the
// (complex) AC small-signal systems.  The factorization is stored in-place;
// `solve` reuses it for multiple right-hand sides, which the AC sweep and
// finite-difference code paths exploit.
//
// Hot loops (Newton iterations, AC frequency probes) factor thousands of
// same-sized systems, so the class doubles as a reusable workspace: fill
// `workspace(n)` (or assemble into it) and call `refactor()` — no
// allocation after the first system of a given size, and the pivoting and
// elimination sequence is identical to the factorizing constructor, so a
// ported caller cannot change a single result bit.
//
// MNA matrices are mostly structural zeros (branch rows hold two or three
// entries), so the kernel skips work whose result is known: rows with an
// exact-zero column-k entry are not eliminated, each rank-1 row update
// covers only the pivot row's nonzero span, and the substitutions skip
// exact-zero L and U entries.  For finite input every nonzero entry is
// computed by the same operations in the same order as the dense loop; the
// pivot choice, determinant() and SingularMatrixError index are unchanged,
// and at most the sign of an exact zero differs.  (Inf/NaN input still
// yields non-finite output, but `0 * inf` terms are no longer formed, so it
// may reach fewer entries.)
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::linalg {

/// Thrown when a factorization encounters a (numerically) singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t pivot_index)
      : std::runtime_error("singular matrix: zero pivot at index " +
                           std::to_string(pivot_index)),
        pivot_index_(pivot_index) {}
  /// Enriched form: same pivot index, caller-composed message (the solver
  /// boundary uses this to name the offending netlist node or branch).
  SingularMatrixError(std::size_t pivot_index, const std::string& message)
      : std::runtime_error(message), pivot_index_(pivot_index) {}
  std::size_t pivot_index() const { return pivot_index_; }

 private:
  std::size_t pivot_index_;
};

/// LU factorization with partial (row) pivoting of a square matrix.
template <typename T>
class Lu {
 public:
  /// Empty workspace; fill `workspace(n)` and call `refactor()`.
  Lu() = default;

  /// Factorizes `a`; throws SingularMatrixError if a pivot is exactly zero.
  explicit Lu(Matrix<T> a) : lu_(std::move(a)) { factor(); }

  /// Reshapes the internal matrix to n x n and returns it for the caller
  /// to fill (stamp or assemble), then factor with `refactor()`.  The
  /// matrix is zeroed unless `zero` is false (for callers that overwrite
  /// every entry).  No allocation when the previous system had the same
  /// size.
  Matrix<T>& workspace(std::size_t n, bool zero = true) {
    if (lu_.rows() != n || lu_.cols() != n)
      lu_ = Matrix<T>(n, n);
    else if (zero)
      lu_.set_zero();
    return lu_;
  }

  /// Factors the current workspace contents in place.  Same pivoting and
  /// elimination sequence (and SingularMatrixError behavior) as the
  /// factorizing constructor; only the permutation buffer is reused.
  void refactor() { factor(); }

  std::size_t size() const { return lu_.rows(); }

  /// Packed factors: unit-diagonal L strictly below the diagonal, U on and
  /// above it, both for the row-permuted matrix.
  const Matrix<T>& factors() const { return lu_; }
  /// Row permutation: row i of the factored matrix is row permutation()[i]
  /// of the input.
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Solves A x = b for one right-hand side.
  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = size();
    if (b.size() != n) throw std::invalid_argument("Lu::solve: rhs size mismatch");
    std::vector<T> x(n);
    solve_into(b.data(), x.data());
    return x;
  }

  /// Allocation-free solve: permutation + forward/back substitution
  /// writing into `x`.  Both buffers must hold size() entries and must
  /// not alias (the substitution reads permuted entries of `b` after the
  /// first elements of `x` are written).
  void solve_into(const T* b, T* x) const {
    const std::size_t n = size();
    // Apply permutation and forward-substitute L (unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      const T* row_i = lu_.row(i);
      for (std::size_t j = 0; j < i; ++j)
        if (row_i[j] != T{}) acc -= row_i[j] * x[j];
      x[i] = acc;
    }
    // Back-substitute U.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      const T* row_ii = lu_.row(ii);
      for (std::size_t j = ii + 1; j < n; ++j)
        if (row_ii[j] != T{}) acc -= row_ii[j] * x[j];
      x[ii] = acc / row_ii[ii];
    }
  }

  /// Determinant of the factorized matrix.
  T determinant() const {
    T det = static_cast<T>(sign_);
    for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  void factor() {
    if (lu_.rows() != lu_.cols())
      throw std::invalid_argument("Lu: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);  // hot-ok: no allocation when n is unchanged
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    sign_ = 1;

    for (std::size_t k = 0; k < n; ++k) {
      // Find pivot row.  |0| never beats `best`, so zeros need no abs().
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        if (lu_(r, k) == T{}) continue;
        const double mag = std::abs(lu_(r, k));
        if (mag > best) {
          best = mag;
          piv = r;
        }
      }
      if (best == 0.0) throw SingularMatrixError(k);
      if (piv != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
        std::swap(perm_[k], perm_[piv]);
        sign_ = -sign_;
      }
      const T pivot = lu_(k, k);
      // Distinct rows of the same matrix never overlap; telling the
      // compiler lets it vectorize the rank-1 update without a runtime
      // overlap check (the update itself is elementwise, so the result
      // bits do not depend on the vector width).
      const T* __restrict__ row_k = lu_.row(k);
      // Nonzero span [first, end) of the pivot row right of the diagonal:
      // outside it the update would subtract an exact zero.
      std::size_t end = n;
      while (end > k + 1 && row_k[end - 1] == T{}) --end;
      std::size_t first = k + 1;
      while (first < end && row_k[first] == T{}) ++first;
      for (std::size_t r = k + 1; r < n; ++r) {
        T* __restrict__ row_r = lu_.row(r);
        if (row_r[k] == T{}) continue;
        const T factor = row_r[k] / pivot;
        row_r[k] = factor;
        if (factor == T{}) continue;
        for (std::size_t c = first; c < end; ++c) row_r[c] -= factor * row_k[c];
      }
    }
  }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  int sign_ = 1;
};

using Lud = Lu<double>;
using Luc = Lu<std::complex<double>>;

/// Convenience: solve A x = b (real) with a fresh factorization.
Vector solve(const Matrixd& a, const Vector& b);
/// Convenience: solve A x = b (complex) with a fresh factorization.
VectorC solve(const Matrixc& a, const VectorC& b);
/// Inverse via LU (small matrices only; prefer solve()).
Matrixd inverse(const Matrixd& a);

}  // namespace mayo::linalg
