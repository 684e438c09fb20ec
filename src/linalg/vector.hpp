// mayo/linalg -- dense real vector type.
//
// A small, dependency-free dense vector used throughout the library for
// parameter sets (design, statistical, operating), gradients, and solver
// state.  Elements are doubles; sizes are expected to stay in the range of
// a few hundred at most (circuit parameter spaces), so everything is plain
// contiguous storage with value semantics.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "core/check.hpp"

namespace mayo::linalg {

/// Dense real vector with value semantics and elementwise arithmetic.
class Vector {
 public:
  Vector() = default;
  /// Zero vector of dimension `n`.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  /// Vector of dimension `n` filled with `value`.
  Vector(std::size_t n, double value) : data_(n, value) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  /// Adopts an existing buffer.
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) {
    MAYO_ASSERT(i < data_.size(), "Vector index out of range");
    return data_[i];
  }
  double operator[](std::size_t i) const {
    MAYO_ASSERT(i < data_.size(), "Vector index out of range");
    return data_[i];
  }
  /// Bounds-checked element access (throws std::out_of_range).
  double& at(std::size_t i) { return data_.at(i); }
  double at(std::size_t i) const { return data_.at(i); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& std() const { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  void resize(std::size_t n, double value = 0.0) { data_.resize(n, value); }
  void fill(double value);

  // Elementwise compound arithmetic; dimensions must agree.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double scale);
  Vector& operator/=(double scale);

  /// Euclidean (L2) norm.
  double norm() const;
  /// Squared Euclidean norm.
  double norm2() const;
  /// Maximum absolute entry; 0 for the empty vector.
  double max_abs() const;
  /// Sum of all entries.
  double sum() const;

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector lhs, double scale);
Vector operator*(double scale, Vector rhs);
Vector operator/(Vector lhs, double scale);
Vector operator-(Vector v);

/// Inner product; dimensions must agree.
double dot(const Vector& a, const Vector& b);
/// Euclidean distance between two points.
double distance(const Vector& a, const Vector& b);
/// `a + scale * b` without constructing temporaries beyond the result.
Vector axpy(const Vector& a, double scale, const Vector& b);
/// Unit vector `e_k` of dimension `n` (1 at index `k`).
Vector unit(std::size_t n, std::size_t k);

std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace mayo::linalg
