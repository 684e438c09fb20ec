#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace mayo::linalg {

namespace {
void check_same_size(const Vector& a, const Vector& b, const char* op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("Vector dimension mismatch in ") +
                                op + ": " + std::to_string(a.size()) +
                                " vs " + std::to_string(b.size()));
  }
}
}  // namespace

void Vector::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

Vector& Vector::operator+=(const Vector& rhs) {
  check_same_size(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  check_same_size(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs[i];
  return *this;
}

Vector& Vector::operator*=(double scale) {
  for (double& x : data_) x *= scale;
  return *this;
}

Vector& Vector::operator/=(double scale) {
  for (double& x : data_) x /= scale;
  return *this;
}

double Vector::norm() const { return std::sqrt(norm2()); }

double Vector::norm2() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

double Vector::max_abs() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

double Vector::sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector lhs, double scale) { return lhs *= scale; }
Vector operator*(double scale, Vector rhs) { return rhs *= scale; }
Vector operator/(Vector lhs, double scale) { return lhs /= scale; }

Vector operator-(Vector v) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = -v[i];
  return v;
}

double dot(const Vector& a, const Vector& b) {
  check_same_size(a, b, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double distance(const Vector& a, const Vector& b) {
  check_same_size(a, b, "distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

Vector axpy(const Vector& a, double scale, const Vector& b) {
  check_same_size(a, b, "axpy");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + scale * b[i];
  return out;
}

Vector unit(std::size_t n, std::size_t k) {
  if (k >= n) throw std::out_of_range("unit: index out of range");
  Vector e(n);
  e[k] = 1.0;
  return e;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  return os << ']';
}

}  // namespace mayo::linalg
