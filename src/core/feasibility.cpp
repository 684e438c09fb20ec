#include "core/feasibility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/cholesky.hpp"
#include "obs/obs.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::Vector;

Vector FeasibilityModel::values(const DesignVec& d) const {
  return c0 + jacobian * (d - d_f).raw();  // space-ok: linalg interop J*(d-d_f)
}

bool FeasibilityModel::feasible(const DesignVec& d, double tol) const {
  const Vector v = values(d);
  for (double c : v)
    if (c < -tol) return false;
  return true;
}

std::pair<double, double> FeasibilityModel::coordinate_interval(
    const Vector& current, std::size_t k, double alpha_lo,
    double alpha_hi) const {
  double lo = alpha_lo;
  double hi = alpha_hi;
  for (std::size_t i = 0; i < num_constraints(); ++i) {
    const double slope = jacobian(i, k);
    const double value = current[i];
    if (std::abs(slope) < 1e-30) {
      // The constraint cannot be influenced by this coordinate; if it is
      // already (linearly) violated no alpha can help, but we do not let
      // that block moves in other constraints' favour either -- the outer
      // loop's line search on the true constraints has the final word.
      continue;
    }
    const double boundary = -value / slope;
    if (slope > 0.0)
      lo = std::max(lo, boundary);   // need value + slope*alpha >= 0
    else
      hi = std::min(hi, boundary);
  }
  return {lo, hi};
}

FeasibilityModel linearize_feasibility(Evaluator& evaluator,
                                       const DesignVec& d_f) {
  const obs::Span span(obs::registry().phases.feasibility);
  FeasibilityModel model;
  model.d_f = d_f;
  model.c0 = evaluator.constraints(d_f);
  model.jacobian = evaluator.constraint_jacobian(d_f);
  return model;
}

namespace {
/// Sum of squared constraint violations below `target`.
double violation(const Vector& c, double target) {
  double acc = 0.0;
  for (double ci : c) {
    const double v = std::max(0.0, target - ci);
    acc += v * v;
  }
  return acc;
}

/// Minimum-norm step solving A * step = b (ridge-regularized normal
/// equations on the smaller Gram matrix).
Vector min_norm_step(const Matrixd& a, const Vector& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double ridge = 1e-10 * std::max(1.0, a.max_abs() * a.max_abs());
  if (m <= n) {
    // step = A^T (A A^T + ridge I)^-1 b
    Matrixd gram(m, m);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += a(i, k) * a(j, k);
        gram(i, j) = acc;
      }
    for (std::size_t i = 0; i < m; ++i) gram(i, i) += ridge;
    const Vector y = linalg::Cholesky(gram).solve(b);
    return linalg::mul_transposed(a, y);
  }
  // step = (A^T A + ridge I)^-1 A^T b
  Matrixd gram(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) acc += a(k, i) * a(k, j);
      gram(i, j) = acc;
    }
  for (std::size_t i = 0; i < n; ++i) gram(i, i) += ridge;
  return linalg::Cholesky(gram).solve(linalg::mul_transposed(a, b));
}
}  // namespace

FeasibleStartResult find_feasible_start(Evaluator& evaluator,
                                        const DesignVec& d0,
                                        const FeasibleStartOptions& options) {
  const obs::Span span(obs::registry().phases.feasibility);
  const auto& space = evaluator.problem().design;
  FeasibleStartResult result;
  result.d = space.clamp(d0);

  Vector c = evaluator.constraints(result.d);
  double current_violation = violation(c, options.target_margin);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter;
    result.worst_constraint = *std::min_element(c.begin(), c.end());
    if (current_violation <= options.tolerance) {
      result.feasible = true;
      return result;
    }

    // Gauss-Newton on the violated constraints: want c_i + J_i step =
    // target for every violated i.
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < c.size(); ++i)
      if (c[i] < options.target_margin) active.push_back(i);

    const Matrixd jac = evaluator.constraint_jacobian(result.d);
    Matrixd a(active.size(), space.dimension());
    Vector b(active.size());
    for (std::size_t r = 0; r < active.size(); ++r) {
      for (std::size_t k = 0; k < space.dimension(); ++k)
        a(r, k) = jac(active[r], k);
      b[r] = options.target_margin - c[active[r]];
    }

    DesignVec step;
    try {
      step = DesignVec(min_norm_step(a, b));
    } catch (const std::exception&) {
      break;  // degenerate Jacobian; keep the best point found
    }

    // Backtracking on the true violation.
    bool improved = false;
    for (double scale : {1.0, 0.5, 0.25, 0.1}) {
      const DesignVec candidate = space.clamp(result.d + step * scale);
      const Vector c_candidate = evaluator.constraints(candidate);
      const double v = violation(c_candidate, options.target_margin);
      if (v < current_violation * (1.0 - 1e-6)) {
        result.d = candidate;
        c = c_candidate;
        current_violation = v;
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }

  result.worst_constraint = *std::min_element(c.begin(), c.end());
  result.feasible = current_violation <= options.tolerance;
  return result;
}

}  // namespace mayo::core
