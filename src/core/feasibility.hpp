// mayo/core -- feasibility region handling (paper Sec. 5.1 and 5.5).
//
// Functional constraints c(d) >= 0 (technology sizing rules such as
// "every transistor saturated with margin") define the feasibility region
// F.  The optimizer relies on F in three places:
//   * the solution must be feasible to be a working circuit,
//   * performances are only weakly nonlinear inside F, which is what makes
//     the spec-wise *linear* models trustworthy (Fig. 4),
//   * the linearized constraints bound every coordinate-search move
//     (eq. 15 / 19), acting as a trust region.
#pragma once

#include <utility>

#include "core/evaluator.hpp"
#include "linalg/matrix.hpp"
#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"

namespace mayo::core {

/// Linearized constraints c_bar(d) = c0 + J (d - d_f) (paper eq. 15).
struct FeasibilityModel {
  linalg::DesignVec d_f;     ///< expansion point
  linalg::Vector c0;         ///< c(d_f)
  linalg::Matrixd jacobian;  ///< dc/dd at d_f

  std::size_t num_constraints() const { return c0.size(); }
  /// Linearized constraint values at d.
  linalg::Vector values(const linalg::DesignVec& d) const;
  /// True if all linearized constraints are >= -tol at d.
  bool feasible(const linalg::DesignVec& d, double tol = 0.0) const;

  /// Feasible interval of the coordinate move d + alpha * e_k, starting
  /// from the box-derived interval [alpha_lo, alpha_hi].  `current` are the
  /// linearized constraint values at d (precomputed via values()).
  /// Returns an empty interval (lo > hi) when no feasible alpha exists.
  std::pair<double, double> coordinate_interval(const linalg::Vector& current,
                                                std::size_t k, double alpha_lo,
                                                double alpha_hi) const;
};

/// Builds the constraint linearization at a (feasible) point d_f.
FeasibilityModel linearize_feasibility(Evaluator& evaluator,
                                       const linalg::DesignVec& d_f);

/// Controls for the feasible-start search of Sec. 5.5.
struct FeasibleStartOptions {
  int max_iterations = 15;
  /// Constraints are driven to c_i >= target_margin (> 0 leaves slack for
  /// the subsequent linearization steps).
  double target_margin = 0.0;
  double tolerance = 1e-9;  ///< accepted residual violation
};

/// Result of the feasible-start search.
struct FeasibleStartResult {
  linalg::DesignVec d;       ///< final (hopefully feasible) point
  bool feasible = false;
  double worst_constraint = 0.0;  ///< min_i c_i(d)
  int iterations = 0;
};

/// Finds the closest feasible point to d0 (Gauss-Newton on the violated
/// constraints with backtracking, clamped to the design box).  If d0 is
/// already feasible it is returned unchanged.
FeasibleStartResult find_feasible_start(Evaluator& evaluator,
                                        const linalg::DesignVec& d0,
                                        const FeasibleStartOptions& options = {});

}  // namespace mayo::core
