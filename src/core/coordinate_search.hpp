// mayo/core -- feasibility-guided coordinate search (paper eq. 19).
//
// Maximizes the linear-model yield estimate over the design parameters,
// one coordinate at a time.  Every move is restricted to the alpha
// interval allowed by the linearized functional constraints (eq. 15)
// intersected with the design box; within that interval the exact 1-D
// maximizer of LinearYieldModel::best_alpha is used.  Sweeps repeat until
// no coordinate improves the pass count.
//
// The paper motivates coordinate search over gradient methods: the yield
// estimate is a Monte-Carlo step function (no useful gradient), zero over
// large parts of the design space, and strongly non-monotonic (Fig. 5).
#pragma once

#include <functional>

#include "core/feasibility.hpp"
#include "core/yield_model.hpp"

namespace mayo::core {

struct CoordinateSearchOptions {
  int max_sweeps = 25;  ///< full passes over all coordinates
  /// Per-iteration trust region: each coordinate may move away from its
  /// value at search start by at most
  /// max(trust_fraction * |start|, trust_floor_fraction * range).
  /// The linearizations (performances AND constraints) are only accurate
  /// near the expansion point; the paper leans on the constraints alone,
  /// which is not enough when constraint curvature (vdsat ~ 1/sqrt(W)) is
  /// strong.  Set to +inf to disable.
  double trust_fraction = 0.75;
  double trust_floor_fraction = 0.1;
  /// Optional observer called after every accepted move:
  /// (coordinate, alpha, passing-count after the move).
  std::function<void(std::size_t, double, std::size_t)> on_move;
};

struct CoordinateSearchResult {
  linalg::DesignVec d_star;  ///< maximizing design
  std::size_t passing = 0;   ///< passing samples at d_star
  double yield = 0.0;        ///< Y_bar at d_star
  int sweeps = 0;
  int moves = 0;             ///< accepted coordinate moves
};

/// Runs the search starting from the model's current design.  `feasibility`
/// may be null (Table-3 ablation: only the design box restricts moves).
CoordinateSearchResult maximize_linear_yield(
    LinearYieldModel& model, const FeasibilityModel* feasibility,
    const ParameterSpace& design_space,
    const CoordinateSearchOptions& options = {});

}  // namespace mayo::core
