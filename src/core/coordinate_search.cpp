#include "core/coordinate_search.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Vector;

namespace {

/// Fraction of the box range a move must exceed to be applied (suppresses
/// pure numerical-noise moves).
constexpr double kMinMoveFraction = 1e-9;

}  // namespace

CoordinateSearchResult maximize_linear_yield(
    LinearYieldModel& model, const FeasibilityModel* feasibility,
    const ParameterSpace& design_space, const CoordinateSearchOptions& options) {
  const obs::Span span(obs::registry().phases.coordinate_search);
  CoordinateSearchResult result;
  const std::size_t dim = design_space.dimension();
  std::size_t current_passing = model.passing();
  const DesignVec start = model.design();

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    result.sweeps = sweep + 1;
    bool any_move = false;

    for (std::size_t k = 0; k < dim; ++k) {
      const DesignVec& d = model.design();
      const double range = design_space.upper[k] - design_space.lower[k];
      double alpha_lo = design_space.lower[k] - d[k];
      double alpha_hi = design_space.upper[k] - d[k];
      // Trust region relative to the search's starting point.
      const double trust =
          std::max(options.trust_fraction * std::abs(start[k]),
                   options.trust_floor_fraction * range);
      alpha_lo = std::max(alpha_lo, start[k] - trust - d[k]);
      alpha_hi = std::min(alpha_hi, start[k] + trust - d[k]);
      if (feasibility != nullptr) {
        const Vector c_lin = feasibility->values(d);
        const auto [lo, hi] =
            feasibility->coordinate_interval(c_lin, k, alpha_lo, alpha_hi);
        alpha_lo = lo;
        alpha_hi = hi;
      }
      if (alpha_lo > alpha_hi) continue;  // constraints block this coordinate

      obs::registry().counters.cs_scans.add();
      const auto scan = model.best_alpha(k, alpha_lo, alpha_hi);
      if (scan.passing > current_passing &&
          std::abs(scan.alpha) > kMinMoveFraction * range) {
        model.apply_coordinate(k, scan.alpha);
        current_passing = model.passing();
        ++result.moves;
        any_move = true;
        if (options.on_move) options.on_move(k, scan.alpha, current_passing);
      }
    }
    if (!any_move) break;
  }

  result.d_star = model.design();
  result.passing = current_passing;
  result.yield =
      static_cast<double>(current_passing) / model.num_samples();
  return result;
}

}  // namespace mayo::core
