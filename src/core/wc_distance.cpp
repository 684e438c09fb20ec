#include "core/wc_distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "stats/normal.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

namespace {

/// |margin| < kMarginTolerance * spec.scale converges a start.
constexpr double kMarginTolerance = 1e-3;
/// Curvature-seeded start along an axis whose -c_i / 2 exceeds this times
/// spec.scale; at most kMaxExtraStarts of them, most curved first.
constexpr double kCurvatureThreshold = 0.05;
constexpr int kMaxExtraStarts = 4;

struct SearchOutcome {
  StatUnitVec s;
  double margin = 0.0;
  StatUnitVec gradient;
  bool converged = false;
  int iterations = 0;
};

/// One sequential-linearization run from a given start point.
SearchOutcome run_search(Evaluator& evaluator, std::size_t spec,
                         const DesignVec& d, const OperatingVec& theta_wc,
                         const StatUnitVec& start, double scale,
                         const WcDistanceOptions& options) {
  SearchOutcome out;
  out.s = start;
  double damping = 1.0;  // halved on overshoot, regrown on progress
  double prev_abs_margin = std::numeric_limits<double>::infinity();
  bool on_sphere = false;  // the last step was clamped to max_radius

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++out.iterations;
    obs::registry().counters.wc_iterations.add();
    out.margin = evaluator.margin(spec, d, out.s, theta_wc);
    out.gradient = evaluator.margin_gradient_s(spec, d, out.s, theta_wc);
    const double g2 = out.gradient.norm2();
    if (g2 < 1e-20) return out;  // flat -- this start is hopeless

    // Min-norm point of the linearized level set {s | m + g^T(s - s_k) = 0}.
    const double rhs = linalg::dot(out.gradient, out.s) - out.margin;
    StatUnitVec target = out.gradient * (rhs / g2);
    // Out of reach: the last step was clamped onto the trust sphere, and the
    // linearization there still puts the level set beyond it.  Walking on
    // along the sphere would only end at the cap with beta = max_radius.
    // The convergence test below takes precedence.
    const bool out_of_reach =
        on_sphere && target.norm() > options.max_radius;
    StatUnitVec step = target - out.s;

    // Adaptive damping: back off when the margin residual grew.
    if (std::abs(out.margin) > prev_abs_margin)
      damping = std::max(0.25, 0.5 * damping);
    else
      damping = std::min(1.0, 1.3 * damping);
    prev_abs_margin = std::abs(out.margin);

    StatUnitVec s_new = out.s + step * damping;
    const double radius = s_new.norm();
    on_sphere = radius > options.max_radius;
    if (on_sphere) s_new *= options.max_radius / radius;

    const double moved = linalg::distance(s_new, out.s);
    if (std::abs(out.margin) < kMarginTolerance * scale &&
        moved < kWcStepTolerance) {
      out.converged = true;
      return out;
    }
    if (out_of_reach) {
      obs::registry().counters.wc_out_of_reach.add();
      return out;
    }
    out.s = std::move(s_new);
  }
  // Iteration cap: re-linearize at the last accepted iterate, so the margin
  // and gradient describe the returned point, and accept a good residual.
  out.margin = evaluator.margin(spec, d, out.s, theta_wc);
  out.gradient = evaluator.margin_gradient_s(spec, d, out.s, theta_wc);
  out.converged = std::abs(out.margin) < kMarginTolerance * scale * 10.0;
  return out;
}

/// The cold search: the origin plus curvature-seeded starts along quadratic
/// (mismatch-type) axes.  Returns the minimum-norm converged outcome, else
/// the one with the smallest |margin|, with `iterations` summed over all
/// starts.
SearchOutcome multi_start_search(Evaluator& evaluator, std::size_t spec,
                                 const DesignVec& d,
                                 const OperatingVec& theta_wc,
                                 double margin_nominal, double scale,
                                 const WcDistanceOptions& options) {
  const std::size_t n = evaluator.num_statistical();
  std::vector<StatUnitVec> starts;
  starts.emplace_back(n);  // the nominal point

  if (options.curvature_starts && margin_nominal > 0.0) {
    const double h = kSHatStep;
    struct Axis {
      std::size_t index;
      double curvature;
      double radius;
    };
    std::vector<Axis> axes;
    StatUnitVec probe(n);
    for (std::size_t i = 0; i < n; ++i) {
      probe[i] = h;
      const double m_plus = evaluator.margin(spec, d, probe, theta_wc);
      probe[i] = -h;
      const double m_minus = evaluator.margin(spec, d, probe, theta_wc);
      probe[i] = 0.0;
      const double curvature =
          (m_plus - 2.0 * margin_nominal + m_minus) / (h * h);
      // A mismatch axis hurts on both sides and with meaningful strength.
      if (m_plus < margin_nominal && m_minus < margin_nominal &&
          -curvature * 0.5 > kCurvatureThreshold * scale) {
        const double radius = std::clamp(
            std::sqrt(2.0 * std::max(margin_nominal, 0.1 * scale) /
                      (-curvature)),
            0.5, options.max_radius);
        axes.push_back({i, curvature, radius});
      }
    }
    std::sort(axes.begin(), axes.end(), [](const Axis& a, const Axis& b) {
      return a.curvature < b.curvature;  // most negative first
    });
    int budget = kMaxExtraStarts;
    for (const Axis& axis : axes) {
      if (budget <= 0) break;
      StatUnitVec plus(n);
      plus[axis.index] = axis.radius;
      starts.push_back(plus);
      --budget;
      if (budget <= 0) break;
      StatUnitVec minus(n);
      minus[axis.index] = -axis.radius;
      starts.push_back(minus);
      --budget;
    }
  }

  // Run all starts; keep the minimum-norm converged solution.
  SearchOutcome best;
  bool have_best = false;
  SearchOutcome fallback;
  bool have_fallback = false;
  int iterations = 0;
  for (const StatUnitVec& start : starts) {
    SearchOutcome outcome =
        run_search(evaluator, spec, d, theta_wc, start, scale, options);
    iterations += outcome.iterations;
    if (outcome.converged) {
      if (!have_best || outcome.s.norm2() < best.s.norm2()) {
        best = std::move(outcome);
        have_best = true;
      }
    } else if (!have_fallback ||
               std::abs(outcome.margin) < std::abs(fallback.margin)) {
      fallback = std::move(outcome);
      have_fallback = true;
    }
  }
  SearchOutcome chosen = have_best ? std::move(best) : std::move(fallback);
  chosen.iterations = iterations;
  return chosen;
}

}  // namespace

WorstCasePoint find_worst_case_point(Evaluator& evaluator, std::size_t spec,
                                     const DesignVec& d,
                                     const OperatingVec& theta_wc,
                                     const WcDistanceOptions& options,
                                     const WorstCasePoint* previous) {
  const double scale = evaluator.problem().specs.at(spec).scale;

  WorstCasePoint result;
  result.spec = spec;
  result.margin_nominal = evaluator.margin(
      spec, d, StatUnitVec(evaluator.num_statistical()), theta_wc);

  // A warm start is one run from the previous point of a mirrored spec.
  // Converged, it is the result; otherwise it is discarded and the cold
  // search runs as if it had never been tried (evaluations are pure, so its
  // outcome is unchanged).
  SearchOutcome chosen;
  if (previous != nullptr && previous->converged && previous->mirrored) {
    obs::registry().counters.wc_warm_starts.add();
    chosen = run_search(evaluator, spec, d, theta_wc, previous->s_wc, scale,
                        options);
    result.iterations = chosen.iterations;
    if (!chosen.converged)
      obs::registry().counters.wc_warm_fallbacks.add();
  }
  if (!chosen.converged) {
    chosen = multi_start_search(evaluator, spec, d, theta_wc,
                                result.margin_nominal, scale, options);
    result.iterations += chosen.iterations;
  }
  result.s_wc = std::move(chosen.s);
  result.margin_at_wc = chosen.margin;
  result.gradient = std::move(chosen.gradient);
  result.converged = chosen.converged;
  // A search that did not converge located no point of the level set: it
  // reports |beta| = max_radius, the searched sphere's edge, wherever it
  // stopped (a start on a flat gradient stops where it began).
  const double sign = result.margin_nominal >= 0.0 ? 1.0 : -1.0;
  result.beta =
      sign * (result.converged ? result.s_wc.norm() : options.max_radius);

  // Mirror detection (eq. 21): one extra evaluation at -s_wc.  A linear
  // performance would have margin ~ 2*m0 there; a symmetric quadratic one
  // collapses back to ~0.
  if (result.margin_nominal > 0.0 && result.s_wc.norm() > 1e-9) {
    result.margin_at_mirror = evaluator.margin(spec, d, -result.s_wc, theta_wc);
    result.mirrored =
        result.margin_at_mirror <
        0.25 * result.margin_nominal + kMarginTolerance * scale;
  }
  return result;
}

double worst_case_yield(const WorstCasePoint& wc) {
  return stats::yield_from_beta(wc.beta);
}

}  // namespace mayo::core
