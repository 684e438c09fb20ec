#include "core/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/wc_operating.hpp"
#include "stats/sampler.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::MarginVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;
using linalg::Vector;

namespace {

/// Direct MC: trial moves per coordinate and sweep, the first sweep's move
/// size (of the range) and its shrink per sweep.
constexpr int kCandidatesPerCoordinate = 4;
constexpr double kInitialStepFraction = 0.4;
constexpr double kStepShrink = 0.5;
/// Maximin: grid intervals per coordinate move (kGridPoints + 1 alphas).
constexpr int kGridPoints = 64;

/// Simulation-based yield estimate (eq. 6) with a fixed sample set.
/// Returns -1 when the evaluation budget would be exceeded.
double mc_yield(Evaluator& evaluator, const DesignVec& d,
                const std::vector<OperatingVec>& theta_wc,
                const stats::SampleSet& samples, std::size_t max_evaluations) {
  // Distinct operating corners (shared evaluations).
  std::vector<OperatingVec> distinct;
  std::vector<std::size_t> group(theta_wc.size());
  for (std::size_t i = 0; i < theta_wc.size(); ++i) {
    bool found = false;
    for (std::size_t g = 0; g < distinct.size(); ++g)
      if (distinct[g] == theta_wc[i]) {
        group[i] = g;
        found = true;
        break;
      }
    if (!found) {
      group[i] = distinct.size();
      distinct.push_back(theta_wc[i]);
    }
  }
  if (evaluator.counts().total() + samples.count() * distinct.size() >
      max_evaluations)
    return -1.0;

  std::size_t passing = 0;
  for (std::size_t j = 0; j < samples.count(); ++j) {
    const StatUnitVec s_hat = samples.sample_vector(j);
    bool pass = true;
    std::vector<MarginVec> margins(distinct.size());
    for (std::size_t g = 0; g < distinct.size() && pass; ++g)
      margins[g] = evaluator.margins(d, s_hat, distinct[g]);
    for (std::size_t i = 0; i < theta_wc.size() && pass; ++i)
      if (margins[group[i]][i] < 0.0) pass = false;
    passing += pass ? 1 : 0;
  }
  return static_cast<double>(passing) / samples.count();
}

bool is_feasible(Evaluator& evaluator, const DesignVec& d) {
  const Vector c = evaluator.constraints(d);
  for (double ci : c)
    if (ci < 0.0) return false;
  return true;
}

}  // namespace

DirectMcResult optimize_yield_direct_mc(Evaluator& evaluator,
                                        const DirectMcOptions& options) {
  DirectMcResult result;
  const auto& space = evaluator.problem().design;
  result.d = DesignVec(space.nominal);

  const WcOperatingResult corners =
      find_worst_case_operating(evaluator, result.d);
  const stats::SampleSet samples(options.samples, evaluator.num_statistical(),
                                 options.seed);

  result.yield = mc_yield(evaluator, result.d, corners.theta_wc, samples,
                          options.max_evaluations);
  if (result.yield < 0.0) {
    result.yield = 0.0;
    result.budget_exhausted = true;
    result.evaluations = evaluator.counts().total();
    return result;
  }

  double step_fraction = kInitialStepFraction;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    result.sweeps = sweep + 1;
    bool any_move = false;
    for (std::size_t k = 0; k < space.dimension(); ++k) {
      const double range = space.upper[k] - space.lower[k];
      const double step = step_fraction * range;
      double best_yield = result.yield;
      DesignVec best_d = result.d;
      for (int c = 1; c <= kCandidatesPerCoordinate; ++c) {
        // Alternate positive/negative moves of decreasing size.
        const double magnitude =
            step * static_cast<double>((c + 1) / 2) /
            static_cast<double>((kCandidatesPerCoordinate + 1) / 2);
        const double alpha = (c % 2 == 1) ? magnitude : -magnitude;
        DesignVec candidate = result.d;
        candidate[k] = std::clamp(candidate[k] + alpha, space.lower[k],
                                  space.upper[k]);
        if (candidate[k] == result.d[k]) continue;
        if (!is_feasible(evaluator, candidate)) continue;
        const double y = mc_yield(evaluator, candidate, corners.theta_wc,
                                  samples, options.max_evaluations);
        if (y < 0.0) {
          result.budget_exhausted = true;
          result.evaluations = evaluator.counts().total();
          return result;
        }
        if (y > best_yield) {
          best_yield = y;
          best_d = candidate;
        }
      }
      if (best_yield > result.yield) {
        result.yield = best_yield;
        result.d = best_d;
        any_move = true;
      }
    }
    step_fraction *= kStepShrink;
    if (!any_move && sweep > 0) break;
  }
  result.evaluations = evaluator.counts().total();
  return result;
}

double linearized_beta(const SpecLinearization& model, const DesignVec& d) {
  // Under s_hat ~ N(0, I) the linearized margin is Gaussian with
  //   mu    = m_wc - grad_s^T s_wc + grad_d^T (d - d_f),
  //   sigma = ||grad_s||;
  // beta = mu / sigma is the linearized worst-case distance.
  const double sigma = model.grad_s.norm();
  const double mu = model.margin_wc - linalg::dot(model.grad_s, model.s_wc) +
                    linalg::dot(model.grad_d, d - model.d_f);
  if (sigma <= 0.0)
    return mu >= 0.0 ? std::numeric_limits<double>::infinity()
                     : -std::numeric_limits<double>::infinity();
  return mu / sigma;
}

MaximinResult maximize_min_beta(const std::vector<SpecLinearization>& models,
                                const ParameterSpace& design_space,
                                const FeasibilityModel* feasibility,
                                const DesignVec& start,
                                const MaximinOptions& options) {
  MaximinResult result;
  result.d = start;

  const auto min_beta_at = [&](const DesignVec& d) {
    double worst = std::numeric_limits<double>::infinity();
    for (const auto& model : models)
      worst = std::min(worst, linearized_beta(model, d));
    return worst;
  };
  result.min_beta = min_beta_at(result.d);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool any_move = false;
    for (std::size_t k = 0; k < design_space.dimension(); ++k) {
      double lo = design_space.lower[k] - result.d[k];
      double hi = design_space.upper[k] - result.d[k];
      if (feasibility != nullptr) {
        const Vector current = feasibility->values(result.d);
        const auto interval =
            feasibility->coordinate_interval(current, k, lo, hi);
        lo = interval.first;
        hi = interval.second;
      }
      if (lo > hi) continue;
      double best_alpha = 0.0;
      double best = result.min_beta;
      for (int g = 0; g <= kGridPoints; ++g) {
        const double alpha = lo + (hi - lo) * g / kGridPoints;
        DesignVec candidate = result.d;
        candidate[k] += alpha;
        const double value = min_beta_at(candidate);
        if (value > best + 1e-12) {
          best = value;
          best_alpha = alpha;
        }
      }
      if (best > result.min_beta + 1e-12) {
        result.d[k] += best_alpha;
        result.min_beta = best;
        ++result.moves;
        any_move = true;
      }
    }
    if (!any_move) break;
  }

  for (const auto& model : models)
    result.betas.push_back(linearized_beta(model, result.d));
  return result;
}

}  // namespace mayo::core
