// mayo/core -- baseline optimizers the paper compares against.
//
// 1. Direct Monte-Carlo yield optimization (the paper's Sec. 1 argument
//    [2-5]): coordinate search maximizing the SIMULATION-based yield
//    estimate of eq. (6) directly.  Every candidate design costs a full
//    Monte-Carlo batch of true model evaluations, which is what makes the
//    approach "straightforward but [needing] a huge number of simulations
//    if applied within an optimization loop".  Common random numbers keep
//    the comparison between candidates meaningful.
//
// 2. Worst-case-distance maximin ("design centering driven by worst-case
//    distances", ref. [10], and the MCO framing of [10-12]): maximize the
//    SMALLEST linearized worst-case distance min_i beta_i over the design,
//    under the linearized constraints.  This treats each specification as
//    an independent robustness objective; the paper's point is that the
//    sampled yield estimate accounts for performance *correlations* that
//    the per-spec beta view cannot.
//
// Both baselines are exercised by bench/ablation_baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "core/feasibility.hpp"
#include "core/linearization.hpp"

namespace mayo::core {

// ------------------------------------------------------------------------
// 1. Direct Monte-Carlo yield optimization.
// ------------------------------------------------------------------------

/// Each sweep tries moves of shrinking size per coordinate (baseline.cpp).
struct DirectMcOptions {
  std::size_t samples = 100;        ///< MC batch per yield estimate
  std::uint64_t seed = 99;          ///< common random numbers
  int max_sweeps = 3;               ///< coordinate sweeps
  std::size_t max_evaluations = 100000;  ///< hard budget on model evaluations
};

struct DirectMcResult {
  linalg::DesignVec d;
  double yield = 0.0;               ///< MC estimate at the final design
  std::size_t evaluations = 0;      ///< model evaluations consumed
  int sweeps = 0;
  bool budget_exhausted = false;
};

/// Runs the baseline from the problem's nominal design.  theta_wc is
/// computed once by corner enumeration (as the proposed method does) and
/// reused.  Constraint handling: candidates violating c(d) >= 0 are
/// rejected (one constraint evaluation each).
DirectMcResult optimize_yield_direct_mc(Evaluator& evaluator,
                                        const DirectMcOptions& options = {});

// ------------------------------------------------------------------------
// 2. Worst-case-distance maximin on the linearized models.
// ------------------------------------------------------------------------

/// Each coordinate move scans a fixed alpha grid (baseline.cpp).
struct MaximinOptions {
  int max_sweeps = 40;
};

struct MaximinResult {
  linalg::DesignVec d;
  double min_beta = 0.0;            ///< smallest linearized beta at d
  std::vector<double> betas;        ///< per-model linearized beta at d
  int moves = 0;
};

/// Linearized worst-case distance of one model at design d:
/// beta_l(d) = (m_wc + grad_d^T (d - d_f)) / ||grad_s||  (sigma of the
/// linearized margin under s_hat ~ N(0, I)).
double linearized_beta(const SpecLinearization& model,
                       const linalg::DesignVec& d);

/// Coordinate search maximizing min_l beta_l(d) under the linearized
/// constraints (nullptr = box only).
MaximinResult maximize_min_beta(const std::vector<SpecLinearization>& models,
                                const ParameterSpace& design_space,
                                const FeasibilityModel* feasibility,
                                const linalg::DesignVec& start,
                                const MaximinOptions& options = {});

}  // namespace mayo::core
