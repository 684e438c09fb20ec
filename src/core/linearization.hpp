// mayo/core -- spec-wise linearized performance models (paper eq. 16).
//
// For every specification the margin is linearized at its worst-case
// statistical point and the current feasible design d_f:
//
//   m_bar_i(d, s) = m_wc_i + grad_s_i^T (s - s_wc_i) + grad_d_i^T (d - d_f)
//
// (the paper states the model in performance form with f_b on the left;
// margins make both bound directions uniform, and m_wc ~ 0 when the
// worst-case search converged).  Quadratic mismatch performances get a
// second, mirrored model at s_wc' = -s_wc with negated statistical
// gradient (eq. 21-22) at the cost of a single extra evaluation.
//
// The Table-4 ablation linearizes at the nominal point s = s0 instead.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evaluator.hpp"
#include "core/wc_distance.hpp"
#include "core/wc_operating.hpp"
#include "linalg/spaces.hpp"

namespace mayo::core {

/// One linear margin model (one spec, possibly a mirrored copy).
struct SpecLinearization {
  std::size_t spec = 0;        ///< specification index
  bool is_mirror = false;      ///< mirrored model of a quadratic performance
  linalg::OperatingVec theta_wc;  ///< worst-case operating point of the spec
  linalg::StatUnitVec s_wc;    ///< expansion point in s_hat space
  linalg::DesignVec d_f;       ///< design expansion point
  double margin_wc = 0.0;      ///< margin at (d_f, s_wc, theta_wc)
  linalg::StatUnitVec grad_s;  ///< margin gradient w.r.t. s_hat
  linalg::DesignVec grad_d;    ///< margin gradient w.r.t. d
  double beta = 0.0;           ///< worst-case distance of the underlying point

  /// Model evaluation m_bar(d, s_hat).
  double value(const linalg::DesignVec& d,
               const linalg::StatUnitVec& s_hat) const;
};

/// Controls for building the full set of linearizations at one iterate.
struct LinearizationOptions {
  WcDistanceOptions wc;
  WcOperatingOptions operating;
  /// Table-4 ablation: expand every spec at s_hat = 0 instead of its
  /// worst-case point (the gradient misses quadratic mismatch behaviour).
  bool linearize_at_nominal = false;
  /// Add mirrored models for detected quadratic performances (eq. 21-22).
  bool enable_mirror = true;
};

/// Everything the yield-improvement step needs at one iterate.
struct LinearizedModels {
  std::vector<SpecLinearization> models;   ///< >= num_specs entries
  std::vector<WorstCasePoint> worst_cases; ///< per spec (not per model)
  WcOperatingResult operating;             ///< theta_wc per spec
};

/// Builds theta_wc, the worst-case points and the linear models at d_f.
/// `threads` workers (core/fan_out.hpp; 0 = hardware concurrency) run the
/// per-spec worst-case searches and design gradients, spec i on worker
/// i % n.  Model evaluations are pure functions of (d, s, theta) (see
/// evaluator.hpp), so every returned model, worst-case point and corner
/// is bitwise identical for any thread count; workers start with cold
/// caches, so only the split between evaluations and cache hits can
/// differ.
///
/// `previous` (the optimizer passes the last accepted iterate's models)
/// hands each spec's previous worst-case point to its search, which
/// warm-starts from it when it is a converged mirrored point (see
/// wc_distance.hpp).  Without `previous` every spec runs the cold search.
LinearizedModels build_linearizations(Evaluator& evaluator,
                                      const linalg::DesignVec& d_f,
                                      const LinearizationOptions& options = {},
                                      unsigned threads = 1,
                                      const LinearizedModels* previous = nullptr);

}  // namespace mayo::core
