// mayo/core -- worst-case statistical points (paper eq. 8).
//
// For specification i at design d and worst-case operating point theta_wc,
// the worst-case point is
//
//     s_wc = argmin { s^T s  |  margin_i(d, s, theta_wc) = 0 } ,
//
// the most probable statistical realization that just reaches the
// specification bound.  The signed worst-case distance is
// beta = +||s_wc|| when the nominal design satisfies the spec, and
// beta = -||s_wc|| when it violates it; Phi(beta) approximates the
// per-spec yield.
//
// Algorithm: sequential linearization.  At iterate s_k with margin m_k and
// forward-difference gradient g_k (Evaluator::margin_gradient_s, n + 1
// points), the min-norm point of the linearized level set is
//
//     s_{k+1} = g_k (g_k^T s_k - m_k) / (g_k^T g_k) ,
//
// damped and clamped to the trust sphere ||s|| <= max_radius.  A start
// converges when |m_k| < 1e-3 * scale (the spec's scale) and the step is
// shorter than kWcStepTolerance.  It stops, not converged, as soon as an
// iterate whose step onto it was clamped linearizes to a level set still
// beyond max_radius: the spec is out of reach, and walking the sphere to the
// iteration cap would only report the same beta = +-max_radius.  A start
// that reaches max_iterations is re-linearized at its last iterate, so the
// returned point, margin and gradient always describe one point.
//
// Mismatch-type (quadratic, semidefinite-Hessian) performances such as
// CMRR have a vanishing gradient in the mismatch directions at the matched
// nominal point, so a gradient path started at s = 0 never leaves the
// neutral line -- the problem treated in the paper's ref. [12].  We probe
// the diagonal curvature of every statistical direction at s = 0 (the +h
// points double as the forward-difference stencil at s = 0) and launch
// additional searches along directions that degrade the margin on *both*
// sides; the minimum-norm converged solution wins, else the start with the
// smallest |margin|.
//
// The mirrored worst-case point of eq. (21)-(22) is detected with one extra
// evaluation at -s_wc: if the margin there falls significantly below the
// linear prediction, the performance is flagged so the linearization stage
// adds a second, sign-flipped model.
//
// Warm start: a caller may pass the spec's `previous` worst-case point (the
// optimizer passes the last accepted Fig.-6 iterate's, see
// linearization.hpp).  If that point converged and was flagged mirrored,
// one sequential-linearization start runs from its s_wc; if it converges
// it is the result -- no curvature probes, no origin or curvature-seeded
// starts -- and the mirror check runs as usual.  If it does not converge
// it is discarded and the cold search above runs as if it had not been
// tried, so s_wc, beta, gradient and the mirror flag are bitwise the cold
// result; only `iterations` also counts the discarded start.  Only
// mirrored (mismatch-type) specs are followed: their cold search pays 2n
// curvature probes and up to five starts that land on the same +- pair
// each time, and the eq. 21-22 mirror model covers the lobe the warm start
// does not follow.  Every other spec keeps the cold search, whose origin
// start shares its first iteration with the specs at the same corner
// through the Evaluator cache.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evaluator.hpp"
#include "linalg/spaces.hpp"

namespace mayo::core {

/// ||s_{k+1} - s_k|| below which a converging start stops (sigma units).
inline constexpr double kWcStepTolerance = 1e-3;

/// Controls for the worst-case distance search.
struct WcDistanceOptions {
  int max_iterations = 12;        ///< sequential-linearization iterations
  double max_radius = 10.0;       ///< trust clamp on ||s|| (sigma units);
                                  ///< level sets beyond it are out of reach
  bool curvature_starts = true;   ///< launch extra searches along quadratic axes
};

/// Result of the search for one specification.
struct WorstCasePoint {
  std::size_t spec = 0;
  linalg::StatUnitVec s_wc;  ///< worst-case point in s_hat coordinates
  double beta = 0.0;         ///< signed worst-case distance; +-max_radius
                             ///< (sign of margin_nominal) if not converged
  double margin_nominal = 0.0;  ///< margin at s_hat = 0
  double margin_at_wc = 0.0;    ///< residual margin at s_wc (~0 when converged)
  linalg::StatUnitVec gradient;  ///< margin gradient w.r.t. s_hat at s_wc
  bool converged = false;
  bool mirrored = false;    ///< quadratic behaviour detected (eq. 21)
  double margin_at_mirror = 0.0;  ///< margin at -s_wc
  int iterations = 0;       ///< sequential-linearization iterations used,
                            ///< summed over all starts (warm one included)
};

/// Runs the search for one specification, first from `previous`'s s_wc
/// when it is a converged mirrored point (see the header comment).
WorstCasePoint find_worst_case_point(
    Evaluator& evaluator, std::size_t spec, const linalg::DesignVec& d,
    const linalg::OperatingVec& theta_wc, const WcDistanceOptions& options = {},
    const WorstCasePoint* previous = nullptr);

/// Convenience: per-spec yield estimate Phi(beta) of a worst-case point.
double worst_case_yield(const WorstCasePoint& wc);

}  // namespace mayo::core
