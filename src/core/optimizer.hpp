// mayo/core -- the complete yield-optimization loop (paper Fig. 6).
//
//   1. find a feasible starting point d_f (Sec. 5.5),
//   2. linearize the constraints at d_f (eq. 15) and the performances
//      spec-wise at their worst-case points (eq. 16, 21-22),
//   3. maximize the Monte-Carlo yield estimate over d by coordinate search
//      under the linearized constraints (eq. 17-20),
//   4. line-search on the true constraints towards the maximizer (eq. 23),
//   5. repeat from 2 until no further improvement: the loop stops before
//      step 4 when the coordinate search predicts at most kStopGainSamples
//      more passing samples than at d_f (tau = 2/N, the resolution of the
//      N-sample estimate; a search that makes no move predicts 0), and d_f
//      is the final design.  It also stops when the line search cannot
//      move or the monotone safeguard rejects every attempt, so
//      `max_iterations` is an upper bound on the accepted iterations.
//      `stop_reason` says which.
//
// The ablations of the paper's Tables 3 and 4 are option switches:
// `use_constraints = false` removes the feasibility guidance, and
// `linearization.linearize_at_nominal = true` expands at s0 instead of the
// worst-case points.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/audit.hpp"
#include "core/coordinate_search.hpp"
#include "core/evaluator.hpp"
#include "core/feasibility.hpp"
#include "core/is_verification.hpp"
#include "core/line_search.hpp"
#include "core/linearization.hpp"
#include "core/verification.hpp"

namespace mayo::core {

struct YieldOptimizerOptions {
  int max_iterations = 3;
  /// Problem-definition audit at entry (see core/problem_audit.hpp):
  /// always in Debug builds, opt-in (kOn) in Release.  Errors throw
  /// audit::AuditError before any evaluation is spent.
  audit::Enforce audit = audit::Enforce::kDefault;
  std::size_t linear_samples = 10000;  ///< N of eq. (17)
  std::uint64_t sample_seed = 42;
  /// Functional-constraint guidance (Table-3 ablation turns this off).
  bool use_constraints = true;
  /// Reject an iterate whose re-linearized yield estimate is worse than
  /// the previous one and retry with a smaller trust region.  On by
  /// default; the paper-ablation benches disable it to expose the raw
  /// behaviour of a misled linear model (Tables 3/4).
  bool monotone_safeguard = true;
  LinearizationOptions linearization;
  /// Worker threads for the per-spec worst-case searches and design
  /// gradients of every (re-)linearization (see build_linearizations):
  /// 1 = serial, 0 = hardware concurrency.  Results are bitwise identical
  /// to serial; only the evaluation-cache hit pattern (and hence the
  /// counters) can differ, because each worker starts with a cold cache.
  unsigned linearization_threads = 1;
  CoordinateSearchOptions search;
  LineSearchOptions line_search;
  FeasibleStartOptions feasible_start;
  /// Simulation-based MC verification between iterations (paper's Y~ rows).
  bool run_verification = true;
  VerificationOptions verification;
  /// Variance-reduced final verification: one importance-sampled pass at
  /// the final design, shifted to the last linearization's worst-case
  /// points (core/is_verification.hpp).  Off by default; the plain-MC
  /// path above is untouched either way.
  bool run_is_verification = false;
  IsVerificationOptions is_verification;
};

/// Predicted gain, in passing samples of the linear model, at or below
/// which the Fig.-6 loop stops (step 5 above).
inline constexpr std::size_t kStopGainSamples = 2;

/// Why optimize_yield's Fig.-6 loop ended.
enum class StopReason {
  kMaxIterations,        ///< max_iterations iterations were accepted
  kPredictedGain,        ///< the search predicted <= kStopGainSamples more
                         ///< (0 when it made no move)
  kLineSearchBlocked,    ///< the line search could not move inside F
  kAllAttemptsRejected,  ///< the monotone safeguard rejected every attempt
};

/// Stable snake_case name of a stop reason ("predicted_gain", ...), as
/// written to the run report.
const char* stop_reason_name(StopReason reason);

/// Per-spec state recorded in every trace row (one paper-table column).
struct SpecSnapshot {
  double nominal_margin = 0.0;  ///< margin at (d, s0, theta_wc) -- the f-f_b rows
  double bad_permille = 0.0;    ///< bad samples in the linear model [per mille]
  double beta = 0.0;            ///< worst-case distance at this iterate
  /// The worst-case search converged; false means |beta| is only as far as
  /// the search got (max_radius when the spec is out of reach).
  bool beta_converged = true;
};

/// One row of the optimization trace (paper Tables 1/3/4/6).
struct IterationRecord {
  int iteration = 0;  ///< 0 = initial design
  linalg::DesignVec d;
  std::vector<SpecSnapshot> specs;
  double linear_yield = 0.0;    ///< Y_bar on the linear models at d
  /// Y_bar the coordinate search predicted at the d* that produced this
  /// row, on the previous row's models (-1 for the initial row).
  double predicted_yield = -1.0;
  double verified_yield = -1.0; ///< simulation MC (-1 if not run)
  VerificationResult verification;  ///< full verification data (if run)
  double gamma = 0.0;           ///< line-search step that produced this iterate
  std::size_t moves = 0;        ///< coordinate moves accepted this iteration
};

struct YieldOptimizationResult {
  std::vector<IterationRecord> trace;  ///< [0] = initial, then per iteration
  linalg::DesignVec final_d;
  bool feasible_start_found = false;
  StopReason stop_reason = StopReason::kMaxIterations;
  /// Passing samples the last coordinate search predicted over d_f -- the
  /// search that stopped the loop unless stop_reason is kMaxIterations;
  /// 0 when no search ran.
  std::int64_t predicted_gain = 0;
  /// Linearizations (worst-case points included) built at each trace point;
  /// index matches `trace`.  Mismatch analysis reuses these at no extra
  /// simulation cost (paper Sec. 3.2).
  std::vector<LinearizedModels> linearizations;
  /// Importance-sampled final verification (options.run_is_verification);
  /// valid only when is_verification_run is true.
  bool is_verification_run = false;
  IsVerificationResult is_verification;
  EvaluationCounts counts;   ///< evaluation counters at the end of the run
  double wall_seconds = 0.0;
};

/// Runs the optimization starting at the problem's nominal design.
YieldOptimizationResult optimize_yield(Evaluator& evaluator,
                                       const YieldOptimizerOptions& options = {});

}  // namespace mayo::core
