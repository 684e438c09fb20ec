// mayo/core -- counting, caching evaluator with the s_hat transform.
//
// All algorithm layers access the performance model exclusively through
// this class.  It
//   * applies the variable-covariance transform s = G(d) s_hat + s0 of
//     paper eq. (11), so callers work in standard-normal s_hat coordinates
//     and the design-dependence of C(d) is folded into the performance
//     function f_hat (eq. 12-14),
//   * converts performance values to specification margins,
//   * memoizes evaluations (bitwise-identical arguments), so repeated
//     probes of the same point -- nominal margins, worst-case starts,
//     mismatch analysis reusing worst-case points -- cost nothing, and
//   * counts true model evaluations, split into optimization and
//     verification budgets (paper Table 7).
//
// Batch path: performances_batch / margins_batch evaluate a whole block of
// s_hat rows through one PerformanceModel::evaluate_batch_analyses call,
// applying the covariance transform block-wise and reusing caller-owned
// workspace so the hot path performs no per-sample heap allocation.  Cache
// and counter semantics are identical to the scalar loop: every row is
// probed against the cache, duplicate rows within a block count as cache
// hits and are simulated once, and every distinct miss is charged to the
// given budget.
//
// Analysis-aware evaluation: a model may split its performances over
// several analyses (PerformanceModel::analysis_of, e.g. an AC and a
// transient testbench).  Every cached row carries the mask of analyses it
// holds.  margin(spec), the per-spec gradients and every caller that reads
// one spec request only that spec's analysis; a performances_batch call
// requests the mask its caller passes (the verifiers pass the analyses of
// the specs they read); performances(), margins() and margins_batch
// request all of them.  A cached row missing some requested analyses is
// completed in place: only the missing analyses run, the row keeps its
// FIFO slot, and the probe counts as a cache hit.
// EvaluationCounts therefore keep their meaning -- distinct (d, s_hat,
// theta) points simulated -- whatever the mix of requests.  A model with
// the default single analysis sees exactly the historical call sequence.
//
// Purity contract: a model evaluation must be a pure function of
// (d, s, theta).  Models may keep reusable state -- per-(d, theta) design
// contexts with warm-start seeds, the stamp-once AC session of
// sim::AcSession, the in-place LU workspaces of the Newton loops -- but
// all of it is either a pure function of the arguments or pure cost
// (buffers that are fully rewritten before use).  That is what lets the
// cache, the batch spine and the parallel map return bitwise-identical
// results regardless of evaluation order, block size or thread count.  It
// extends to analyses: an analysis's entries may not depend on which other
// analyses ran before or alongside it (so a model with several analyses
// also reports a non-converged analysis on its own entries only), which
// is what makes a completed row equal to a row evaluated in one go.
#pragma once

#include <cstddef>
#include <vector>

#include "core/probe_cache.hpp"
#include "core/problem.hpp"
#include "linalg/matrix.hpp"
#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"

namespace mayo::core {

/// Simulation counters (one count per PerformanceModel::evaluate call).
struct EvaluationCounts {
  std::size_t optimization = 0;  ///< evaluations charged to the optimizer
  std::size_t verification = 0;  ///< evaluations charged to MC verification
  std::size_t constraint = 0;    ///< constraint evaluations c(d)
  std::size_t cache_hits = 0;
  std::size_t total() const { return optimization + verification + constraint; }
};

/// Budget a model evaluation is charged to.
enum class Budget { kOptimization, kVerification };

/// Forward-difference step of the gradients w.r.t. s_hat (sigma units).
inline constexpr double kSHatStep = 5e-2;

/// Caller-owned scratch for the batch evaluation path.  Buffers grow on
/// first use and are reused across blocks; after warm-up a batch call
/// performs no heap allocation.  A workspace is not thread-safe: use one
/// per worker (alongside its Evaluator).
struct EvalWorkspace {
  linalg::Matrixd s_hat_miss;  ///< distinct cache-miss rows, s_hat space
  linalg::Matrixd physical;    ///< the same rows after s = G(d) s_hat + s0
  linalg::Matrixd values;      ///< model performances for the miss rows
  linalg::Vector sigma;        ///< sigma(d) scratch for to_physical_block
  ProbeCache::Key key;         ///< reusable key-building buffer
  std::vector<ProbeCache::Key> miss_keys;   ///< keys of distinct misses
  std::vector<std::size_t> miss_rows;       ///< block row of each miss
  std::vector<std::ptrdiff_t> row_source;   ///< per block row: -1 = served
                                            ///< from cache, else miss index
};

class Evaluator {
 public:
  /// The problem must outlive the evaluator.  Throws via validate().
  /// `cache_capacity` bounds the evaluation cache with deterministic FIFO
  /// eviction (0 = unlimited, the historical behaviour).
  explicit Evaluator(YieldProblem& problem, std::size_t cache_capacity = 0);

  const YieldProblem& problem() const { return problem_; }
  std::size_t num_specs() const { return problem_.specs.size(); }
  std::size_t num_statistical() const { return problem_.statistical.dimension(); }
  std::size_t num_design() const { return problem_.design.dimension(); }
  std::size_t num_operating() const { return problem_.operating.dimension(); }

  /// Raw performance values f_hat(d, s_hat, theta) (eq. 14).
  linalg::PerfVec performances(const linalg::DesignVec& d,
                               const linalg::StatUnitVec& s_hat,
                               const linalg::OperatingVec& theta,
                               Budget budget = Budget::kOptimization);

  /// All specification margins at (d, s_hat, theta).
  linalg::MarginVec margins(const linalg::DesignVec& d,
                            const linalg::StatUnitVec& s_hat,
                            const linalg::OperatingVec& theta,
                            Budget budget = Budget::kOptimization);

  /// Margin of one specification.  Runs only the spec's analysis.
  double margin(std::size_t spec, const linalg::DesignVec& d,
                const linalg::StatUnitVec& s_hat,
                const linalg::OperatingVec& theta,
                Budget budget = Budget::kOptimization);

  /// Batch form of performances(): row j of `out` receives
  /// f_hat(d, s_hat_block.row(j), theta).  `out` must be
  /// s_hat_block.rows() x num_specs().  Results, cache contents and
  /// counters end up exactly as if the rows had been evaluated one by one
  /// through performances() in ascending row order.
  void performances_batch(const linalg::DesignVec& d,
                          linalg::StatUnitBlock s_hat_block,
                          const linalg::OperatingVec& theta,
                          linalg::PerfBlockView out, EvalWorkspace& ws,
                          Budget budget = Budget::kOptimization) {
    performances_batch(d, s_hat_block, theta, all_analyses_, out, ws, budget);
  }

  /// performances_batch() for the analyses in `analyses` only: the entries
  /// of the specs they measure are exact, the others are unspecified.
  /// Misses run and cache only the requested analyses, and a cached row
  /// lacking some of them is completed in place as a cache hit, as on the
  /// scalar path.  Throws std::invalid_argument on an empty mask or one
  /// naming an analysis no spec reads.
  void performances_batch(const linalg::DesignVec& d,
                          linalg::StatUnitBlock s_hat_block,
                          const linalg::OperatingVec& theta,
                          AnalysisMask analyses, linalg::PerfBlockView out,
                          EvalWorkspace& ws,
                          Budget budget = Budget::kOptimization);

  /// Batch form of margins(): performances_batch followed by the in-place
  /// per-spec margin transform of every row.
  void margins_batch(const linalg::DesignVec& d,
                     linalg::StatUnitBlock s_hat_block,
                     const linalg::OperatingVec& theta,
                     linalg::MarginBlockView out, EvalWorkspace& ws,
                     Budget budget = Budget::kOptimization);

  /// Functional constraint values c(d) (cached like performances).
  linalg::Vector constraints(const linalg::DesignVec& d);

  /// Gradient of one spec's margin w.r.t. s_hat (forward differences of
  /// step kSHatStep, reusing the base evaluation; n_s extra evaluations).
  /// A gradient w.r.t. s_hat is itself a direction in StatUnit space.
  linalg::StatUnitVec margin_gradient_s(std::size_t spec,
                                        const linalg::DesignVec& d,
                                        const linalg::StatUnitVec& s_hat,
                                        const linalg::OperatingVec& theta);

  /// Gradients of ALL specs' margins w.r.t. s_hat in one pass (shares the
  /// finite-difference evaluations across specs; the base point and the
  /// n_s forward probes run as one batch).  Row i = spec i (each row a
  /// StatUnit direction; returned untyped for linalg interop).
  linalg::Matrixd margin_gradients_s(const linalg::DesignVec& d,
                                     const linalg::StatUnitVec& s_hat,
                                     const linalg::OperatingVec& theta);

  /// Gradient of one spec's margin w.r.t. d.  Steps are 1e-3 of each
  /// design-space range (upper - lower), taken inward at the upper bound.
  linalg::DesignVec margin_gradient_d(std::size_t spec,
                                      const linalg::DesignVec& d,
                                      const linalg::StatUnitVec& s_hat,
                                      const linalg::OperatingVec& theta);

  /// Jacobian of the constraints w.r.t. d (forward differences, the steps
  /// of margin_gradient_d).
  linalg::Matrixd constraint_jacobian(const linalg::DesignVec& d);

  /// Analysis that measures spec `spec`, as a mask (one bit).
  AnalysisMask spec_analyses(std::size_t spec) const {
    return spec_analysis_.at(spec);
  }

  /// Zero vector in s_hat space (the nominal statistical point).  With the
  /// sampler, one of the two places allowed to mint StatUnit values.
  linalg::StatUnitVec nominal_s_hat() const {
    return linalg::StatUnitVec(num_statistical());
  }
  /// Nominal operating point.
  linalg::OperatingVec nominal_theta() const {
    return linalg::OperatingVec(problem_.operating.nominal);
  }

  const EvaluationCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = {}; }
  /// Adds another evaluator's counts (a worker's, see core/fan_out.hpp)
  /// so budget reports stay complete.
  void absorb(const EvaluationCounts& other) {
    counts_.optimization += other.optimization;
    counts_.verification += other.verification;
    counts_.constraint += other.constraint;
    counts_.cache_hits += other.cache_hits;
  }
  /// Number of memoized evaluation results currently held.
  std::size_t cache_size() const { return cache_.size(); }
  /// Drops all memoized results (use between experiments).
  void clear_cache();

 private:
  /// One memoized point: performances in spec order plus the analyses
  /// they came from (entries of other analyses are zero, never read).
  struct CachedRow {
    linalg::Vector values;
    AnalysisMask analyses = 0;
  };

  linalg::Vector evaluate_physical(const linalg::DesignVec& d,
                                   const linalg::StatUnitVec& s_hat,
                                   const linalg::OperatingVec& theta,
                                   Budget budget, AnalysisMask wanted);
  /// One model call for `analyses` at physical s; zeroes the entries of
  /// other analyses and checks the rest are finite.
  linalg::Vector run_model(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta,
                           AnalysisMask analyses);
  /// Runs the analyses in `missing` for a cached row and merges them in.
  void complete_row(CachedRow& row, const linalg::DesignVec& d,
                    const linalg::StatUnitVec& s_hat,
                    const linalg::OperatingVec& theta, AnalysisMask missing);
  void charge(Budget budget);
  void validate_point(const linalg::DesignVec& d,
                      const linalg::OperatingVec& theta,
                      std::size_t s_hat_size) const;

  YieldProblem& problem_;
  EvaluationCounts counts_;
  std::vector<AnalysisMask> spec_analysis_;  ///< analysis bit of each spec
  AnalysisMask all_analyses_ = 0;            ///< union of spec_analysis_
  BasicProbeCache<CachedRow> cache_;
  ProbeCache constraint_cache_;  ///< keyed by d alone; always unbounded
  ProbeCache::Key scalar_key_;   ///< scratch for the scalar probe path
  // Workspace for the shared finite-difference block in
  // margin_gradients_s (base row + n_s probe rows).
  EvalWorkspace grad_ws_;
  linalg::Matrixd grad_points_;
  linalg::Matrixd grad_margins_;
};

}  // namespace mayo::core
