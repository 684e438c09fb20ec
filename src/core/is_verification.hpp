// mayo/core -- variance-reduced Monte-Carlo yield verification:
// worst-case mean-shift importance sampling with adaptive per-spec
// sample budgets (see DESIGN.md section 13).
//
// Plain MC (core/verification.hpp, eq. 6-7) spends N(0, I) samples on
// failure events that become exponentially rare as the optimizer pushes
// every worst-case distance beta_i outwards.  The worst-case point
// s_wc_i of eq. (8) is the most probable failure realization of spec i;
// shifting the sampler there (proposal N(s_wc_i, I)) and correcting
// every draw by the exact likelihood ratio
// w(s) = exp(mu^T mu / 2 - mu^T s) puts about half of the samples on
// the failing side of the spec boundary regardless of beta.  For a
// locally linear margin the variance ratio against plain MC is
//
//   Var_MC / Var_IS
//     = Phi(-b) (1 - Phi(-b)) / (e^{b^2} Phi(-2b) - Phi(-b)^2) ,
//
// about 5x at beta ~ 1.3 and beyond 200x at beta ~ 3.
//
// Per-spec estimators of the failure probability
// p_i = P(margin_i(d, s, theta_wc_i) < 0):
//
//   unbiased LR:      p_hat   = (1/N) sum_j f_j w_j   (f_j = 1{fail})
//   self-normalized:  p_tilde = sum_j f_j w_j / sum_j w_j
//
// The self-normalized form (consistent, O(1/N) bias, bounded by
// construction) replaces the unbiased one when the weights degenerate.
// The degeneracy gauge is the FAILURE-restricted effective sample size
// ESS_f = (sum_f w)^2 / sum_f w^2 compared against the failing-draw
// count: the all-draws ESS (sum w)^2 / sum w^2 decays like N e^{-b^2}
// for a shift of norm b even when the estimator is healthy (the large
// weights sit exactly where f = 0 and never enter p_hat), so it would
// misfire in the high-beta regime this verifier exists for.  The
// confidence interval is the 95% Wilson-analogue
// (stats::weighted_yield_confidence) at the variance-matched effective
// count n_eff = p (1 - p) / Var(p_hat), where Var(p_hat) is the sample
// variance of the weighted estimator terms -- for unit weights this is
// exactly the plain Wilson interval.  The interval is widened where
// necessary to cover the reported point estimate.
//
// Yield bracket: the per-spec failure CIs combine through the Frechet
// bounds  max_i p_i <= P(any spec fails) <= sum_i p_i,  giving the
// interval [1 - sum_i upper_i, 1 - max_i lower_i] without any
// independence assumption.  In the high-yield regime the verifier is
// for (every p_i small) the bracket is tight; in the low-yield regime
// plain MC is the better tool (see the README "Verification modes"
// table).
//
// Adaptive allocation: round 0 spends initial_samples on every spec;
// each later round spends round_samples on the spec with the widest
// failure CI (ties -> lowest spec index).  Every (spec, round) pair
// draws its own deterministic RNG sub-stream
// (stats::substream_seed(seed, spec, round)), and per-block partial
// sums merge in ascending block order, so the estimates, the CIs and
// therefore the entire allocation sequence are bitwise identical across
// serial/parallel execution and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "stats/shifted_sampler.hpp"
#include "stats/summary.hpp"

namespace mayo::core {

/// Self-normalized fallback threshold: a spec switches to p_tilde when
/// its ESS_f < kIsEssFraction * (failing draws).
inline constexpr double kIsEssFraction = 0.2;

struct IsVerificationOptions {
  std::size_t initial_samples = 64;  ///< round-0 samples per spec (> 0)
  std::size_t round_samples = 64;    ///< budget per adaptive round
  std::size_t max_rounds = 16;       ///< adaptive rounds after round 0
  /// Early stop: end the adaptive loop once every spec's failure-CI
  /// half-width is at or below this (0 = spend all rounds).
  double target_half_width = 0.0;
  std::uint64_t seed = 0xC0FFEE;
  /// Samples per batch evaluation (throughput knob, like
  /// VerificationOptions::block_size).  Also the grouping of the weighted
  /// partial sums: results are bitwise identical across thread counts for
  /// a FIXED block size, but different block sizes regroup the floating
  /// sums and may differ in the last ulp.
  std::size_t block_size = 32;
  /// Proposal mean mu_i = shift_scale * s_wc_i.  1.0 is the classic
  /// worst-case mean shift; larger values are useful only to provoke
  /// the ESS fallback (kIsEssFraction) in tests.
  double shift_scale = 1.0;
  /// Worker threads (core/fan_out.hpp): 1 = serial, 0 = hardware
  /// concurrency.  Results are bitwise identical for every thread count;
  /// only evaluation-cache hit patterns (and hence eval counts) can
  /// differ, because workers start with cold caches.
  unsigned threads = 1;
};

/// Importance-sampled failure estimate of one specification.
struct SpecIsEstimate {
  std::size_t spec = 0;
  double fail_probability = 0.0;  ///< point estimate of p_i
  double lower = 0.0;             ///< CI lower bound on p_i
  double upper = 0.0;             ///< CI upper bound on p_i
  std::size_t samples = 0;        ///< IS samples spent on this spec
  std::size_t fails = 0;          ///< raw failing draws (unweighted)
  /// Failure-restricted effective sample size
  /// (sum_f w)^2 / sum_f w^2 -- the weight-effective number of failing
  /// draws behind the estimate (0 when none fail).
  double ess = 0.0;
  bool self_normalized = false;   ///< ESS fallback triggered
  double shift_norm = 0.0;        ///< ||mu_i|| of the proposal

  double half_width() const { return 0.5 * (upper - lower); }
};

struct IsVerificationResult {
  double yield = 0.0;  ///< 1 - sum_i p_i, clamped to [0, 1]
  /// Frechet bracket combined from the per-spec CIs:
  /// [1 - sum_i upper_i, 1 - max_i lower_i], clamped to [0, 1].
  stats::YieldInterval confidence{};
  std::vector<SpecIsEstimate> per_spec;  ///< index = spec
  std::size_t evaluations = 0;  ///< model evaluations spent (all workers)
  std::size_t rounds = 0;       ///< adaptive rounds run (round 0 excluded)
};

/// Runs the importance-sampled verification at design d.  `theta_wc` and
/// `s_wc` give the worst-case operating point and worst-case statistical
/// point of every spec (index = spec; both must have num_specs entries)
/// -- exactly what build_linearizations already computed, reused at no
/// extra simulation cost.
IsVerificationResult importance_sample_verify(
    Evaluator& evaluator, const linalg::DesignVec& d,
    const std::vector<linalg::OperatingVec>& theta_wc,
    const std::vector<linalg::StatUnitVec>& s_wc,
    const IsVerificationOptions& options = {});

namespace detail {

/// Weighted per-spec tallies of one sample block (or the running merge
/// of many).  Plain double sums -- not Welford -- so that merging block
/// accumulators in ascending block order reproduces the serial fold bit
/// for bit regardless of which worker ran which block.
struct IsAccumulator {
  std::size_t count = 0;
  std::size_t fails = 0;
  double sum_w = 0.0;    ///< sum of w_j over all draws
  double sum_w2 = 0.0;   ///< sum of w_j^2 over all draws
  double sum_fw = 0.0;   ///< sum of w_j over failing draws
  double sum_fw2 = 0.0;  ///< sum of w_j^2 over failing draws

  void add(bool fail, double w);
  /// Folds `other` onto this accumulator.  Merge order is part of the
  /// determinism contract: callers merge in ascending block order.
  void merge(const IsAccumulator& other);
  /// Failure-restricted effective sample size
  /// (sum_fw)^2 / sum_fw2; 0 when no draw failed (or the failing
  /// weights all underflowed).
  double ess() const;
};

/// Turns a spec's accumulated tallies into the estimate + Wilson-analogue
/// CI (pure function; shared by the allocator loop and the final result
/// assembly so both see identical numbers).  With zero observed failures
/// the upper bound is the Wilson bound scaled by the likelihood-ratio cap
/// exp(|mu|^2 (1/2 - 1/shift_scale)) over the linearized failure
/// half-space -- the one model-assisted step in the CI, without which a
/// far-out spec (beta large, no failures at any affordable budget) would
/// dominate the Frechet yield bracket.
SpecIsEstimate finalize_estimate(std::size_t spec, const IsAccumulator& acc,
                                 double shift_norm,
                                 const IsVerificationOptions& options);

/// Block-evaluation engine of the IS verifier: evaluates shifted-sample
/// blocks through the Evaluator batch path (the corner-grouped spine of
/// verification.hpp, one corner per spec, running only the spec's
/// analysis) and folds (fail, weight) pairs
/// into an IsAccumulator in ascending sample order.  Not thread-safe;
/// each worker owns one engine per round.
class IsBlockEvaluator {
 public:
  IsBlockEvaluator(Evaluator& evaluator, std::size_t block_size);

  /// Evaluates samples [first, first + count) of `sampler` at `theta`
  /// and accumulates spec `spec`'s failures into `acc`.
  void run_block(const linalg::DesignVec& d, std::size_t spec,
                 const linalg::OperatingVec& theta,
                 const stats::ShiftedSampler& sampler, std::size_t first,
                 std::size_t count, IsAccumulator& acc);

 private:
  Evaluator& evaluator_;
  EvalWorkspace ws_;
  linalg::Matrixd values_;  ///< per-block performance values (row = sample)
};

}  // namespace detail

}  // namespace mayo::core
