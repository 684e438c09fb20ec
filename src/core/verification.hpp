// mayo/core -- simulation-based Monte-Carlo yield verification
// (paper eq. 6-7).
//
// The true parametric operational yield estimate: N standard-normal
// samples, each evaluated with real model evaluations at the respective
// worst-case operating point of every specification.  Evaluations are
// shared between specifications with the same theta_wc, which implements
// the paper's N* <= N * min(n_spec, 2^dim(Theta)) bound.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "stats/sampler.hpp"
#include "stats/summary.hpp"

namespace mayo::core {

struct VerificationOptions {
  std::size_t num_samples = 300;
  std::uint64_t seed = 0xC0FFEE;
  /// Record the pass/fail decision of every sample in
  /// VerificationResult::sample_pass (index = sample).  Off by default:
  /// only aggregate counts are kept.
  bool record_decisions = false;
  /// Samples per batch evaluation.  Purely a throughput knob: results are
  /// bitwise-identical for every block size (the batch path evaluates each
  /// row exactly like a scalar probe, and per-sample statistics are always
  /// accumulated in ascending sample order).
  std::size_t block_size = 32;
  /// Worker threads (core/fan_out.hpp): 1 = serial, 0 = hardware
  /// concurrency.  Decisions and pass/fail counts are identical for every
  /// thread count.  Workers' moments merge in worker order (last-ulp
  /// differences), and workers start with cold caches (evaluation counts
  /// can differ where the caller's cache was warm).
  unsigned threads = 1;
};

struct VerificationResult {
  double yield = 0.0;                     ///< fraction of passing samples
  stats::YieldInterval confidence{};      ///< Wilson 95% interval
  std::vector<std::size_t> fails_per_spec;///< samples failing each spec
  /// Per-spec sample mean of the performance value (at theta_wc of the spec).
  std::vector<double> performance_mean;
  /// Per-spec sample standard deviation of the performance value.
  std::vector<double> performance_stddev;
  std::size_t evaluations = 0;            ///< model evaluations spent
  /// Per-sample pass decision (only with record_decisions; else empty).
  /// Identical for every thread count by construction.
  std::vector<std::uint8_t> sample_pass;
};

/// Groups specifications by identical worst-case operating point so one
/// evaluation serves all specs of a group (the paper's N* discussion).
struct CornerGrouping {
  std::vector<linalg::OperatingVec> distinct;  ///< unique operating points
  std::vector<std::size_t> group_of_spec;      ///< spec -> index into distinct
};
CornerGrouping group_corners(const std::vector<linalg::OperatingVec>& theta_wc);

/// Runs the verification at design d with the given per-spec worst-case
/// operating points (index = spec).
VerificationResult monte_carlo_verify(
    Evaluator& evaluator, const linalg::DesignVec& d,
    const std::vector<linalg::OperatingVec>& theta_wc,
    const VerificationOptions& options = {});

namespace detail {

/// Block-evaluation engine of the verifier: evaluates sample blocks
/// corner-major through the Evaluator batch path, each corner for the
/// analyses of its own specs only, and folds per-sample
/// pass/fail decisions and performance statistics into its accumulators
/// in ascending sample order.  Every worker runs the exact same code per
/// sample, so decisions are identical for any thread count by
/// construction.  Not thread-safe; each worker owns one verifier.
class BlockVerifier {
 public:
  /// `evaluator` and `grouping` must outlive the verifier.  `block_size`
  /// pre-sizes the per-corner value buffers.
  BlockVerifier(Evaluator& evaluator, const CornerGrouping& grouping,
                std::size_t block_size);

  /// Evaluates samples [first, first + count) against every distinct
  /// corner and accumulates them in ascending sample order.  When
  /// `sample_pass` is non-null, per-sample decisions are written at their
  /// absolute sample indices.
  void run_block(const linalg::DesignVec& d, const stats::SampleSet& samples,
                 std::size_t first, std::size_t count,
                 std::vector<std::uint8_t>* sample_pass);

  std::size_t passing() const { return passing_; }
  const std::vector<std::size_t>& fails_per_spec() const {
    return fails_per_spec_;
  }
  const std::vector<stats::RunningStats>& perf_stats() const {
    return perf_stats_;
  }

 private:
  Evaluator& evaluator_;
  const CornerGrouping& grouping_;
  EvalWorkspace ws_;
  /// Per-corner performance values of the current block (row = sample).
  std::vector<linalg::Matrixd> corner_values_;
  /// Per-corner union of the analyses its specs read.
  std::vector<AnalysisMask> corner_analyses_;
  std::size_t passing_ = 0;
  std::vector<std::size_t> fails_per_spec_;
  std::vector<stats::RunningStats> perf_stats_;
};

}  // namespace detail

}  // namespace mayo::core
