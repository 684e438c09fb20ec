#include "core/verification.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"
#include "core/fan_out.hpp"
#include "obs/obs.hpp"
#include "stats/sampler.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::Vector;

namespace detail {

BlockVerifier::BlockVerifier(Evaluator& evaluator,
                             const CornerGrouping& grouping,
                             std::size_t block_size)
    : evaluator_(evaluator), grouping_(grouping) {
  const std::size_t num_specs = evaluator.num_specs();
  corner_values_.reserve(grouping.distinct.size());
  for (std::size_t g = 0; g < grouping.distinct.size(); ++g)
    corner_values_.emplace_back(std::max<std::size_t>(block_size, 1),
                                num_specs);
  // A corner runs only the analyses its own specs read: at a corner that
  // no slew-rate spec names, the transient bench never runs.
  corner_analyses_.assign(grouping.distinct.size(), 0);
  for (std::size_t i = 0; i < num_specs; ++i)
    corner_analyses_[grouping.group_of_spec[i]] |= evaluator.spec_analyses(i);
  fails_per_spec_.assign(num_specs, 0);
  perf_stats_.resize(num_specs);
}

void BlockVerifier::run_block(const DesignVec& d,
                              const stats::SampleSet& samples,
                              std::size_t first, std::size_t count,
                              std::vector<std::uint8_t>* sample_pass) {
  if (count == 0) return;
  const std::size_t num_specs = evaluator_.num_specs();
  const linalg::StatUnitBlock block = samples.block(first, count);
  // Corner-major evaluation: one batch call per distinct operating corner
  // (eq. 6-7; evaluations shared between specs of a corner group).
  for (std::size_t g = 0; g < grouping_.distinct.size(); ++g) {
    Matrixd& values = corner_values_[g];
    if (values.rows() < count)
      values = Matrixd(count, num_specs);  // hot-ok: grow-only, reused
    evaluator_.performances_batch(
        d, block, grouping_.distinct[g], corner_analyses_[g],
        linalg::PerfBlockView(MatrixView(values).middle_rows(0, count)), ws_,
        Budget::kVerification);
  }
  // Accumulation stays sample-major in ascending order so the running
  // statistics fold values in exactly the scalar loop's sequence.
  const auto& specs = evaluator_.problem().specs;
  for (std::size_t r = 0; r < count; ++r) {
    bool pass = true;
    for (std::size_t i = 0; i < num_specs; ++i) {
      const double value = corner_values_[grouping_.group_of_spec[i]](r, i);
      MAYO_CHECK_FINITE(value, "monte_carlo_verify: performance sample");
      perf_stats_[i].add(value);
      if (specs[i].margin(value) < 0.0) {
        ++fails_per_spec_[i];
        pass = false;
      }
    }
    passing_ += pass ? 1 : 0;
    if (sample_pass != nullptr) (*sample_pass)[first + r] = pass ? 1 : 0;
  }
  obs::Counters& tallies = obs::registry().counters;
  tallies.mc_blocks.add();
  tallies.mc_samples.add(count);
}

}  // namespace detail

namespace {

/// One worker's share of the verification, merged in worker order.
struct WorkerTally {
  std::size_t passing = 0;
  std::vector<std::size_t> fails_per_spec;
  std::vector<stats::RunningStats> perf_stats;
};

}  // namespace

CornerGrouping group_corners(const std::vector<OperatingVec>& theta_wc) {
  CornerGrouping grouping;
  grouping.group_of_spec.resize(theta_wc.size());
  for (std::size_t i = 0; i < theta_wc.size(); ++i) {
    bool found = false;
    for (std::size_t g = 0; g < grouping.distinct.size(); ++g) {
      if (grouping.distinct[g] == theta_wc[i]) {
        grouping.group_of_spec[i] = g;
        found = true;
        break;
      }
    }
    if (!found) {
      grouping.group_of_spec[i] = grouping.distinct.size();
      grouping.distinct.push_back(theta_wc[i]);
    }
  }
  return grouping;
}

VerificationResult monte_carlo_verify(
    Evaluator& evaluator, const DesignVec& d,
    const std::vector<OperatingVec>& theta_wc,
    const VerificationOptions& options) {
  const std::size_t num_specs = evaluator.num_specs();
  if (theta_wc.size() != num_specs)
    throw std::invalid_argument("monte_carlo_verify: theta_wc size mismatch");
  if (options.num_samples == 0)
    throw std::invalid_argument(
        "monte_carlo_verify: num_samples must be positive (a zero-sample "
        "run has no yield estimate and would divide by zero)");
  const obs::Span span(obs::registry().phases.verification);

  const CornerGrouping grouping = group_corners(theta_wc);

  const stats::SampleSet samples(options.num_samples,
                                 evaluator.num_statistical(), options.seed);

  VerificationResult result;
  if (options.record_decisions) result.sample_pass.assign(samples.count(), 0);
  const std::size_t evals_before = evaluator.counts().verification;

  // Block b goes to worker b % n.  Each worker folds its blocks in
  // ascending order into its own verifier, writes only its blocks' slots
  // of sample_pass, and leaves its tallies in slot w (n <= num_blocks).
  const std::size_t block_size = std::max<std::size_t>(options.block_size, 1);
  const std::size_t num_blocks =
      (samples.count() + block_size - 1) / block_size;
  std::vector<WorkerTally> tallies(num_blocks);
  WorkerPool pool(evaluator, options.threads);
  pool.run(num_blocks, [&](unsigned w, unsigned n,
                           Evaluator& ev) {  // parallel-entry
    detail::BlockVerifier verifier(ev, grouping, block_size);
    for (std::size_t b = w; b < num_blocks; b += n) {
      const std::size_t first = b * block_size;
      verifier.run_block(d, samples, first,
                         std::min(block_size, samples.count() - first),
                         options.record_decisions ? &result.sample_pass
                                                  : nullptr);
    }
    tallies[w] = {verifier.passing(), verifier.fails_per_spec(),
                  verifier.perf_stats()};
  });

  // Deterministic merge in worker order (slots of no worker are empty).
  // A lone worker's statistics are copied, so the serial run reports its
  // own fold bit for bit.
  result.fails_per_spec.assign(num_specs, 0);
  std::vector<stats::RunningStats> merged(num_specs);
  std::size_t passing = 0;
  for (const WorkerTally& tally : tallies) {
    passing += tally.passing;
    for (std::size_t i = 0; i < tally.perf_stats.size(); ++i) {
      result.fails_per_spec[i] += tally.fails_per_spec[i];
      merged[i].merge(tally.perf_stats[i]);
    }
  }
  result.yield = static_cast<double>(passing) / samples.count();
  result.confidence = stats::yield_confidence(passing, samples.count());
  result.performance_mean.resize(num_specs);
  result.performance_stddev.resize(num_specs);
  for (std::size_t i = 0; i < num_specs; ++i) {
    result.performance_mean[i] = merged[i].mean();
    result.performance_stddev[i] = merged[i].stddev();
  }
  result.evaluations = evaluator.counts().verification - evals_before;
  return result;
}

}  // namespace mayo::core
