#include "core/is_verification.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/fan_out.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::StatUnitVec;

namespace detail {

void IsAccumulator::add(bool fail, double w) {
  MAYO_CHECK_FINITE(w, "importance_sample_verify: likelihood ratio");
  ++count;
  sum_w += w;
  sum_w2 += w * w;
  if (fail) {
    ++fails;
    sum_fw += w;
    sum_fw2 += w * w;
  }
}

void IsAccumulator::merge(const IsAccumulator& other) {
  count += other.count;
  fails += other.fails;
  sum_w += other.sum_w;
  sum_w2 += other.sum_w2;
  sum_fw += other.sum_fw;
  sum_fw2 += other.sum_fw2;
}

double IsAccumulator::ess() const {
  return sum_fw2 > 0.0 ? sum_fw * sum_fw / sum_fw2 : 0.0;
}

SpecIsEstimate finalize_estimate(std::size_t spec, const IsAccumulator& acc,
                                 double shift_norm,
                                 const IsVerificationOptions& options) {
  SpecIsEstimate estimate;
  estimate.spec = spec;
  estimate.samples = acc.count;
  estimate.fails = acc.fails;
  estimate.shift_norm = shift_norm;
  estimate.ess = acc.ess();
  if (acc.count == 0) {
    // No draws: no information.  Vacuous interval, no fallback.
    estimate.lower = 0.0;
    estimate.upper = 1.0;
    return estimate;
  }
  const double n = static_cast<double>(acc.count);
  if (!(estimate.ess > 0.0)) {
    // No failing draw (or every failing weight underflowed).  The Wilson
    // upper bound at the raw count caps the proposal-mass a miss could
    // hide, but each missed failure enters p_hat with its likelihood
    // ratio, and over the linearized failure half-space
    // {s_wc . s >= beta^2} the ratio is bounded:
    //   w(s) = exp(|mu|^2/2 - mu . s) <= exp(|mu|^2 (1/2 - 1/scale)),
    // which is exp(-beta^2/2) at the default shift_scale = 1.  Scaling
    // the Wilson bound by that cap keeps a far-out spec (beta large,
    // zero observed failures) from dominating the yield bracket -- the
    // one model-assisted step in the CI; see DESIGN.md section 13.  A
    // zero shift (or scale >= 2) degrades the cap to 1, i.e. back to
    // the assumption-free plain Wilson bound.
    estimate.fail_probability = 0.0;
    const stats::YieldInterval ci =
        stats::weighted_yield_confidence(0.0, n);
    double weight_cap = 1.0;
    if (options.shift_scale > 0.0 && shift_norm > 0.0)
      weight_cap = std::min(
          1.0, std::exp(shift_norm * shift_norm *
                        (0.5 - 1.0 / options.shift_scale)));
    estimate.lower = ci.lower;
    estimate.upper = std::min(1.0, ci.upper * weight_cap);
    return estimate;
  }

  // Degeneracy gauge: weight-effective count of FAILING draws.  (The
  // all-draws ESS decays like n e^{-beta^2} even for a healthy shift --
  // the big weights live where f = 0 and never touch p_hat -- so it
  // would misfire exactly in the high-beta regime.)
  estimate.self_normalized =
      estimate.ess < kIsEssFraction * static_cast<double>(acc.fails);

  const double p_unbiased = acc.sum_fw / n;
  // sum_w >= sum_fw > 0 in this branch, so the ratio is well defined.
  const double p_self = acc.sum_fw / acc.sum_w;
  const double p_raw = estimate.self_normalized ? p_self : p_unbiased;
  estimate.fail_probability = std::clamp(p_raw, 0.0, 1.0);

  // Variance of the chosen estimator's mean:
  //   unbiased:        Var = (1/n) * sample variance of the terms f w
  //   self-normalized: delta method,
  //                    Var = n * sum_j w_j^2 (f_j - p~)^2 / (sum w)^2.
  double var_mean;
  if (estimate.self_normalized) {
    const double resid = acc.sum_fw2 * (1.0 - p_self) * (1.0 - p_self) +
                         (acc.sum_w2 - acc.sum_fw2) * p_self * p_self;
    var_mean = n * std::max(resid, 0.0) / (acc.sum_w * acc.sum_w);
  } else {
    var_mean = std::max(acc.sum_fw2 / n - p_unbiased * p_unbiased, 0.0) / n;
  }

  // Wilson-analogue interval at the variance-matched effective count
  // n_eff = p (1 - p) / Var(p_hat); for unit weights this recovers the
  // plain Wilson interval at n exactly.  Degenerate variance (all terms
  // equal) or a clamped endpoint fall back to the raw count.
  const double p = estimate.fail_probability;
  double n_eff = n;
  if (var_mean > 0.0 && p > 0.0 && p < 1.0) n_eff = p * (1.0 - p) / var_mean;
  const stats::YieldInterval ci =
      stats::weighted_yield_confidence(p, n_eff);
  estimate.lower = std::min(ci.lower, p);
  estimate.upper = std::max(ci.upper, p);
  return estimate;
}

IsBlockEvaluator::IsBlockEvaluator(Evaluator& evaluator, std::size_t block_size)
    : evaluator_(evaluator),
      values_(std::max<std::size_t>(block_size, 1), evaluator.num_specs()) {}

void IsBlockEvaluator::run_block(const DesignVec& d, std::size_t spec,
                                 const OperatingVec& theta,
                                 const stats::ShiftedSampler& sampler,
                                 std::size_t first, std::size_t count,
                                 IsAccumulator& acc) {
  if (count == 0) return;
  const std::size_t num_specs = evaluator_.num_specs();
  if (values_.rows() < count)
    values_ = Matrixd(count, num_specs);  // hot-ok: grow-only, reused
  const linalg::StatUnitBlock block = sampler.samples().block(first, count);
  // One batch call at the spec's own worst-case corner (the per-spec
  // face of the corner-grouped path of detail::BlockVerifier), running
  // only the analysis that measures the spec.
  evaluator_.performances_batch(
      d, block, theta, evaluator_.spec_analyses(spec),
      linalg::PerfBlockView(MatrixView(values_).middle_rows(0, count)), ws_,
      Budget::kVerification);
  const Specification& spec_def = evaluator_.problem().specs[spec];
  // Accumulation stays in ascending sample order: together with the
  // fixed block-merge order of the round runner this makes the fold
  // independent of which worker ran which block.
  for (std::size_t r = 0; r < count; ++r) {
    const double value = values_(r, spec);
    MAYO_CHECK_FINITE(value, "importance_sample_verify: performance sample");
    acc.add(spec_def.margin(value) < 0.0, sampler.weight(first + r));
  }
  obs::Counters& tallies = obs::registry().counters;
  tallies.mc_is_blocks.add();
  tallies.mc_is_samples.add(count);
}

}  // namespace detail

namespace {

/// Runs one (spec, round) allocation: draws the round's sub-stream,
/// evaluates its blocks on the pool (block b on worker b % n) and folds
/// the per-block tallies into `total` in ascending block order -- the
/// merge sequence that makes every thread count bitwise equal.
void run_round(const DesignVec& d, std::size_t spec, std::uint64_t round_id,
               std::size_t count, const StatUnitVec& mu,
               const OperatingVec& theta, const IsVerificationOptions& options,
               WorkerPool& pool, detail::IsAccumulator& total) {
  const stats::ShiftedSampler sampler(
      count, mu, stats::substream_seed(options.seed, spec, round_id));
  const std::size_t block_size = std::max<std::size_t>(options.block_size, 1);
  const std::size_t num_blocks = (count + block_size - 1) / block_size;
  std::vector<detail::IsAccumulator> block_accs(num_blocks);

  // Each worker writes only its own slots of block_accs.
  pool.run(num_blocks, [&](unsigned w, unsigned n,
                           Evaluator& ev) {  // parallel-entry
    detail::IsBlockEvaluator engine(ev, block_size);
    for (std::size_t b = w; b < num_blocks; b += n) {
      const std::size_t first = b * block_size;
      engine.run_block(d, spec, theta, sampler, first,
                       std::min(block_size, count - first), block_accs[b]);
    }
  });

  for (std::size_t b = 0; b < num_blocks; ++b) total.merge(block_accs[b]);
}

}  // namespace

IsVerificationResult importance_sample_verify(
    Evaluator& evaluator, const DesignVec& d,
    const std::vector<OperatingVec>& theta_wc,
    const std::vector<StatUnitVec>& s_wc,
    const IsVerificationOptions& options) {
  const std::size_t num_specs = evaluator.num_specs();
  if (theta_wc.size() != num_specs)
    throw std::invalid_argument(
        "importance_sample_verify: theta_wc size mismatch");
  if (s_wc.size() != num_specs)
    throw std::invalid_argument("importance_sample_verify: s_wc size mismatch");
  if (options.initial_samples == 0)
    throw std::invalid_argument(
        "importance_sample_verify: initial_samples must be positive (an "
        "empty round carries no estimate for the allocator to refine)");
  if (options.max_rounds > 0 && options.round_samples == 0)
    throw std::invalid_argument(
        "importance_sample_verify: round_samples must be positive when "
        "adaptive rounds are enabled");
  for (const StatUnitVec& point : s_wc)
    if (point.size() != evaluator.num_statistical())
      throw std::invalid_argument(
          "importance_sample_verify: s_wc dimension mismatch");
  const obs::Span span(obs::registry().phases.is_verification);

  // Per-spec proposal means mu_i = shift_scale * s_wc_i.
  std::vector<StatUnitVec> mu;
  mu.reserve(num_specs);
  for (const StatUnitVec& point : s_wc) mu.push_back(point * options.shift_scale);

  const std::size_t evals_before = evaluator.counts().verification;
  // One pool for every round: workers are cloned the first time a round
  // has blocks for them and keep their caches across rounds.
  WorkerPool pool(evaluator, options.threads);

  std::vector<detail::IsAccumulator> totals(num_specs);
  std::vector<SpecIsEstimate> estimates(num_specs);
  obs::Counters& tallies = obs::registry().counters;

  // Round 0: every spec gets its initial allocation (sub-stream
  // (spec, 0)).
  for (std::size_t i = 0; i < num_specs; ++i) {
    run_round(d, i, 0, options.initial_samples, mu[i], theta_wc[i], options,
              pool, totals[i]);
    estimates[i] =
        detail::finalize_estimate(i, totals[i], mu[i].norm(), options);
  }

  // Adaptive rounds: spend each round's budget on the spec with the
  // widest failure CI (ties -> lowest index; sub-stream (spec, r)).
  std::size_t rounds = 0;
  for (std::size_t r = 1; r <= options.max_rounds; ++r) {
    std::size_t widest = 0;
    for (std::size_t i = 1; i < num_specs; ++i)
      if (estimates[i].half_width() > estimates[widest].half_width())
        widest = i;
    if (options.target_half_width > 0.0 &&
        estimates[widest].half_width() <= options.target_half_width)
      break;
    run_round(d, widest, r, options.round_samples, mu[widest],
              theta_wc[widest], options, pool, totals[widest]);
    estimates[widest] = detail::finalize_estimate(widest, totals[widest],
                                                  mu[widest].norm(), options);
    ++rounds;
    tallies.mc_is_rounds.add();
  }

  IsVerificationResult result;
  result.rounds = rounds;
  result.per_spec = std::move(estimates);
  double sum_p = 0.0;
  double sum_upper = 0.0;
  double max_lower = 0.0;
  for (const SpecIsEstimate& estimate : result.per_spec) {
    sum_p += estimate.fail_probability;
    sum_upper += estimate.upper;
    max_lower = std::max(max_lower, estimate.lower);
    if (estimate.self_normalized) tallies.mc_is_ess_fallbacks.add();
  }
  result.yield = std::clamp(1.0 - sum_p, 0.0, 1.0);
  result.confidence = {result.yield, std::clamp(1.0 - sum_upper, 0.0, 1.0),
                       std::clamp(1.0 - max_lower, 0.0, 1.0)};
  result.evaluations = evaluator.counts().verification - evals_before;
  return result;
}

}  // namespace mayo::core
