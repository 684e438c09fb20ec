#include "core/is_verification.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "stats/normal.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

// Worst-case points of the synthetic problem at d = (2, 1) (see
// synthetic_problem.hpp): linear spec s_wc = (0.4, 0.8, 0) at theta = 1,
// quadratic spec s_wc = (0, u/2, -u/2) with u = sqrt(6).
std::vector<OperatingVec> synthetic_theta_wc() {
  return {OperatingVec{1.0}, OperatingVec{0.0}};
}

std::vector<StatUnitVec> synthetic_s_wc() {
  const double half_u = 0.5 * std::sqrt(6.0);
  return {StatUnitVec{0.4, 0.8, 0.0}, StatUnitVec{0.0, half_u, -half_u}};
}

TEST(IsVerification, CoversAnalyticFailureProbabilityOfLinearSpec) {
  // Disable the quadratic spec so the linear one (single failure
  // half-space, exactly the regime mean-shift IS is built for) carries
  // the analytic comparison: p0 = 1 - Phi(2 / sqrt(5)).
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  problem.specs[1].bound = -1e9;
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 256;
  options.round_samples = 128;
  options.max_rounds = 4;
  const IsVerificationResult result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);

  const double p0 = 1.0 - stats::normal_cdf(2.0 / std::sqrt(5.0));
  ASSERT_EQ(result.per_spec.size(), 2u);
  const SpecIsEstimate& lin = result.per_spec[0];
  EXPECT_NEAR(lin.fail_probability, p0, 0.05);
  EXPECT_LE(lin.lower, p0);
  EXPECT_GE(lin.upper, p0);
  EXPECT_FALSE(lin.self_normalized);
  EXPECT_GT(lin.ess, 0.0);
  EXPECT_NEAR(lin.shift_norm, 2.0 / std::sqrt(5.0), 1e-12);

  // The disabled spec never fails: point estimate 0, no fallback.
  const SpecIsEstimate& off = result.per_spec[1];
  EXPECT_EQ(off.fails, 0u);
  EXPECT_EQ(off.fail_probability, 0.0);

  // Yield consistency: the Frechet bracket contains the point estimate
  // and the analytic yield 1 - p0.
  EXPECT_LE(result.confidence.lower, result.yield);
  EXPECT_GE(result.confidence.upper, result.yield);
  EXPECT_LE(result.confidence.lower, 1.0 - p0);
  EXPECT_GE(result.confidence.upper, 1.0 - p0);
  EXPECT_NEAR(result.yield, 1.0 - p0, 0.05);
}

TEST(IsVerification, TighterThanPlainMcAtEqualSampleCount) {
  // At beta = 2/sqrt(5) the analytic variance ratio is already > 4; the
  // realized CI half-width at an equal sample count must come out
  // smaller than the Wilson half-width of a plain-MC estimate.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  problem.specs[1].bound = -1e9;
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 512;
  options.max_rounds = 0;
  const IsVerificationResult is_result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);
  const double p0 = 1.0 - stats::normal_cdf(2.0 / std::sqrt(5.0));
  const stats::YieldInterval mc = stats::yield_confidence(
      static_cast<std::size_t>(p0 * 512.0 + 0.5), 512);
  EXPECT_LT(is_result.per_spec[0].half_width(),
            0.5 * (mc.upper - mc.lower));
}

TEST(IsVerification, BitwiseIdenticalAcrossThreadCounts) {
  const DesignVec d{2.0, 1.0};
  IsVerificationOptions options;
  options.initial_samples = 64;
  options.round_samples = 32;
  options.max_rounds = 3;
  options.block_size = 8;

  std::vector<IsVerificationResult> results;
  for (unsigned threads : {1u, 2u, 4u}) {
    auto problem = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator ev(problem);
    IsVerificationOptions run = options;
    run.threads = threads;
    results.push_back(importance_sample_verify(ev, d, synthetic_theta_wc(),
                                               synthetic_s_wc(), run));
  }

  const IsVerificationResult& serial = results[0];
  for (std::size_t k = 1; k < results.size(); ++k) {
    const IsVerificationResult& parallel = results[k];
    EXPECT_EQ(parallel.yield, serial.yield);
    EXPECT_EQ(parallel.confidence.lower, serial.confidence.lower);
    EXPECT_EQ(parallel.confidence.upper, serial.confidence.upper);
    EXPECT_EQ(parallel.rounds, serial.rounds);
    ASSERT_EQ(parallel.per_spec.size(), serial.per_spec.size());
    for (std::size_t i = 0; i < serial.per_spec.size(); ++i) {
      const SpecIsEstimate& a = serial.per_spec[i];
      const SpecIsEstimate& b = parallel.per_spec[i];
      EXPECT_EQ(b.fail_probability, a.fail_probability);
      EXPECT_EQ(b.lower, a.lower);
      EXPECT_EQ(b.upper, a.upper);
      EXPECT_EQ(b.samples, a.samples);
      EXPECT_EQ(b.fails, a.fails);
      EXPECT_EQ(b.ess, a.ess);
      EXPECT_EQ(b.self_normalized, a.self_normalized);
    }
  }
}

TEST(IsVerification, RepeatRunsAreIdentical) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 64;
  options.round_samples = 32;
  options.max_rounds = 2;
  const DesignVec d(problem.design.nominal);
  const IsVerificationResult first = importance_sample_verify(
      ev, d, synthetic_theta_wc(), synthetic_s_wc(), options);
  // Second run hits the warm evaluation cache; purity makes the numbers
  // identical anyway.
  const IsVerificationResult second = importance_sample_verify(
      ev, d, synthetic_theta_wc(), synthetic_s_wc(), options);
  EXPECT_EQ(first.yield, second.yield);
  EXPECT_EQ(first.rounds, second.rounds);
  for (std::size_t i = 0; i < first.per_spec.size(); ++i) {
    EXPECT_EQ(first.per_spec[i].fail_probability,
              second.per_spec[i].fail_probability);
    EXPECT_EQ(first.per_spec[i].samples, second.per_spec[i].samples);
  }
}

TEST(IsVerification, AdaptiveRoundsTargetTheWidestInterval) {
  // beta0 = 2/sqrt(5) ~ 0.894 vs beta1 = sqrt(3) ~ 1.732: the linear
  // spec's failure CI is decisively wider, so the adaptive rounds must
  // flow to it.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 128;
  options.round_samples = 64;
  options.max_rounds = 4;
  const IsVerificationResult result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);
  EXPECT_EQ(result.rounds, 4u);
  EXPECT_GT(result.per_spec[0].samples, result.per_spec[1].samples);
  EXPECT_EQ(result.per_spec[0].samples + result.per_spec[1].samples,
            2u * 128u + 4u * 64u);
}

TEST(IsVerification, TargetHalfWidthStopsEarly) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 256;
  options.round_samples = 64;
  options.max_rounds = 8;
  options.target_half_width = 0.25;  // far wider than round 0 achieves
  const IsVerificationResult result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);
  EXPECT_EQ(result.rounds, 0u);
  for (const SpecIsEstimate& e : result.per_spec)
    EXPECT_EQ(e.samples, 256u);
}

TEST(IsVerification, EssFallbackTriggersOnFarShift) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  problem.specs[1].bound = -1e9;
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 128;
  options.max_rounds = 0;
  options.shift_scale = 8.0;  // adversarial: weights degenerate
  const std::uint64_t fallbacks_before =
      obs::registry().counters.mc_is_ess_fallbacks.value();
  const IsVerificationResult result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);
  EXPECT_TRUE(result.per_spec[0].self_normalized);
  ASSERT_GT(result.per_spec[0].fails, 0u);
  EXPECT_LT(result.per_spec[0].ess,
            kIsEssFraction * static_cast<double>(result.per_spec[0].fails));
#if MAYO_OBS_ENABLED  // the counter is a no-op shell under MAYO_OBS=OFF
  EXPECT_GE(obs::registry().counters.mc_is_ess_fallbacks.value(),
            fallbacks_before + 1);
#else
  (void)fallbacks_before;
#endif
  // The self-normalized estimate stays a probability.
  EXPECT_GE(result.per_spec[0].fail_probability, 0.0);
  EXPECT_LE(result.per_spec[0].fail_probability, 1.0);
}

TEST(IsVerification, EvaluationsChargedToVerificationBudget) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  IsVerificationOptions options;
  options.initial_samples = 32;
  options.round_samples = 16;
  options.max_rounds = 2;
  const std::uint64_t samples_before =
      obs::registry().counters.mc_is_samples.value();
  const IsVerificationResult result =
      importance_sample_verify(ev, DesignVec(problem.design.nominal),
                               synthetic_theta_wc(), synthetic_s_wc(), options);
  const std::size_t total = 2u * 32u + 2u * 16u;
  EXPECT_EQ(result.evaluations, total);
  EXPECT_EQ(ev.counts().verification, total);
  EXPECT_EQ(ev.counts().optimization, 0u);
#if MAYO_OBS_ENABLED  // the counter is a no-op shell under MAYO_OBS=OFF
  EXPECT_EQ(obs::registry().counters.mc_is_samples.value(),
            samples_before + total);
#else
  (void)samples_before;
#endif
}

TEST(IsVerification, InvalidArgumentsThrow) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const auto theta = synthetic_theta_wc();
  const auto s_wc = synthetic_s_wc();

  // Wrong number of worst-case corners / points.
  EXPECT_THROW(importance_sample_verify(ev, d, {theta[0]}, s_wc, {}),
               std::invalid_argument);
  EXPECT_THROW(importance_sample_verify(ev, d, theta, {s_wc[0]}, {}),
               std::invalid_argument);

  // Wrong statistical dimension.
  EXPECT_THROW(
      importance_sample_verify(ev, d, theta,
                               {StatUnitVec{1.0}, StatUnitVec{1.0}}, {}),
      std::invalid_argument);

  IsVerificationOptions zero_initial;
  zero_initial.initial_samples = 0;
  EXPECT_THROW(importance_sample_verify(ev, d, theta, s_wc, zero_initial),
               std::invalid_argument);

  IsVerificationOptions zero_round;
  zero_round.round_samples = 0;
  zero_round.max_rounds = 1;
  EXPECT_THROW(importance_sample_verify(ev, d, theta, s_wc, zero_round),
               std::invalid_argument);

  // round_samples = 0 is fine when the adaptive loop is disabled.
  IsVerificationOptions no_rounds;
  no_rounds.initial_samples = 16;
  no_rounds.round_samples = 0;
  no_rounds.max_rounds = 0;
  EXPECT_NO_THROW(importance_sample_verify(ev, d, theta, s_wc, no_rounds));
}

TEST(IsVerificationDetail, AccumulatorMergeMatchesSequentialFold) {
  detail::IsAccumulator whole;
  detail::IsAccumulator left;
  detail::IsAccumulator right;
  const double weights[] = {0.5, 1.25, 2.0, 0.125};
  const bool fails[] = {true, false, true, false};
  for (int j = 0; j < 4; ++j) {
    whole.add(fails[j], weights[j]);
    (j < 2 ? left : right).add(fails[j], weights[j]);
  }
  left.merge(right);
  // Power-of-two weights make every sum exact, so the equality is exact.
  EXPECT_EQ(left.count, whole.count);
  EXPECT_EQ(left.fails, whole.fails);
  EXPECT_EQ(left.sum_w, whole.sum_w);
  EXPECT_EQ(left.sum_w2, whole.sum_w2);
  EXPECT_EQ(left.sum_fw, whole.sum_fw);
  EXPECT_EQ(left.sum_fw2, whole.sum_fw2);
}

TEST(IsVerificationDetail, ZeroFailureUpperBoundUsesLikelihoodRatioCap) {
  // 64 unit-ish draws, none failing: the upper bound is the plain Wilson
  // bound scaled by the half-space likelihood-ratio cap exp(-|mu|^2 / 2)
  // (shift_scale 1), so a far-out spec cannot dominate the yield bracket.
  const IsVerificationOptions options;
  detail::IsAccumulator acc;
  for (int j = 0; j < 64; ++j) acc.add(false, 0.5);
  const double shift_norm = 3.0;
  const SpecIsEstimate e = detail::finalize_estimate(0, acc, shift_norm, options);
  const stats::YieldInterval wilson =
      stats::weighted_yield_confidence(0.0, 64.0);
  EXPECT_EQ(e.fail_probability, 0.0);
  EXPECT_EQ(e.lower, wilson.lower);
  EXPECT_DOUBLE_EQ(e.upper, wilson.upper * std::exp(-0.5 * shift_norm * shift_norm));

  // A zero shift carries no model information: plain Wilson bound.
  const SpecIsEstimate plain = detail::finalize_estimate(0, acc, 0.0, options);
  EXPECT_EQ(plain.upper, wilson.upper);
}

TEST(IsVerificationDetail, FinalizeHandlesDegenerateAccumulator) {
  const IsVerificationOptions options;
  detail::IsAccumulator empty;
  const SpecIsEstimate e =
      detail::finalize_estimate(3, empty, 1.0, options);
  EXPECT_EQ(e.spec, 3u);
  EXPECT_EQ(e.lower, 0.0);
  EXPECT_EQ(e.upper, 1.0);
  EXPECT_EQ(e.fail_probability, 0.0);
  EXPECT_EQ(e.ess, 0.0);
}

}  // namespace
}  // namespace mayo::core
