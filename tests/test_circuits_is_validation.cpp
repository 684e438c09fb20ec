// Statistical validation of the importance-sampled verifier on a real
// circuit fixture: the IS yield bracket and the plain-MC estimate target
// the same quantity at the same design, so on the folded-cascode problem
// the (conservative, Frechet-combined) IS interval must cover the
// plain-MC yield; and an adversarial far shift must degrade the weights
// enough to force the ESS fallback.
#include "circuits/folded_cascode.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/is_verification.hpp"
#include "core/linearization.hpp"
#include "core/verification.hpp"
#include "obs/obs.hpp"

namespace mayo::circuits {
namespace {

using linalg::DesignVec;
using linalg::StatUnitVec;

class IsValidationTest : public ::testing::Test {
 protected:
  IsValidationTest()
      : problem(FoldedCascode::make_problem()),
        ev(problem),
        d(FoldedCascode::initial_design()) {
    linearized = core::build_linearizations(ev, d);
    s_wc.reserve(linearized.worst_cases.size());
    for (const core::WorstCasePoint& wc : linearized.worst_cases)
      s_wc.push_back(wc.s_wc);
  }

  core::YieldProblem problem;
  core::Evaluator ev;
  DesignVec d;
  core::LinearizedModels linearized;
  std::vector<StatUnitVec> s_wc;
};

TEST_F(IsValidationTest, IsBracketCoversPlainMcYield) {
  core::VerificationOptions mc_options;
  mc_options.num_samples = 300;
  const core::VerificationResult mc = core::monte_carlo_verify(
      ev, d, linearized.operating.theta_wc, mc_options);

  core::IsVerificationOptions is_options;
  is_options.initial_samples = 96;
  is_options.round_samples = 64;
  is_options.max_rounds = 3;
  const core::IsVerificationResult is = core::importance_sample_verify(
      ev, d, linearized.operating.theta_wc, s_wc, is_options);

  // Same design, same worst-case corners, same estimand: the Frechet
  // bracket must cover the plain-MC estimate (and its own point).
  EXPECT_LE(is.confidence.lower, mc.yield);
  EXPECT_GE(is.confidence.upper, mc.yield);
  EXPECT_LE(is.confidence.lower, is.yield);
  EXPECT_GE(is.confidence.upper, is.yield);

  // Structural sanity of the per-spec estimates.
  ASSERT_EQ(is.per_spec.size(), problem.num_specs());
  for (const core::SpecIsEstimate& e : is.per_spec) {
    EXPECT_GE(e.fail_probability, 0.0);
    EXPECT_LE(e.fail_probability, 1.0);
    EXPECT_LE(e.lower, e.fail_probability);
    EXPECT_GE(e.upper, e.fail_probability);
    EXPECT_GE(e.samples, is_options.initial_samples);
  }
}

TEST_F(IsValidationTest, FarShiftForcesEssFallback) {
  core::IsVerificationOptions is_options;
  is_options.initial_samples = 64;
  is_options.max_rounds = 0;
  is_options.shift_scale = 6.0;  // adversarial: proposal far past s_wc
  const std::uint64_t fallbacks_before =
      obs::registry().counters.mc_is_ess_fallbacks.value();
  const core::IsVerificationResult is = core::importance_sample_verify(
      ev, d, linearized.operating.theta_wc, s_wc, is_options);

  // At six times the worst-case shift the likelihood ratios degenerate
  // for at least one spec: the fallback must have fired, and every
  // estimate must remain a valid bracketed probability.
  bool any_fallback = false;
  for (const core::SpecIsEstimate& e : is.per_spec) {
    any_fallback = any_fallback || e.self_normalized;
    EXPECT_GE(e.fail_probability, 0.0);
    EXPECT_LE(e.fail_probability, 1.0);
    EXPECT_LE(e.lower, e.upper);
  }
  EXPECT_TRUE(any_fallback);
#if MAYO_OBS_ENABLED  // the counter is a no-op shell under MAYO_OBS=OFF
  EXPECT_GT(obs::registry().counters.mc_is_ess_fallbacks.value(),
            fallbacks_before);
#else
  (void)fallbacks_before;
#endif
}

}  // namespace
}  // namespace mayo::circuits
