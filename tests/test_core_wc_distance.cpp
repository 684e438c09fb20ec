#include "core/wc_distance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "obs/obs.hpp"
#include "stats/normal.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;
using linalg::Vector;

/// Warm-start counters (wc.warm_starts, wc.warm_fallbacks) at one moment.
struct WarmCounters {
  std::uint64_t starts = obs::registry().counters.wc_warm_starts.value();
  std::uint64_t fallbacks = obs::registry().counters.wc_warm_fallbacks.value();
};

/// One statistical parameter, f = 4 - 0.1 s0 - 0.05 s0^2 >= 0: the spec
/// fails at s0 = 8 (beta = 8), but the linearization at s = 0 puts its
/// level set near s0 = 39, beyond the default trust radius of 10.
class OvershootModel final : public PerformanceModel {
 public:
  std::size_t num_performances() const override { return 1; }
  std::size_t num_constraints() const override { return 0; }
  linalg::PerfVec evaluate(const DesignVec&, const linalg::StatPhysVec& s,
                           const OperatingVec&) override {
    linalg::PerfVec f(1);
    f[0] = 4.0 - 0.1 * s[0] - 0.05 * s[0] * s[0];
    return f;
  }
  Vector constraints(const DesignVec&) override { return Vector(0); }
};

/// A flat performance f = level over two statistical parameters: every
/// margin gradient is zero, so each search start stops where it began.
class FlatModel final : public PerformanceModel {
 public:
  explicit FlatModel(double level) : level_(level) {}
  std::size_t num_performances() const override { return 1; }
  std::size_t num_constraints() const override { return 0; }
  linalg::PerfVec evaluate(const DesignVec&, const linalg::StatPhysVec&,
                           const OperatingVec&) override {
    return linalg::PerfVec{level_};
  }
  Vector constraints(const DesignVec&) override { return Vector(0); }

 private:
  double level_;
};

YieldProblem make_flat_problem(double level) {
  auto problem = testing::make_synthetic_problem();
  problem.model = std::make_shared<FlatModel>(level);
  problem.specs = {{"f", SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.statistical = stats::CovarianceModel();
  problem.statistical.add(stats::StatParam::global("s0", 0.0, 1.0));
  problem.statistical.add(stats::StatParam::global("s1", 0.0, 1.0));
  problem.validate();
  return problem;
}

TEST(WcDistance, NonConvergedSearchReportsBetaOnTheSphere) {
  // A flat spec stops every start on its zero gradient at s = 0, not
  // converged.  beta is then +-max_radius with the sign of the nominal
  // margin (not +-0), while s_wc, the margin and the gradient stay those
  // of the point where the search stopped.
  for (const double level : {-1.0, 1.0}) {
    for (const double radius : {10.0, 4.0}) {
      auto problem = make_flat_problem(level);
      Evaluator ev(problem);
      WcDistanceOptions options;
      options.max_radius = radius;
      const WorstCasePoint wc =
          find_worst_case_point(ev, 0, DesignVec(problem.design.nominal),
                                OperatingVec{0.0}, options);
      SCOPED_TRACE(::testing::Message()
                   << "level " << level << ", radius " << radius);
      EXPECT_FALSE(wc.converged);
      EXPECT_EQ(wc.margin_nominal, level);
      EXPECT_EQ(wc.beta, level < 0.0 ? -radius : radius);
      EXPECT_EQ(wc.s_wc.norm(), 0.0);
      EXPECT_EQ(wc.margin_at_wc, level);
      EXPECT_EQ(wc.gradient.norm(), 0.0);
    }
  }
}

TEST(WcDistance, LinearSpecClosedForm) {
  // margin = d0 + d1 - s0 - 2 s1 - theta; at theta_wc = 1 and d = (2, 1):
  // m0 = 2, g = (-1, -2, 0), beta = 2/sqrt(5).
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  const OperatingVec theta_wc{1.0};
  const WorstCasePoint wc =
      find_worst_case_point(ev, 0, DesignVec(problem.design.nominal), theta_wc);
  EXPECT_TRUE(wc.converged);
  EXPECT_NEAR(wc.beta, testing::linear_beta(2.0, 1.0), 1e-6);
  EXPECT_NEAR(wc.margin_at_wc, 0.0, 1e-6);
  // s_wc = -g * m0 / ||g||^2 = (1, 2, 0) * 2/5 -- on the failure side.
  EXPECT_NEAR(wc.s_wc[0], 0.4, 1e-5);
  EXPECT_NEAR(wc.s_wc[1], 0.8, 1e-5);
  EXPECT_NEAR(wc.s_wc[2], 0.0, 1e-5);
  EXPECT_FALSE(wc.mirrored);  // linear performance: no quadratic signature
}

TEST(WcDistance, ViolatedSpecHasNegativeBeta) {
  // d = (-2, 1): m0 at theta_wc=1 is -2 -- the nominal violates the spec.
  auto problem = testing::make_synthetic_problem(-2.0, 1.0);
  Evaluator ev(problem);
  const WorstCasePoint wc =
      find_worst_case_point(ev, 0, DesignVec(problem.design.nominal), OperatingVec{1.0});
  EXPECT_TRUE(wc.converged);
  EXPECT_LT(wc.margin_nominal, 0.0);
  EXPECT_NEAR(wc.beta, testing::linear_beta(-2.0, 1.0), 1e-6);
  EXPECT_LT(wc.beta, 0.0);
  // The worst-case point sits where the margin recovers to zero.
  EXPECT_NEAR(wc.margin_at_wc, 0.0, 1e-6);
}

TEST(WcDistance, QuadraticMismatchSpec) {
  // margin = d0 + 4 - (s1 - s2)^2; WC points at s1 = -s2 = +-u/2 with
  // u = sqrt(d0 + 4); beta = u/sqrt(2).
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  const WorstCasePoint wc =
      find_worst_case_point(ev, 1, DesignVec(problem.design.nominal), OperatingVec{0.0});
  EXPECT_TRUE(wc.converged);
  EXPECT_NEAR(wc.beta, testing::quad_beta(2.0), 1e-3);
  // Pure pair signature: s1 and s2 equal magnitude, opposite sign; s0 ~ 0.
  // (Component tolerance is set by the forward-difference bias q*h of the
  // gradient on a quadratic; the norm beta is accurate to second order.)
  EXPECT_NEAR(wc.s_wc[0], 0.0, 1e-4);
  EXPECT_NEAR(wc.s_wc[1], -wc.s_wc[2], 0.03);
  EXPECT_NEAR(std::abs(wc.s_wc[1]), std::sqrt(6.0) / 2.0, 0.03);
  // Quadratic symmetric performance: mirror must be detected.
  EXPECT_TRUE(wc.mirrored);
  EXPECT_NEAR(wc.margin_at_mirror, 0.0, 1e-3);
}

TEST(WcDistance, QuadraticWithoutCurvatureStartsFails) {
  // The gradient at s = 0 vanishes for the quadratic spec; without the
  // curvature-seeded starts the search cannot leave the neutral line --
  // exactly the problem ref. [12] addresses.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  WcDistanceOptions options;
  options.curvature_starts = false;
  const WorstCasePoint wc = find_worst_case_point(
      ev, 1, DesignVec(problem.design.nominal), OperatingVec{0.0}, options);
  EXPECT_FALSE(wc.converged);
}

TEST(WcDistance, PerSpecYield) {
  WorstCasePoint wc;
  wc.beta = 3.0;
  EXPECT_NEAR(worst_case_yield(wc), stats::yield_from_beta(3.0), 1e-12);
}

TEST(WcDistance, BetaScalesWithMargin) {
  // Property: increasing the nominal margin increases beta.
  double prev_beta = -1e9;
  for (double d0 : {-1.0, 0.5, 2.0, 4.0}) {
    auto problem = testing::make_synthetic_problem(d0, 1.0);
    Evaluator ev(problem);
    const WorstCasePoint wc =
        find_worst_case_point(ev, 0, DesignVec(problem.design.nominal), OperatingVec{1.0});
    EXPECT_TRUE(wc.converged) << d0;
    EXPECT_GT(wc.beta, prev_beta);
    prev_beta = wc.beta;
  }
}

TEST(WcDistance, GradientReportedAtWcPoint) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  const WorstCasePoint wc =
      find_worst_case_point(ev, 0, DesignVec(problem.design.nominal), OperatingVec{1.0});
  ASSERT_EQ(wc.gradient.size(), 3u);
  EXPECT_NEAR(wc.gradient[0], -1.0, 1e-6);
  EXPECT_NEAR(wc.gradient[1], -2.0, 1e-6);
}

TEST(WcDistance, StationarityOfSolution) {
  // At the solution, s_wc must be (anti)parallel to the gradient
  // (first-order optimality of eq. 8).
  auto problem = testing::make_synthetic_problem(3.0, 0.5);
  Evaluator ev(problem);
  for (std::size_t spec : {std::size_t{0}, std::size_t{1}}) {
    const WorstCasePoint wc = find_worst_case_point(
        ev, spec, DesignVec(problem.design.nominal), OperatingVec{spec == 0 ? 1.0 : 0.0});
    ASSERT_TRUE(wc.converged);
    const double cosine =
        linalg::dot(wc.s_wc, wc.gradient) /
        (wc.s_wc.norm() * wc.gradient.norm());
    EXPECT_NEAR(std::abs(cosine), 1.0, 1e-2) << "spec " << spec;
  }
}

TEST(WcDistance, MaxRadiusClampsHopelessSearch) {
  // Spec so robust that no point within the trust radius reaches the
  // bound: the search must stay bounded and report non-convergence.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  problem.specs[0].bound = -1000.0;  // margin ~ 1003 everywhere reachable
  Evaluator ev(problem);
  WcDistanceOptions options;
  options.max_radius = 5.0;
  const WorstCasePoint wc = find_worst_case_point(
      ev, 0, DesignVec(problem.design.nominal), OperatingVec{1.0}, options);
  EXPECT_LE(wc.s_wc.norm(), 5.0 + 1e-9);
  EXPECT_FALSE(wc.converged);
  // The first step is clamped onto the sphere; the linearization there
  // still puts the level set beyond it, so the start stops at once
  // instead of walking the sphere to the iteration cap.
  EXPECT_EQ(wc.iterations, 2);
  EXPECT_NEAR(std::abs(wc.beta), 5.0, 1e-9);
}

TEST(WcDistance, ClampedStartConvergesWhenLevelSetIsBackInReach) {
  // The first step is clamped to s0 = 10; the linearization there points
  // back inside the sphere (s0 ~ 8.19), so the start must go on and
  // converge: a clamp alone never stops a search.
  auto problem = testing::make_synthetic_problem();
  problem.model = std::make_shared<OvershootModel>();
  problem.specs = {{"f", SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.statistical = stats::CovarianceModel();
  problem.statistical.add(stats::StatParam::global("s0", 0.0, 1.0));
  problem.validate();
  Evaluator ev(problem);
  const WorstCasePoint wc = find_worst_case_point(
      ev, 0, DesignVec(problem.design.nominal), OperatingVec{0.0});
  EXPECT_TRUE(wc.converged);
  EXPECT_GT(wc.iterations, 2);
  EXPECT_NEAR(wc.beta, 8.0, 1e-2);
}

TEST(WcDistance, IterationCapRelinearizesAtReturnedPoint) {
  // Starts that reach max_iterations return their last iterate; the margin
  // and gradient reported with it must be measured there, bit for bit.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  WcDistanceOptions options;
  options.max_iterations = 2;
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const WorstCasePoint wc = find_worst_case_point(ev, 1, d, theta, options);
  EXPECT_EQ(wc.margin_at_wc, ev.margin(1, d, wc.s_wc, theta));
  const StatUnitVec gradient = ev.margin_gradient_s(1, d, wc.s_wc, theta);
  ASSERT_EQ(wc.gradient.size(), gradient.size());
  for (std::size_t i = 0; i < gradient.size(); ++i)
    EXPECT_EQ(wc.gradient[i], gradient[i]) << i;
}

TEST(WcDistance, ColdSearchUnlessPreviousIsConvergedAndMirrored) {
  // No previous point, or one that is not mirrored or did not converge:
  // the quadratic spec's cold multi-start search, with the iteration and
  // evaluation counts it has always had (origin start plus
  // curvature-seeded starts, 2n probes, the mirror check).
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  Evaluator cold_ev(problem);
  const WorstCasePoint cold = find_worst_case_point(cold_ev, 1, d, theta);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(cold.mirrored);
  WorstCasePoint unmirrored = cold;
  unmirrored.mirrored = false;
  WorstCasePoint unconverged = cold;
  unconverged.converged = false;

  const WorstCasePoint* const previous_points[] = {nullptr, &unmirrored,
                                                   &unconverged};
  for (const WorstCasePoint* previous : previous_points) {
    Evaluator ev(problem);
    const WarmCounters before;
    const WorstCasePoint wc =
        find_worst_case_point(ev, 1, d, theta, WcDistanceOptions{}, previous);
    const WarmCounters after;
    EXPECT_TRUE(wc.converged);
    EXPECT_TRUE(wc.mirrored);
    EXPECT_EQ(wc.s_wc, cold.s_wc);
    EXPECT_EQ(wc.iterations, 26);
    EXPECT_EQ(ev.counts().optimization, 108u);
    EXPECT_EQ(ev.counts().cache_hits, 30u);
    EXPECT_EQ(after.starts, before.starts);
    EXPECT_EQ(after.fallbacks, before.fallbacks);
  }
}

TEST(WcDistance, WarmStartAtColdPointSkipsTheMultiStart) {
  // Started at the cold search's own worst-case point, the warm start
  // converges at once: fewer evaluations, no curvature probe around the
  // origin, the same point, and the mirror check still runs.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const WcDistanceOptions options;
  Evaluator cold_ev(problem);
  const WorstCasePoint cold = find_worst_case_point(cold_ev, 1, d, theta);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(cold.mirrored);

  Evaluator ev(problem);
  const WarmCounters before;
  const WorstCasePoint warm =
      find_worst_case_point(ev, 1, d, theta, options, &cold);
  const WarmCounters after;
  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(warm.mirrored);
  EXPECT_LT(ev.counts().optimization, cold_ev.counts().optimization);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_LE(linalg::distance(warm.s_wc, cold.s_wc), kWcStepTolerance);
  EXPECT_NEAR(warm.beta, cold.beta, kWcStepTolerance);
  if (obs::kEnabled) {
    EXPECT_EQ(after.starts, before.starts + 1);
    EXPECT_EQ(after.fallbacks, before.fallbacks);
  }

  // No curvature probe ran: every +-h point on an axis is still a miss.
  const std::size_t evaluations = ev.counts().optimization;
  StatUnitVec probe(ev.num_statistical());
  for (std::size_t i = 0; i < probe.size(); ++i)
    for (double h : {kSHatStep, -kSHatStep}) {
      probe[i] = h;
      (void)ev.margin(1, d, probe, theta);
      probe[i] = 0.0;
    }
  EXPECT_EQ(ev.counts().optimization, evaluations + 2 * probe.size());
}

TEST(WcDistance, FailedWarmStartFallsBackToTheColdResult) {
  // On the neutral line s1 = s2 the quadratic spec's margin does not move,
  // so a warm start there stops out of reach.  It is discarded and the
  // cold search decides, bit for bit; only the iteration total grows.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  Evaluator cold_ev(problem);
  const WorstCasePoint cold = find_worst_case_point(cold_ev, 1, d, theta);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(cold.mirrored);

  WorstCasePoint neutral = cold;
  neutral.s_wc = StatUnitVec{0.0, 5.0, 5.0};
  Evaluator ev(problem);
  const WarmCounters before;
  const WorstCasePoint wc =
      find_worst_case_point(ev, 1, d, theta, WcDistanceOptions{}, &neutral);
  const WarmCounters after;
  EXPECT_EQ(wc.s_wc, cold.s_wc);
  EXPECT_EQ(wc.beta, cold.beta);
  EXPECT_EQ(wc.gradient, cold.gradient);
  EXPECT_EQ(wc.margin_at_wc, cold.margin_at_wc);
  EXPECT_EQ(wc.converged, cold.converged);
  EXPECT_EQ(wc.mirrored, cold.mirrored);
  EXPECT_EQ(wc.margin_at_mirror, cold.margin_at_mirror);
  EXPECT_EQ(wc.iterations, cold.iterations + 2);  // the out-of-reach stop
  if (obs::kEnabled) {
    EXPECT_EQ(after.starts, before.starts + 1);
    EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  }
}

}  // namespace
}  // namespace mayo::core
