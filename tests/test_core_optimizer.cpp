#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "circuits/folded_cascode.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::Vector;

YieldOptimizerOptions fast_options() {
  YieldOptimizerOptions options;
  options.max_iterations = 8;
  options.linear_samples = 3000;
  options.verification.num_samples = 500;
  return options;
}

/// One lower-bounded performance f(d, s) and one constraint c(d), plain
/// functions over d (2) and s (1); theta (1) is unused.  The fixture of
/// the stop reasons the synthetic problem does not reach.
class FunctionModel final : public PerformanceModel {
 public:
  using Performance = double (*)(const linalg::DesignVec&,
                                 const linalg::StatPhysVec&);
  using Constraint = double (*)(const linalg::DesignVec&);

  FunctionModel(Performance f, Constraint c) : f_(f), c_(c) {}

  std::size_t num_performances() const override { return 1; }
  std::size_t num_constraints() const override { return 1; }

  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec&) override {
    linalg::PerfVec f(1);
    f[0] = f_(d, s);
    return f;
  }

  Vector constraints(const linalg::DesignVec& d) override {
    Vector c(1);
    c[0] = c_(d);
    return c;
  }

 private:
  Performance f_;
  Constraint c_;
};

YieldProblem make_function_problem(FunctionModel::Performance f,
                                   FunctionModel::Constraint c, double d0,
                                   double d1) {
  YieldProblem problem;
  problem.model = std::make_shared<FunctionModel>(f, c);
  problem.specs = {{"f", SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.design.names = {"d0", "d1"};
  problem.design.lower = Vector{-5.0, -5.0};
  problem.design.upper = Vector{5.0, 5.0};
  problem.design.nominal = Vector{d0, d1};
  problem.operating.names = {"theta"};
  problem.operating.lower = Vector{-1.0};
  problem.operating.upper = Vector{1.0};
  problem.operating.nominal = Vector{0.0};
  problem.statistical.add(stats::StatParam::global("s0", 0.0, 1.0));
  problem.validate();
  return problem;
}

double unconstrained(const linalg::DesignVec&) { return 1.0; }

TEST(Optimizer, ImprovesSyntheticYield) {
  // Start at a low-yield point: d = (0.2, 0.1) -> linear beta ~ -0.3.
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  ASSERT_GE(result.trace.size(), 2u);
  const IterationRecord& initial = result.trace.front();
  const IterationRecord& final = result.trace.back();
  EXPECT_LT(initial.verified_yield, 0.6);
  // The c1 <= 6 cap bounds the linear spec's beta at 5/sqrt(5) ~ 2.24, so
  // ~97% is the reachable ceiling; the trust-region loop gets close.
  EXPECT_GT(final.verified_yield, 0.85);
  EXPECT_GT(final.verified_yield, initial.verified_yield + 0.3);
  EXPECT_GT(final.linear_yield, initial.linear_yield);
}

TEST(Optimizer, TraceIsMonotoneInLinearYield) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_GE(result.trace[i].linear_yield + 1e-9,
              result.trace[i - 1].linear_yield);
}

TEST(Optimizer, FinalDesignIsFeasible) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  const Vector c = ev.constraints(result.final_d);
  for (double ci : c) EXPECT_GE(ci, -1e-9);
  EXPECT_TRUE(problem.design.contains(result.final_d, 1e-9));
}

TEST(Optimizer, RepairsInfeasibleStart) {
  // Nominal (0, 2) violates c0 = d0 - d1.
  auto problem = testing::make_synthetic_problem(0.0, 2.0);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  EXPECT_TRUE(result.feasible_start_found);
  const Vector c = ev.constraints(result.trace.front().d);
  for (double ci : c) EXPECT_GE(ci, -1e-6);
}

TEST(Optimizer, RecordsPerSpecSnapshots) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  for (const IterationRecord& record : result.trace) {
    ASSERT_EQ(record.specs.size(), 2u);
    for (const SpecSnapshot& snap : record.specs) {
      EXPECT_GE(snap.bad_permille, 0.0);
      EXPECT_LE(snap.bad_permille, 1000.0);
    }
  }
  // Initial record carries the nominal margins at theta_wc.
  EXPECT_NEAR(result.trace.front().specs[0].nominal_margin,
              0.2 + 0.1 - 1.0, 1e-9);
}

TEST(Optimizer, VerificationCanBeDisabled) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  YieldOptimizerOptions options = fast_options();
  options.run_verification = false;
  const YieldOptimizationResult result = optimize_yield(ev, options);
  EXPECT_EQ(result.counts.verification, 0u);
  for (const IterationRecord& record : result.trace)
    EXPECT_EQ(record.verified_yield, -1.0);
}

TEST(Optimizer, AblationWithoutConstraintsSkipsLineSearch) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  auto* model = dynamic_cast<testing::SyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  YieldOptimizerOptions options = fast_options();
  options.use_constraints = false;
  options.run_verification = false;
  const YieldOptimizationResult result = optimize_yield(ev, options);
  // No constraint evaluations at all in the ablation.
  EXPECT_EQ(model->constraint_evaluations, 0);
  // The synthetic problem is benign, so yield still improves; the final
  // point may violate constraints though.
  EXPECT_GE(result.trace.back().linear_yield,
            result.trace.front().linear_yield);
}

TEST(Optimizer, LinearizationsExposedPerIteration) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  ASSERT_EQ(result.linearizations.size(), result.trace.size());
  // The stored worst cases allow a free mismatch analysis (paper Sec. 3.2).
  EXPECT_EQ(result.linearizations.front().worst_cases.size(), 2u);
}

TEST(Optimizer, CountsAccumulate) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  EXPECT_GT(result.counts.optimization, 0u);
  EXPECT_GT(result.counts.verification, 0u);
  EXPECT_GT(result.counts.constraint, 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Optimizer, StopsWhenNothingToImprove) {
  // Start near the constrained optimum (the c1 cap d0 + d1 <= 6 limits the
  // linear spec's beta to 5/sqrt(5) ~ 2.24, so ~97% is the ceiling).
  auto problem = testing::make_synthetic_problem(4.9, 1.05);
  Evaluator ev(problem);
  YieldOptimizerOptions options = fast_options();
  const YieldOptimizationResult result = optimize_yield(ev, options);
  EXPECT_GT(result.trace.front().linear_yield, 0.9);
  // The loop terminates (monotone safeguard / predicted-gain stop) well
  // before exhausting the iteration budget on an already-centered design.
  EXPECT_LE(result.trace.size(),
            static_cast<std::size_t>(options.max_iterations));
  EXPECT_GE(result.trace.back().linear_yield,
            result.trace.front().linear_yield);
  // Iteration 2's search finds no move that raises the pass count: a
  // predicted gain of 0 stops the loop.
  EXPECT_EQ(result.stop_reason, StopReason::kPredictedGain);
  EXPECT_EQ(result.predicted_gain, 0);
  EXPECT_EQ(result.trace.size(), 2u);
}

TEST(OptimizerStop, StopsWhenTheModelsPredictNoGain) {
  // Iteration 3's coordinate search predicts one more passing sample in
  // 3,000 than at d_f: the loop keeps iteration 2's design.
  auto problem = testing::make_synthetic_problem(1.0, 0.5);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  EXPECT_EQ(result.stop_reason, StopReason::kPredictedGain);
  EXPECT_EQ(result.predicted_gain, 1);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.linearizations.size(), result.trace.size());
  EXPECT_EQ(result.counts.optimization, 187u);

  // The stop costs no optimization simulation: everything matches the run
  // that was told to stop after two iterations.
  auto problem2 = testing::make_synthetic_problem(1.0, 0.5);
  Evaluator ev2(problem2);
  YieldOptimizerOptions two = fast_options();
  two.max_iterations = 2;
  const YieldOptimizationResult capped = optimize_yield(ev2, two);
  EXPECT_EQ(capped.stop_reason, StopReason::kMaxIterations);
  ASSERT_EQ(capped.trace.size(), result.trace.size());
  for (std::size_t k = 0; k < 2; ++k)
    EXPECT_EQ(result.final_d[k], capped.final_d[k]);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i].linear_yield, capped.trace[i].linear_yield);
    EXPECT_EQ(result.trace[i].verified_yield, capped.trace[i].verified_yield);
  }
  EXPECT_EQ(result.counts.optimization, capped.counts.optimization);
  EXPECT_EQ(result.counts.verification, capped.counts.verification);

  // After the stopping search no line search ran: the only constraint
  // evaluations beyond the capped run's are iteration 3's constraint
  // linearization at d_f, which the search needed.
  const std::size_t before = ev2.counts().constraint;
  linearize_feasibility(ev2, capped.final_d);
  EXPECT_EQ(result.counts.constraint,
            capped.counts.constraint + (ev2.counts().constraint - before));
}

/// Samples the search that produced trace row `i` predicted over row i-1.
long predicted_gain_of_row(const YieldOptimizationResult& result,
                           std::size_t i) {
  return std::lround(
      (result.trace[i].predicted_yield - result.trace[i - 1].linear_yield) *
      3000.0);
}

TEST(OptimizerStop, KeepsGoingWhileTheModelsPredictAGain) {
  // Iteration 4 predicts 4 samples in 3,000, above the 2-sample threshold;
  // iteration 5's search makes no move, a predicted gain of 0.
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  ASSERT_EQ(result.trace.size(), 5u);
  EXPECT_EQ(predicted_gain_of_row(result, 4), 4);
  EXPECT_EQ(result.stop_reason, StopReason::kPredictedGain);
  EXPECT_EQ(result.predicted_gain, 0);
  // Every accepted row's search predicted more than 2 samples of gain on
  // the previous row's models; the initial row has no search.
  EXPECT_EQ(result.trace.front().predicted_yield, -1.0);
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_GT(predicted_gain_of_row(result, i), 2) << i;
}

TEST(OptimizerStop, ThresholdIsTwoSamples) {
  // A predicted gain of exactly 2 samples stops (iteration 2 here)...
  auto problem = testing::make_synthetic_problem(2.25, 1.75);
  Evaluator ev(problem);
  const YieldOptimizationResult two = optimize_yield(ev, fast_options());
  EXPECT_EQ(two.stop_reason, StopReason::kPredictedGain);
  EXPECT_EQ(two.predicted_gain, 2);
  EXPECT_EQ(two.trace.size(), 2u);

  // ...and one of 3 is accepted (iteration 4 here).
  auto problem3 = testing::make_synthetic_problem(-0.3, -0.3);
  Evaluator ev3(problem3);
  const YieldOptimizationResult three = optimize_yield(ev3, fast_options());
  ASSERT_EQ(three.trace.size(), 5u);
  EXPECT_EQ(predicted_gain_of_row(three, 4), 3);
}

TEST(OptimizerStop, StopsWhenTheLineSearchIsBlocked) {
  // F is the line d0 = 3: its forward-difference linearization allows
  // d0 < 3, where the yield grows, but every step off the line leaves F.
  auto problem = make_function_problem(
      [](const linalg::DesignVec& d, const linalg::StatPhysVec& s) {
        return 4.0 - d[0] + s[0];
      },
      [](const linalg::DesignVec& d) { return -(d[0] - 3.0) * (d[0] - 3.0); },
      3.0, 0.0);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  EXPECT_EQ(result.stop_reason, StopReason::kLineSearchBlocked);
  EXPECT_GT(result.predicted_gain, 2);
  EXPECT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.final_d[0], 3.0);
}

TEST(OptimizerStop, StopsWhenTheSafeguardRejectsEveryAttempt) {
  // The spread grows as 1 + 10 (d0 - 1)^2, flat at d0 = 1: the models
  // there predict a gain from raising d0, and every candidate, even at a
  // quarter of the trust radius, re-linearizes to a lower yield.
  auto problem = make_function_problem(
      [](const linalg::DesignVec& d, const linalg::StatPhysVec& s) {
        const double u = d[0] - 1.0;
        return d[0] + (1.0 + 10.0 * u * u) * s[0];
      },
      unconstrained, 1.0, 0.0);
  Evaluator ev(problem);
  const YieldOptimizationResult result = optimize_yield(ev, fast_options());
  EXPECT_EQ(result.stop_reason, StopReason::kAllAttemptsRejected);
  EXPECT_GT(result.predicted_gain, 2);
  EXPECT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.final_d[0], 1.0);
}

TEST(OptimizerStop, StopReasonNamesAreDistinct) {
  const StopReason reasons[] = {
      StopReason::kMaxIterations, StopReason::kPredictedGain,
      StopReason::kLineSearchBlocked, StopReason::kAllAttemptsRejected};
  for (const StopReason a : reasons) {
    for (const StopReason b : reasons) {
      if (a != b) {
        EXPECT_STRNE(stop_reason_name(a), stop_reason_name(b));
      }
    }
  }
  EXPECT_STREQ(stop_reason_name(StopReason::kPredictedGain), "predicted_gain");
}

TEST(OptimizerTrace, BetaConvergedFollowsTheWorstCaseSearch) {
  // The folded cascode's initial analysis: power is out of reach of the
  // 10-sigma sphere, so its search stops not converged.
  auto problem = circuits::FoldedCascode::make_problem();
  Evaluator ev(problem);
  YieldOptimizerOptions options;
  options.max_iterations = 0;
  options.linear_samples = 1000;
  options.run_verification = false;
  const YieldOptimizationResult result = optimize_yield(ev, options);
  EXPECT_EQ(result.stop_reason, StopReason::kMaxIterations);
  ASSERT_EQ(result.trace.size(), 1u);
  const std::vector<WorstCasePoint>& wc = result.linearizations[0].worst_cases;
  ASSERT_EQ(result.trace[0].specs.size(), wc.size());
  std::size_t not_converged = 0;
  for (std::size_t i = 0; i < wc.size(); ++i) {
    EXPECT_EQ(result.trace[0].specs[i].beta_converged, wc[i].converged) << i;
    if (!wc[i].converged) ++not_converged;
  }
  EXPECT_GE(not_converged, 1u);
  EXPECT_FALSE(result.trace[0].specs.back().beta_converged);  // power
}

}  // namespace
}  // namespace mayo::core
