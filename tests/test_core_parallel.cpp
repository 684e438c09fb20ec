#include "core/verification.hpp"

#include <gtest/gtest.h>

#include "circuits/miller.hpp"
#include "core/wc_operating.hpp"
#include "stats/summary.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::Vector;

TEST(RunningStatsMerge, MatchesSequential) {
  stats::RunningStats sequential;
  stats::RunningStats part_a;
  stats::RunningStats part_b;
  const double values[] = {1.0, 4.0, -2.0, 7.5, 3.25, 0.0, -1.5};
  int i = 0;
  for (double x : values) {
    sequential.add(x);
    (i++ % 2 == 0 ? part_a : part_b).add(x);
  }
  stats::RunningStats merged = part_a;
  merged.merge(part_b);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-12);
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
}

TEST(RunningStatsMerge, EmptyCases) {
  stats::RunningStats a;
  stats::RunningStats b;
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.mean(), 2.0);
  stats::RunningStats c;
  a.merge(c);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 1u);
}

TEST(ParallelVerify, MatchesSerialExactly) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator serial_ev(problem);
  const std::vector<OperatingVec> theta_wc = {OperatingVec{1.0},
                                              OperatingVec{0.0}};
  VerificationOptions vopts;
  vopts.num_samples = 500;
  const VerificationResult serial =
      monte_carlo_verify(serial_ev, DesignVec(problem.design.nominal),
                         theta_wc, vopts);

  auto problem2 = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator parallel_ev(problem2);
  VerificationOptions popts = vopts;
  popts.threads = 4;
  const VerificationResult parallel = monte_carlo_verify(
      parallel_ev, DesignVec(problem2.design.nominal), theta_wc, popts);

  // Pass/fail decisions are identical; only moment accumulation order
  // differs (exact integer counts must match).
  EXPECT_EQ(parallel.yield, serial.yield);
  EXPECT_EQ(parallel.fails_per_spec, serial.fails_per_spec);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(parallel.performance_mean[i], serial.performance_mean[i],
                1e-10);
    EXPECT_NEAR(parallel.performance_stddev[i], serial.performance_stddev[i],
                1e-10);
  }
}

TEST(ParallelVerify, ChargesVerificationBudget) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  VerificationOptions popts;
  popts.num_samples = 100;
  popts.threads = 3;
  const VerificationResult result = monte_carlo_verify(
      ev, DesignVec(problem.design.nominal),
      {OperatingVec{1.0}, OperatingVec{1.0}}, popts);
  EXPECT_EQ(ev.counts().verification, result.evaluations);
  EXPECT_EQ(result.evaluations, 100u);  // shared corners: 1 eval per sample
}

TEST(ParallelVerify, ProbeTotalsIndependentOfThreads) {
  // Every probe is either an evaluation or a cache hit, and workers hand
  // both counts to the caller: 301 samples at two distinct corners.
  const auto probes = [](unsigned threads) {
    auto problem = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator ev(problem);
    VerificationOptions options;
    options.num_samples = 301;
    options.threads = threads;
    (void)monte_carlo_verify(ev, DesignVec(problem.design.nominal),
                             {OperatingVec{1.0}, OperatingVec{0.0}}, options);
    return ev.counts().verification + ev.counts().cache_hits;
  };
  const std::size_t serial = probes(1);
  EXPECT_EQ(serial, 602u);
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(probes(threads), serial);
  }
}

TEST(ParallelVerify, SingleThreadFallsBackToSerial) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  VerificationOptions popts;
  popts.num_samples = 50;
  popts.threads = 1;
  const VerificationResult result = monte_carlo_verify(
      ev, DesignVec(problem.design.nominal),
      {OperatingVec{1.0}, OperatingVec{1.0}}, popts);
  EXPECT_EQ(result.evaluations, 50u);
}

TEST(ParallelVerify, NonClonableModelFallsBackToSerial) {
  class NonClonable final : public PerformanceModel {
   public:
    std::size_t num_performances() const override { return 1; }
    std::size_t num_constraints() const override { return 1; }
    linalg::PerfVec evaluate(const DesignVec&, const linalg::StatPhysVec& s,
                             const OperatingVec&) override {
      return linalg::PerfVec{1.0 - s[0]};
    }
    linalg::Vector constraints(const DesignVec&) override {
      return linalg::Vector(1, 1.0);
    }
    // clone() deliberately not overridden.
  };
  YieldProblem problem;
  problem.model = std::make_shared<NonClonable>();
  problem.specs = {{"f", SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.design.names = {"d"};
  problem.design.lower = Vector{0.0};
  problem.design.upper = Vector{1.0};
  problem.design.nominal = Vector{0.5};
  problem.operating.names = {"t"};
  problem.operating.lower = Vector{0.0};
  problem.operating.upper = Vector{1.0};
  problem.operating.nominal = Vector{0.5};
  problem.statistical.add(stats::StatParam::global("s", 0.0, 1.0));
  Evaluator ev(problem);
  VerificationOptions popts;
  popts.num_samples = 64;
  popts.threads = 4;
  const VerificationResult result = monte_carlo_verify(
      ev, DesignVec(problem.design.nominal), {OperatingVec{0.5}}, popts);
  EXPECT_GT(result.yield, 0.7);  // Phi(1) ~ 0.84
  EXPECT_EQ(result.evaluations, 64u);
}

TEST(ParallelVerify, WorksOnRealCircuit) {
  auto problem = circuits::Miller::make_problem();
  Evaluator ev(problem);
  const auto corners =
      find_worst_case_operating(ev, DesignVec(problem.design.nominal));

  VerificationOptions popts;
  popts.num_samples = 60;
  popts.threads = 4;
  const VerificationResult parallel = monte_carlo_verify(
      ev, DesignVec(problem.design.nominal), corners.theta_wc, popts);

  auto problem2 = circuits::Miller::make_problem();
  Evaluator ev2(problem2);
  VerificationOptions vopts = popts;
  vopts.threads = 1;
  const VerificationResult serial = monte_carlo_verify(
      ev2, DesignVec(problem2.design.nominal), corners.theta_wc, vopts);

  EXPECT_EQ(parallel.fails_per_spec, serial.fails_per_spec);
  EXPECT_EQ(parallel.yield, serial.yield);
}

}  // namespace
}  // namespace mayo::core
