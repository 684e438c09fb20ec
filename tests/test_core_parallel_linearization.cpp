// Determinism contract of the linearization fan-out: for every thread
// count, build_linearizations returns models, worst-case points and
// operating corners that are BITWISE identical to the serial run.  Model
// evaluations are pure functions of (d, s, theta) (see evaluator.hpp), so
// per-worker cold caches change how often points are re-simulated but
// never the values -- only the evaluation *counters* may differ between
// the two paths.
#include "core/linearization.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/optimizer.hpp"
#include "obs/obs.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;

LinearizedModels run_serial() {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  return build_linearizations(ev, DesignVec(problem.design.nominal));
}

LinearizedModels run_parallel(unsigned threads,
                              bool linearize_at_nominal = false) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  LinearizationOptions opts;
  opts.linearize_at_nominal = linearize_at_nominal;
  return build_linearizations(ev, DesignVec(problem.design.nominal), opts,
                              threads);
}

void expect_identical(const LinearizedModels& serial,
                      const LinearizedModels& parallel) {
  ASSERT_EQ(parallel.models.size(), serial.models.size());
  for (std::size_t m = 0; m < serial.models.size(); ++m) {
    SCOPED_TRACE(m);
    const SpecLinearization& a = serial.models[m];
    const SpecLinearization& b = parallel.models[m];
    EXPECT_EQ(b.spec, a.spec);
    EXPECT_EQ(b.is_mirror, a.is_mirror);
    EXPECT_EQ(b.theta_wc, a.theta_wc);
    EXPECT_EQ(b.s_wc, a.s_wc);
    EXPECT_EQ(b.d_f, a.d_f);
    EXPECT_EQ(b.margin_wc, a.margin_wc);
    EXPECT_EQ(b.grad_s, a.grad_s);
    EXPECT_EQ(b.grad_d, a.grad_d);
    EXPECT_EQ(b.beta, a.beta);
  }
  ASSERT_EQ(parallel.worst_cases.size(), serial.worst_cases.size());
  for (std::size_t i = 0; i < serial.worst_cases.size(); ++i) {
    SCOPED_TRACE(i);
    const WorstCasePoint& a = serial.worst_cases[i];
    const WorstCasePoint& b = parallel.worst_cases[i];
    EXPECT_EQ(b.spec, a.spec);
    EXPECT_EQ(b.s_wc, a.s_wc);
    EXPECT_EQ(b.beta, a.beta);
    EXPECT_EQ(b.margin_nominal, a.margin_nominal);
    EXPECT_EQ(b.margin_at_wc, a.margin_at_wc);
    EXPECT_EQ(b.gradient, a.gradient);
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.mirrored, a.mirrored);
    EXPECT_EQ(b.margin_at_mirror, a.margin_at_mirror);
    EXPECT_EQ(b.iterations, a.iterations);
  }
  ASSERT_EQ(parallel.operating.theta_wc.size(),
            serial.operating.theta_wc.size());
  for (std::size_t i = 0; i < serial.operating.theta_wc.size(); ++i)
    EXPECT_EQ(parallel.operating.theta_wc[i],
              serial.operating.theta_wc[i]);
}

TEST(ParallelLinearization, ThreadCountSweep) {
  const LinearizedModels serial = run_serial();
  // The synthetic problem has a quadratic mirror spec, so the sweep also
  // proves mirror detection survives the fan-out.
  ASSERT_GT(serial.models.size(), serial.worst_cases.size());
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_identical(serial, run_parallel(threads));
  }
}

TEST(ParallelLinearization, MoreThreadsThanSpecs) {
  expect_identical(run_serial(), run_parallel(64));
}

TEST(ParallelLinearization, NominalAblationFallsBackToSerial) {
  // The ablation's shared finite-difference batch is one evaluation
  // block; any thread count must run it serially, untouched.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  LinearizationOptions serial_opts;
  serial_opts.linearize_at_nominal = true;
  const LinearizedModels serial =
      build_linearizations(ev, DesignVec(problem.design.nominal), serial_opts);
  expect_identical(serial, run_parallel(8, /*linearize_at_nominal=*/true));
}

TEST(ParallelLinearization, WorkerEvaluationsChargedToOptimizer) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  (void)build_linearizations(ev, DesignVec(problem.design.nominal), {}, 2);
  // The fan-out must charge every worker evaluation to the optimization
  // budget; the serial path's count is a lower bound (workers start with
  // cold caches, so they may re-simulate points the shared cache reused).
  auto serial_problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator serial_ev(serial_problem);
  (void)build_linearizations(serial_ev,
                             DesignVec(serial_problem.design.nominal));
  EXPECT_GE(ev.counts().optimization, serial_ev.counts().optimization);
  EXPECT_EQ(ev.counts().verification, 0u);
}

TEST(ParallelLinearization, ProbeTotalsIndependentOfThreads) {
  // Every probe is either an evaluation or a cache hit, and workers hand
  // both counts to the caller, so their sum is the serial run's at every
  // thread count (only the split moves: cold worker caches re-simulate).
  const auto probes = [](unsigned threads) {
    auto problem = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator ev(problem);
    (void)build_linearizations(ev, DesignVec(problem.design.nominal), {},
                               threads);
    return ev.counts().optimization + ev.counts().cache_hits;
  };
  const std::size_t serial = probes(1);
  EXPECT_EQ(serial, 165u);
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(probes(threads), serial);
  }
}

TEST(ParallelLinearization, AnalysisSplitKeepsModelsAndCounts) {
  // The two-analysis model runs only each spec's analysis in the searches.
  // Serial and 2-thread runs must still give the single-analysis models bit
  // for bit and charge exactly the single-analysis evaluation counts: a
  // count is a distinct point, however many of its analyses ran.
  const LinearizedModels serial = run_serial();
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    auto single_problem = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator single_ev(single_problem);
    const LinearizedModels single = build_linearizations(
        single_ev, DesignVec(single_problem.design.nominal), {}, threads);
    auto split_problem = testing::make_split_synthetic_problem(2.0, 1.0);
    Evaluator split_ev(split_problem);
    const LinearizedModels split = build_linearizations(
        split_ev, DesignVec(split_problem.design.nominal), {}, threads);

    expect_identical(serial, single);
    expect_identical(serial, split);
    EXPECT_EQ(split_ev.counts().optimization, single_ev.counts().optimization);
    EXPECT_EQ(split_ev.counts().verification, single_ev.counts().verification);
    EXPECT_EQ(split_ev.counts().constraint, single_ev.counts().constraint);
    if (threads == 1) {
      // Serial: the caller's evaluator also did the searches, so its cache
      // hits match too, and the model ran fewer analyses than two per point.
      EXPECT_EQ(split_ev.counts().cache_hits, single_ev.counts().cache_hits);
      const auto& runs =
          dynamic_cast<testing::SplitSyntheticModel&>(*split_problem.model)
              .runs;
      EXPECT_LT(static_cast<std::size_t>(runs[0] + runs[1]),
                2 * split_ev.counts().optimization);
    }
  }
}

TEST(ParallelLinearization, WarmStartedSweepMatchesSerial) {
  // Re-linearizing at a moved design with the previous models warm-starts
  // the mirrored quadratic spec; every thread count must still return the
  // serial models and worst-case points bit for bit.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator first_ev(problem);
  const LinearizedModels previous =
      build_linearizations(first_ev, DesignVec(problem.design.nominal));
  ASSERT_TRUE(previous.worst_cases[1].converged);
  ASSERT_TRUE(previous.worst_cases[1].mirrored);
  ASSERT_FALSE(previous.worst_cases[0].mirrored);

  const DesignVec d_next{2.5, 1.0};
  const auto warm = [&](unsigned threads) {
    auto fresh = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator ev(fresh);
    return build_linearizations(ev, d_next, {}, threads, &previous);
  };
  const std::uint64_t warm_before =
      obs::registry().counters.wc_warm_starts.value();
  const LinearizedModels serial = warm(1);
  if (obs::kEnabled) {  // only the mirrored spec follows its previous point
    EXPECT_EQ(obs::registry().counters.wc_warm_starts.value(),
              warm_before + 1);
  }
  ASSERT_TRUE(serial.worst_cases[1].converged);
  ASSERT_TRUE(serial.worst_cases[1].mirrored);
  // The warm start replaced the multi-start search of the quadratic spec;
  // the linear spec ran its cold search.
  Evaluator cold_ev(problem);
  const LinearizedModels cold = build_linearizations(cold_ev, d_next);
  EXPECT_LT(serial.worst_cases[1].iterations, cold.worst_cases[1].iterations);
  EXPECT_EQ(serial.worst_cases[0].iterations, cold.worst_cases[0].iterations);
  EXPECT_EQ(serial.worst_cases[0].s_wc, cold.worst_cases[0].s_wc);
  expect_identical(serial, warm(2));
}

TEST(ParallelLinearization, OptimizerRouteMatchesSerial) {
  // The full Fig. 6 loop with parallel linearizations reproduces the
  // serial trace bit for bit (same designs, same yields).
  YieldOptimizerOptions base;
  base.max_iterations = 2;
  base.linear_samples = 400;
  base.verification.num_samples = 50;

  auto serial_problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator serial_ev(serial_problem);
  const YieldOptimizationResult serial = optimize_yield(serial_ev, base);

  YieldOptimizerOptions parallel_opts = base;
  parallel_opts.linearization_threads = 4;
  auto parallel_problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator parallel_ev(parallel_problem);
  const YieldOptimizationResult parallel =
      optimize_yield(parallel_ev, parallel_opts);

  ASSERT_EQ(parallel.trace.size(), serial.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(parallel.trace[i].d, serial.trace[i].d);
    EXPECT_EQ(parallel.trace[i].linear_yield, serial.trace[i].linear_yield);
    EXPECT_EQ(parallel.trace[i].verified_yield,
              serial.trace[i].verified_yield);
  }
  EXPECT_EQ(parallel.final_d, serial.final_d);
}

}  // namespace
}  // namespace mayo::core
