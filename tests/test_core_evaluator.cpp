#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/obs.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::MarginVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;
using linalg::Vector;
using testing::SplitSyntheticModel;
using testing::SyntheticModel;

TEST(Evaluator, MarginsMatchModel) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const MarginVec m = ev.margins(d, ev.nominal_s_hat(), OperatingVec{0.0});
  EXPECT_NEAR(m[0], 3.0, 1e-12);          // d0 + d1 at s=0, theta=0
  EXPECT_NEAR(m[1], 6.0, 1e-12);          // d0 + 4
  EXPECT_NEAR(ev.margin(1, d, ev.nominal_s_hat(), OperatingVec{0.0}),
              6.0, 1e-12);
}

TEST(Evaluator, CountsAndCaches) {
  auto problem = testing::make_synthetic_problem();
  auto* model = dynamic_cast<SyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const StatUnitVec s = ev.nominal_s_hat();
  const OperatingVec theta{0.0};

  ev.performances(d, s, theta);
  EXPECT_EQ(ev.counts().optimization, 1u);
  EXPECT_EQ(model->evaluations, 1);

  // Identical call: served from cache.
  ev.performances(d, s, theta);
  ev.margins(d, s, theta);
  EXPECT_EQ(ev.counts().optimization, 1u);
  EXPECT_EQ(ev.counts().cache_hits, 2u);
  EXPECT_EQ(model->evaluations, 1);

  // Different budget attribution.
  OperatingVec theta2{0.5};
  ev.performances(d, s, theta2, Budget::kVerification);
  EXPECT_EQ(ev.counts().verification, 1u);
  EXPECT_EQ(ev.counts().total(), 2u);

  ev.clear_cache();
  ev.performances(d, s, theta);
  EXPECT_EQ(model->evaluations, 3);
}

TEST(Evaluator, ConstraintCaching) {
  auto problem = testing::make_synthetic_problem();
  auto* model = dynamic_cast<SyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const Vector c = ev.constraints(d);
  EXPECT_NEAR(c[0], 1.0, 1e-12);  // d0 - d1 = 1
  EXPECT_NEAR(c[1], 3.0, 1e-12);  // 6 - 3
  ev.constraints(d);
  EXPECT_EQ(model->constraint_evaluations, 1);
  EXPECT_EQ(ev.counts().constraint, 1u);
}

TEST(Evaluator, SizeValidation) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  EXPECT_THROW(ev.performances(DesignVec{1.0}, ev.nominal_s_hat(),
                               OperatingVec{0.0}),
               std::invalid_argument);
  EXPECT_THROW(ev.performances(d, StatUnitVec{1.0}, OperatingVec{0.0}),
               std::invalid_argument);
  EXPECT_THROW(ev.performances(d, ev.nominal_s_hat(), OperatingVec{}),
               std::invalid_argument);
  EXPECT_THROW(ev.margin(5, d, ev.nominal_s_hat(), OperatingVec{0.0}),
               std::out_of_range);
}

TEST(Evaluator, GradientSMatchesAnalytic) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  // Linear spec: grad_s = (-1, -2, 0) exactly (forward differences exact
  // for linear functions).
  const StatUnitVec g = ev.margin_gradient_s(0, d, ev.nominal_s_hat(), theta);
  EXPECT_NEAR(g[0], -1.0, 1e-9);
  EXPECT_NEAR(g[1], -2.0, 1e-9);
  EXPECT_NEAR(g[2], 0.0, 1e-9);
}

TEST(Evaluator, GradientsSharedAcrossSpecs) {
  auto problem = testing::make_synthetic_problem();
  auto* model = dynamic_cast<SyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  model->evaluations = 0;
  ev.clear_cache();
  const linalg::Matrixd grads =
      ev.margin_gradients_s(d, ev.nominal_s_hat(), theta);
  // base + 3 shifted points = 4 evaluations for BOTH specs.
  EXPECT_EQ(model->evaluations, 4);
  EXPECT_NEAR(grads(0, 1), -2.0, 1e-9);
  // Quadratic spec at s=0 has zero gradient up to the FD offset
  // (margin = 4+d0 - (s1-s2)^2; forward diff gives -h).
  EXPECT_NEAR(grads(1, 0), 0.0, 1e-9);
  EXPECT_LT(std::abs(grads(1, 1)), 0.1);
}

TEST(Evaluator, GradientDMatchesAnalytic) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const DesignVec g = ev.margin_gradient_d(0, d, ev.nominal_s_hat(), theta);
  EXPECT_NEAR(g[0], 1.0, 1e-6);
  EXPECT_NEAR(g[1], 1.0, 1e-6);
  const DesignVec g1 = ev.margin_gradient_d(1, d, ev.nominal_s_hat(), theta);
  EXPECT_NEAR(g1[0], 1.0, 1e-6);
  EXPECT_NEAR(g1[1], 0.0, 1e-6);
}

TEST(Evaluator, ConstraintJacobian) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const linalg::Matrixd jac =
      ev.constraint_jacobian(DesignVec(problem.design.nominal));
  EXPECT_NEAR(jac(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(jac(0, 1), -1.0, 1e-6);
  EXPECT_NEAR(jac(1, 0), -1.0, 1e-6);
  EXPECT_NEAR(jac(1, 1), -1.0, 1e-6);
}

TEST(Evaluator, AppliesCovarianceTransform) {
  // Scale one statistical parameter: the evaluator must hand the model
  // physical values sigma * s_hat.
  auto problem = testing::make_synthetic_problem();
  stats::CovarianceModel cov;
  cov.add(stats::StatParam::global("s0", 0.0, 2.0));  // sigma = 2
  cov.add(stats::StatParam::global("s1", 0.0, 1.0));
  cov.add(stats::StatParam::global("s2", 0.0, 1.0));
  problem.statistical = std::move(cov);
  Evaluator ev(problem);
  StatUnitVec s_hat(3);
  s_hat[0] = 1.0;  // physical s0 = 2
  const double m = ev.margin(0, DesignVec(problem.design.nominal), s_hat,
                             OperatingVec{0.0});
  // margin = d0 + d1 - s0_phys = 3 - 2 = 1.
  EXPECT_NEAR(m, 1.0, 1e-12);
}

TEST(Evaluator, DesignDependentSigmaEntersGradientD) {
  // With sigma(d) = d0 for s0, f = d0+d1 - d0*s_hat0 - ...; at s_hat0 = 1
  // the d0-gradient becomes 1 - 1 = 0: the variance effect is visible to
  // the design gradient (paper Sec. 4).
  auto problem = testing::make_synthetic_problem();
  stats::CovarianceModel cov;
  stats::StatParam p0;
  p0.name = "s0";
  p0.sigma = [](const DesignVec& d) { return d[0]; };
  cov.add(std::move(p0));
  cov.add(stats::StatParam::global("s1", 0.0, 1.0));
  cov.add(stats::StatParam::global("s2", 0.0, 1.0));
  problem.statistical = std::move(cov);
  Evaluator ev(problem);
  StatUnitVec s_hat(3);
  s_hat[0] = 1.0;
  const DesignVec g = ev.margin_gradient_d(
      0, DesignVec(problem.design.nominal), s_hat, OperatingVec{0.0});
  EXPECT_NEAR(g[0], 0.0, 1e-6);
  EXPECT_NEAR(g[1], 1.0, 1e-6);
}

// -- analysis-aware evaluation ----------------------------------------------
//
// SplitSyntheticModel computes the synthetic performances in two analyses
// (spec 0 in analysis 0, spec 1 in analysis 1) and counts the runs of each.

/// Point k of a small fixed set of s_hat probes.
StatUnitVec probe_point(double k) { return StatUnitVec{0.1 * k, -0.2 * k, 0.3}; }

/// Reads the Evaluator's analysis counters (0 under MAYO_OBS=OFF).
struct AnalysisTally {
  std::uint64_t run = obs::registry().counters.eval_analyses.value();
  std::uint64_t skipped =
      obs::registry().counters.eval_analyses_skipped.value();
};

TEST(EvaluatorAnalyses, MarginRunsOnlyTheSpecsAnalysis) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  EXPECT_NEAR(ev.margin(0, d, ev.nominal_s_hat(), theta), 3.0, 1e-12);
  EXPECT_EQ(model->runs[0], 1);
  EXPECT_EQ(model->runs[1], 0);
  EXPECT_EQ(ev.counts().optimization, 1u);
  EXPECT_EQ(ev.counts().cache_hits, 0u);

  // The spec-1 gradient completes the base row and probes 3 new points,
  // all with analysis 1 only.
  ev.margin_gradient_s(1, d, ev.nominal_s_hat(), theta);
  EXPECT_EQ(model->runs[0], 1);
  EXPECT_EQ(model->runs[1], 4);
  EXPECT_EQ(ev.counts().optimization, 4u);
  EXPECT_EQ(ev.counts().cache_hits, 1u);
}

TEST(EvaluatorAnalyses, LaterSpecCompletesTheRowAsACacheHit) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const StatUnitVec s = probe_point(1.0);
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator reference(reference_problem);
  const MarginVec expected = reference.margins(d, s, theta);
  const AnalysisTally before;

  // Both margins equal the single-analysis model's, bit for bit.
  const double m0 = ev.margin(0, d, s, theta);
  const double m1 = ev.margin(1, d, s, theta);
  EXPECT_EQ(m0, expected[0]);
  EXPECT_EQ(m1, expected[1]);
  EXPECT_EQ(model->runs, (std::array<int, 2>{1, 1}));
  EXPECT_EQ(ev.counts().optimization, 1u);  // one distinct point
  EXPECT_EQ(ev.counts().cache_hits, 1u);    // the completion

  // The row is complete now: nothing runs again.
  EXPECT_EQ(ev.margin(0, d, s, theta), m0);
  EXPECT_EQ(ev.margins(d, s, theta), expected);
  EXPECT_EQ(model->runs, (std::array<int, 2>{1, 1}));
  EXPECT_EQ(ev.counts().cache_hits, 3u);

#if MAYO_OBS_ENABLED
  const AnalysisTally after;
  EXPECT_EQ(after.run - before.run, 2u);          // one run per analysis
  EXPECT_EQ(after.skipped - before.skipped, 1u);  // analysis 1 at first
#endif
}

TEST(EvaluatorAnalyses, FullRequestsCompletePartialRows) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator reference(reference_problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.5};

  ev.margin(1, d, probe_point(0.0), theta);
  EXPECT_EQ(ev.performances(d, probe_point(0.0), theta),
            reference.performances(d, probe_point(0.0), theta));
  ev.margin(0, d, probe_point(1.0), theta);
  EXPECT_EQ(ev.margins(d, probe_point(1.0), theta),
            reference.margins(d, probe_point(1.0), theta));
  EXPECT_EQ(model->runs, (std::array<int, 2>{2, 2}));
  EXPECT_EQ(ev.counts().optimization, 2u);
  EXPECT_EQ(ev.counts().cache_hits, 2u);

  // Batch rows: a partial row, a complete row and a new point.
  ev.margin(0, d, probe_point(2.0), theta);
  linalg::Matrixd block(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    const StatUnitVec s = probe_point(r == 0 ? 2.0 : r == 1 ? 0.0 : 3.0);
    for (std::size_t c = 0; c < 3; ++c) block(r, c) = s[c];
  }
  linalg::Matrixd out(3, 2);
  EvalWorkspace ws;
  ev.margins_batch(d, linalg::StatUnitBlock(linalg::ConstMatrixView(block)),
                   theta, linalg::MarginBlockView(linalg::MatrixView(out)), ws);
  for (std::size_t r = 0; r < 3; ++r) {
    const MarginVec expected = reference.margins(
        d, probe_point(r == 0 ? 2.0 : r == 1 ? 0.0 : 3.0), theta);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out(r, i), expected[i]);
  }
  // Row 0 ran analysis 1 to complete, row 2 ran both.
  EXPECT_EQ(model->runs, (std::array<int, 2>{4, 4}));
  EXPECT_EQ(ev.counts().optimization, 4u);
  EXPECT_EQ(ev.counts().cache_hits, 4u);
}

TEST(EvaluatorAnalyses, BoundedCacheEvictsPartialRowsInInsertionOrder) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem, /*cache_capacity=*/2);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};

  ev.margin(0, d, probe_point(1.0), theta);  // inserts p1
  ev.margin(1, d, probe_point(2.0), theta);  // inserts p2
  ev.margin(1, d, probe_point(1.0), theta);  // completes p1 in place
  EXPECT_EQ(ev.cache_size(), 2u);
  EXPECT_EQ(ev.counts().optimization, 2u);
  EXPECT_EQ(ev.counts().cache_hits, 1u);

  // p1 was touched last but inserted first: the completion kept its FIFO
  // slot, so p3 evicts p1.
  ev.margin(0, d, probe_point(3.0), theta);
  EXPECT_EQ(ev.cache_size(), 2u);
  ev.margin(1, d, probe_point(2.0), theta);  // p2 still cached
  EXPECT_EQ(ev.counts().optimization, 3u);
  EXPECT_EQ(ev.counts().cache_hits, 2u);
  ev.margin(0, d, probe_point(1.0), theta);  // p1 is gone: simulated again
  EXPECT_EQ(ev.counts().optimization, 4u);
  EXPECT_EQ(model->runs, (std::array<int, 2>{3, 2}));
}

/// A fixed request mix: scalar margins of both specs, per-spec s-gradients
/// at a shared point, a spec-1 d-gradient, full margins and a batch.
EvaluationCounts run_request_mix(Evaluator& ev, const DesignVec& d) {
  const OperatingVec theta{1.0};
  const StatUnitVec s = probe_point(1.0);
  ev.margin(0, d, s, theta);
  ev.margin(1, d, s, theta);
  ev.margin_gradient_s(0, d, s, theta);
  ev.margin_gradient_s(1, d, s, theta);
  ev.margin_gradient_d(1, d, s, theta);
  ev.margins(d, probe_point(2.0), theta);
  ev.margin(1, d, probe_point(2.0), theta);
  linalg::Matrixd block(2, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    block(0, c) = s[c];
    block(1, c) = probe_point(4.0)[c];
  }
  linalg::Matrixd out(2, 2);
  EvalWorkspace ws;
  ev.margins_batch(d, linalg::StatUnitBlock(linalg::ConstMatrixView(block)),
                   theta, linalg::MarginBlockView(linalg::MatrixView(out)), ws);
  return ev.counts();
}

TEST(EvaluatorAnalyses, DefaultSingleAnalysisModelKeepsHistoricalCounts) {
  // The default analysis_of puts everything in one analysis: every request
  // is a full request, and the counts are those of the plain cache.
  auto problem = testing::make_synthetic_problem();
  auto* model = dynamic_cast<SyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const AnalysisTally before;
  const EvaluationCounts counts =
      run_request_mix(ev, DesignVec(problem.design.nominal));
  // Distinct points: base, 3 s-probes, 2 d-probes, probe 2, probe 4.
  EXPECT_EQ(counts.optimization, 8u);
  EXPECT_EQ(counts.cache_hits, 1u + 1u + 4u + 1u + 1u + 1u);
  EXPECT_EQ(model->evaluations, 8);
#if MAYO_OBS_ENABLED
  const AnalysisTally after;
  EXPECT_EQ(after.run - before.run, 8u);
  EXPECT_EQ(after.skipped - before.skipped, 0u);
#endif

  // The two-analysis model spends fewer analysis runs on the same mix but
  // reports exactly the same counts: a count is a distinct point.
  auto split_problem = testing::make_split_synthetic_problem();
  auto* split = dynamic_cast<SplitSyntheticModel*>(split_problem.model.get());
  Evaluator split_ev(split_problem);
  const EvaluationCounts split_counts =
      run_request_mix(split_ev, DesignVec(split_problem.design.nominal));
  EXPECT_EQ(split_counts.optimization, counts.optimization);
  EXPECT_EQ(split_counts.verification, counts.verification);
  EXPECT_EQ(split_counts.constraint, counts.constraint);
  EXPECT_EQ(split_counts.cache_hits, counts.cache_hits);
  EXPECT_LT(split->runs[0] + split->runs[1], 2 * model->evaluations);
}

// -- masked batches -----------------------------------------------------------

/// Rows of probe points `ks` (s_hat space).
linalg::Matrixd probe_block(std::initializer_list<double> ks) {
  linalg::Matrixd block(ks.size(), 3);
  std::size_t r = 0;
  for (const double k : ks) {
    const StatUnitVec s = probe_point(k);
    for (std::size_t c = 0; c < 3; ++c) block(r, c) = s[c];
    ++r;
  }
  return block;
}

/// performances_batch of `block` for `analyses` into a fresh matrix.
linalg::Matrixd masked_batch(Evaluator& ev, const DesignVec& d,
                             const linalg::Matrixd& block,
                             const OperatingVec& theta, AnalysisMask analyses,
                             EvalWorkspace& ws) {
  linalg::Matrixd out(block.rows(), ev.num_specs());
  ev.performances_batch(
      d, linalg::StatUnitBlock(linalg::ConstMatrixView(block)), theta,
      analyses, linalg::PerfBlockView(linalg::MatrixView(out)), ws,
      Budget::kVerification);
  return out;
}

TEST(EvaluatorAnalyses, MaskedBatchRunsOnlyTheMaskedAnalysisPerMiss) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator reference(reference_problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.5};
  EXPECT_EQ(ev.spec_analyses(0), analysis_bit(0));
  EXPECT_EQ(ev.spec_analyses(1), analysis_bit(1));
  std::vector<linalg::PerfVec> expected;
  for (const double k : {1.0, 2.0, 3.0})
    expected.push_back(reference.performances(d, probe_point(k), theta));
  const AnalysisTally before;

  EvalWorkspace ws;
  const linalg::Matrixd out =
      masked_batch(ev, d, probe_block({1.0, 2.0, 3.0}), theta,
                   analysis_bit(1), ws);
  const AnalysisTally after;
  EXPECT_EQ(model->batch_calls, 1);
  EXPECT_EQ(model->runs, (std::array<int, 2>{0, 3}));
  EXPECT_EQ(ev.counts().verification, 3u);
  EXPECT_EQ(ev.counts().cache_hits, 0u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(out(r, 1), expected[r][1]) << "row " << r;
    EXPECT_EQ(out(r, 0), 0.0) << "row " << r;  // not kUnrequested
  }

#if MAYO_OBS_ENABLED
  EXPECT_EQ(after.run - before.run, 3u);
  EXPECT_EQ(after.skipped - before.skipped, 3u);  // analysis 0 per miss
#endif
}

TEST(EvaluatorAnalyses, FullRequestsCompleteMaskedBatchRowsAsHits) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator reference(reference_problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{-0.5};
  std::vector<linalg::PerfVec> expected;
  for (const double k : {1.0, 2.0, 3.0})
    expected.push_back(reference.performances(d, probe_point(k), theta));
  EvalWorkspace ws;
  masked_batch(ev, d, probe_block({1.0, 2.0}), theta, analysis_bit(0), ws);
  const AnalysisTally before;

  // A full margins_batch runs analysis 1 for both rows and nothing else.
  const linalg::Matrixd block = probe_block({1.0, 2.0});
  linalg::Matrixd margins(2, 2);
  ev.margins_batch(d, linalg::StatUnitBlock(linalg::ConstMatrixView(block)),
                   theta, linalg::MarginBlockView(linalg::MatrixView(margins)),
                   ws);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ(margins(r, i), problem.specs[i].margin(expected[r][i]))
          << "row " << r << " spec " << i;
  EXPECT_EQ(model->runs, (std::array<int, 2>{2, 2}));
  EXPECT_EQ(ev.counts().verification, 2u);
  EXPECT_EQ(ev.counts().optimization, 0u);
  EXPECT_EQ(ev.counts().cache_hits, 2u);

  // The rows are complete now: a scalar full request is a plain hit.
  EXPECT_EQ(ev.performances(d, probe_point(2.0), theta), expected[1]);
  EXPECT_EQ(model->runs, (std::array<int, 2>{2, 2}));
  EXPECT_EQ(ev.counts().cache_hits, 3u);

  // A masked batch completes a row a scalar single-spec probe left
  // partial, again as a hit.
  ev.margin(1, d, probe_point(3.0), theta, Budget::kVerification);
  const linalg::Matrixd out =
      masked_batch(ev, d, probe_block({3.0}), theta, analysis_bit(0), ws);
  const AnalysisTally after;
  EXPECT_EQ(out(0, 0), expected[2][0]);
  EXPECT_EQ(model->runs, (std::array<int, 2>{3, 3}));
  EXPECT_EQ(ev.counts().verification, 3u);
  EXPECT_EQ(ev.counts().cache_hits, 4u);

#if MAYO_OBS_ENABLED
  // Completions run only what is missing and skip nothing new; the one
  // new point (probe 3) skipped analysis 0 at first.
  EXPECT_EQ(after.run - before.run, 4u);
  EXPECT_EQ(after.skipped - before.skipped, 1u);
#endif
}

TEST(EvaluatorAnalyses, DuplicateRowInAMaskedBlockIsSimulatedOnce) {
  auto problem = testing::make_split_synthetic_problem();
  auto* model = dynamic_cast<SplitSyntheticModel*>(problem.model.get());
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  EvalWorkspace ws;
  const linalg::Matrixd out = masked_batch(
      ev, d, probe_block({1.0, 2.0, 1.0}), theta, analysis_bit(0), ws);
  EXPECT_EQ(model->runs, (std::array<int, 2>{2, 0}));
  EXPECT_EQ(ev.counts().verification, 2u);
  EXPECT_EQ(ev.counts().cache_hits, 1u);
  EXPECT_EQ(out(2, 0), out(0, 0));
  EXPECT_EQ(out(2, 1), 0.0);
}

TEST(EvaluatorAnalyses, MaskedBatchRejectsAnEmptyOrForeignMask) {
  auto problem = testing::make_split_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  EvalWorkspace ws;
  const linalg::Matrixd block = probe_block({1.0});
  EXPECT_THROW(masked_batch(ev, d, block, theta, 0, ws), std::invalid_argument);
  EXPECT_THROW(masked_batch(ev, d, block, theta, analysis_bit(2), ws),
               std::invalid_argument);
  EXPECT_THROW(masked_batch(ev, d, block, theta, 0b101, ws),
               std::invalid_argument);
  EXPECT_EQ(ev.counts().total(), 0u);

  // The single-analysis model has analysis 0 only.
  auto single_problem = testing::make_synthetic_problem();
  Evaluator single(single_problem);
  EXPECT_THROW(masked_batch(single, d, block, theta, analysis_bit(1), ws),
               std::invalid_argument);
  EXPECT_NO_THROW(masked_batch(single, d, block, theta, analysis_bit(0), ws));
}

TEST(EvaluatorAnalyses, RejectsAnAnalysisIndexBeyondTheMask) {
  class TooManyAnalyses final : public PerformanceModel {
   public:
    std::size_t num_performances() const override { return 2; }
    std::size_t num_constraints() const override { return 0; }
    std::size_t analysis_of(std::size_t performance) const override {
      return performance == 0 ? 0 : kMaxAnalyses;
    }
    linalg::PerfVec evaluate(const DesignVec&, const linalg::StatPhysVec&,
                             const OperatingVec&) override {
      return linalg::PerfVec(2);
    }
    Vector constraints(const DesignVec&) override { return Vector(); }
  };
  auto problem = testing::make_synthetic_problem();
  problem.model = std::make_shared<TooManyAnalyses>();
  EXPECT_THROW(Evaluator ev(problem), std::invalid_argument);
}

}  // namespace
}  // namespace mayo::core
