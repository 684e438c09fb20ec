// Analysis-split contract of the opamp models: the AC bench and the slew
// bench are independent analyses, so evaluating one of them alone gives
// bitwise the entries the full evaluate() gives -- whatever ran before
// (the other analysis first, or nothing) and whether or not the design
// context that seeds it was evicted in between.  The Evaluator's partial
// cache rows rely on exactly this.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/evaluator.hpp"

namespace mayo::circuits {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::PerfVec;
using linalg::StatPhysVec;
using linalg::StatUnitVec;

struct Point {
  DesignVec d;
  StatPhysVec s;
  OperatingVec theta;
};

/// Seeded random points: designs within +-20% of the initial sizing,
/// standard-normal statistics, operating points on the box corners and
/// the nominal point.  More points than a model holds design contexts, so
/// a second pass over them starts from evicted contexts.
std::vector<Point> random_points(const core::YieldProblem& problem,
                                 std::size_t count) {
  std::mt19937_64 engine(20011);
  std::uniform_real_distribution<double> scale(0.8, 1.2);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<Point> points;
  for (std::size_t k = 0; k < count; ++k) {
    linalg::Vector d = problem.design.nominal;
    for (std::size_t i = 0; i < d.size(); ++i) d[i] *= scale(engine);
    const DesignVec design(problem.design.clamp(d));
    StatUnitVec s_hat(problem.statistical.dimension());
    for (std::size_t i = 0; i < s_hat.size(); ++i) s_hat[i] = normal(engine);
    linalg::Vector theta = problem.operating.nominal;
    if (k % 5 != 0) {  // every fifth point at nominal, the rest on corners
      for (std::size_t i = 0; i < theta.size(); ++i)
        theta[i] = ((k >> i) & 1U) != 0 ? problem.operating.upper[i]
                                        : problem.operating.lower[i];
    }
    points.push_back({design, problem.statistical.to_physical(s_hat, design),
                      OperatingVec(theta)});
  }
  return points;
}

template <class Model>
class AnalysisSplit : public ::testing::Test {
 protected:
  static constexpr core::AnalysisMask kAc =
      core::analysis_bit(Model::kAcAnalysis);
  static constexpr core::AnalysisMask kSlew =
      core::analysis_bit(Model::kSlewAnalysis);

  AnalysisSplit()
      : problem(Model::make_problem()), points(random_points(problem, 20)) {
    Model reference_model;
    for (const Point& p : points)
      reference.push_back(reference_model.evaluate(p.d, p.s, p.theta));
  }

  /// Every entry of `got` that `analysis` measures equals the reference.
  void expect_entries(const Model& model, std::size_t k,
                      core::AnalysisMask analysis, const PerfVec& got) const {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if ((core::analysis_bit(model.analysis_of(i)) & analysis) == 0)
        continue;
      EXPECT_EQ(got[i], reference[k][i]) << "point " << k << " entry " << i;
    }
  }

  /// Runs `analysis` alone at point k and checks its entries.
  void check(Model& model, std::size_t k, core::AnalysisMask analysis) const {
    const Point& p = points[k];
    expect_entries(model, k, analysis,
                   model.evaluate_analyses(p.d, p.s, p.theta, analysis));
  }

  core::YieldProblem problem;
  std::vector<Point> points;
  std::vector<PerfVec> reference;  ///< full evaluate() of a fresh model
};

using Models = ::testing::Types<FoldedCascode, Miller>;
TYPED_TEST_SUITE(AnalysisSplit, Models);

TYPED_TEST(AnalysisSplit, SlewRateIsTheOnlyTransientPerformance) {
  const TypeParam model;
  for (std::size_t i = 0; i < model.num_performances(); ++i)
    EXPECT_EQ(model.analysis_of(i), i == 3 ? TypeParam::kSlewAnalysis
                                           : TypeParam::kAcAnalysis);
  // Both benches converge at every point, so the comparisons below see
  // measured values, not penalties.
  for (const PerfVec& f : this->reference) {
    EXPECT_GT(f[0], 0.0);  // A0 [dB]
    EXPECT_GT(f[3], 0.0);  // SR+ [V/us]
  }
}

TYPED_TEST(AnalysisSplit, AcFirstThenSlewMatchesFullEvaluate) {
  TypeParam model;
  for (std::size_t k = 0; k < this->points.size(); ++k) {
    this->check(model, k, this->kAc);
    this->check(model, k, this->kSlew);
  }
}

TYPED_TEST(AnalysisSplit, SlewFirstThenAcMatchesFullEvaluate) {
  TypeParam model;
  for (std::size_t k = 0; k < this->points.size(); ++k) {
    this->check(model, k, this->kSlew);
    this->check(model, k, this->kAc);
  }
}

TYPED_TEST(AnalysisSplit, SecondAnalysisAfterContextEvictionMatches) {
  // 20 distinct (d, theta) pairs against a 16-entry context FIFO: by the
  // second pass the contexts the first pass built are gone.
  TypeParam ac_first;
  TypeParam slew_first;
  for (std::size_t k = 0; k < this->points.size(); ++k) {
    this->check(ac_first, k, this->kAc);
    this->check(slew_first, k, this->kSlew);
  }
  for (std::size_t k = 0; k < this->points.size(); ++k) {
    this->check(ac_first, k, this->kSlew);
    this->check(slew_first, k, this->kAc);
  }
}

TYPED_TEST(AnalysisSplit, FullMaskAndBatchMatchEvaluate) {
  TypeParam model;
  for (std::size_t k = 0; k < this->points.size(); ++k) {
    const Point& p = this->points[k];
    EXPECT_EQ(
        model.evaluate_analyses(p.d, p.s, p.theta, TypeParam::kAllAnalyses),
        this->reference[k]);
  }
  // A one-row batch at a (d, theta) whose context a slew-only call built.
  TypeParam fresh;
  const Point& p = this->points[1];
  this->check(fresh, 1, this->kSlew);
  linalg::Matrixd s_block(1, p.s.size());
  for (std::size_t i = 0; i < p.s.size(); ++i) s_block(0, i) = p.s[i];
  linalg::Matrixd out(1, fresh.num_performances());
  fresh.evaluate_batch(p.d,
                       linalg::StatPhysBlock(linalg::ConstMatrixView(s_block)),
                       p.theta, linalg::PerfBlockView(linalg::MatrixView(out)));
  for (std::size_t i = 0; i < out.cols(); ++i)
    EXPECT_EQ(out(0, i), this->reference[1][i]) << i;
}

TYPED_TEST(AnalysisSplit, FailedSlewBenchPenalizesOnlySlewRate) {
  // A 1 kV input step cannot be followed within the Newton step clamp, so
  // the transient fails at every point while the AC bench is untouched
  // (sr_step only drives the slew bench).
  typename TypeParam::Options options;
  options.sr_step = 1e3;
  TypeParam model(options);
  for (std::size_t k = 0; k < 4; ++k) {
    const Point& p = this->points[k];
    const PerfVec full = model.evaluate(p.d, p.s, p.theta);
    EXPECT_EQ(full[3], 0.0) << "point " << k;  // SR+ penalty
    // The AC entries are the healthy model's, alone or with the failed
    // transient alongside.
    this->expect_entries(model, k, this->kAc, full);
    this->check(model, k, this->kAc);
    EXPECT_EQ(model.evaluate_analyses(p.d, p.s, p.theta, this->kSlew)[3], 0.0);
  }

  // A cached row built from the failed slew bench first and completed by a
  // full request equals the row of a single full request.
  core::YieldProblem problem = TypeParam::make_problem(options);
  core::Evaluator completed(problem);
  core::Evaluator single(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta(problem.operating.upper);
  StatUnitVec s_hat(problem.statistical.dimension());
  for (std::size_t i = 0; i < s_hat.size(); ++i)
    s_hat[i] = i % 2 == 0 ? 0.5 : -0.5;
  EXPECT_EQ(completed.margin(3, d, s_hat, theta),
            problem.specs[3].margin(0.0));
  const PerfVec row = completed.performances(d, s_hat, theta);
  EXPECT_EQ(row, single.performances(d, s_hat, theta));
  EXPECT_GT(row[0], 0.0);  // A0 measured, not the failure penalty
  EXPECT_EQ(completed.counts().optimization, 1u);
  EXPECT_EQ(completed.counts().cache_hits, 1u);
}

}  // namespace
}  // namespace mayo::circuits
