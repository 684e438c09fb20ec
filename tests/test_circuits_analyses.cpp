// Analysis-split contract of the opamp models: the operating point, the
// 1 Hz gain, the unity-gain crossing and the slew transient are
// independent analyses, so evaluating one of them alone gives bitwise the
// entries the full evaluate() gives -- whatever ran before (another
// analysis first, or nothing) and whether or not the design context that
// seeds it was evicted in between.  The Evaluator's partial cache rows
// rely on exactly this.  The verifiers built on it -- plain MC and
// importance sampling, which request only the analyses their specs read --
// report exactly what they report through a wrapper that hides the split,
// and each operating corner runs only the AC probes its specs read.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/evaluator.hpp"
#include "core/is_verification.hpp"
#include "core/verification.hpp"
#include "obs/obs.hpp"

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
  /// Every analysis of the model, one bit each.
  static constexpr std::array<core::AnalysisMask, 4> kAnalyses{
      core::analysis_bit(Model::kOperatingPointAnalysis),
      core::analysis_bit(Model::kGainAnalysis),
      core::analysis_bit(Model::kCrossingAnalysis),
      core::analysis_bit(Model::kSlewAnalysis)};
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
  // Spec order A0, f_t, CMRR (folded cascode) or PM (Miller), SR+, power:
  // power reads the operating point, A0 and CMRR the 1 Hz gain, f_t and
  // PM the unity-gain crossing, SR+ the transient.
  constexpr bool kFolded = std::is_same_v<TypeParam, FoldedCascode>;
  const std::array<std::size_t, 5> expected{
      TypeParam::kGainAnalysis, TypeParam::kCrossingAnalysis,
      kFolded ? TypeParam::kGainAnalysis : TypeParam::kCrossingAnalysis,
      TypeParam::kSlewAnalysis, TypeParam::kOperatingPointAnalysis};
  const TypeParam model;
  ASSERT_EQ(model.num_performances(), expected.size());
  for (std::size_t i = 0; i < model.num_performances(); ++i)
    EXPECT_EQ(model.analysis_of(i), expected[i]) << i;
  // Both benches converge at every point, so the comparisons below see
  // measured values, not penalties.
  for (const PerfVec& f : this->reference) {
    EXPECT_GT(f[0], 0.0);  // A0 [dB]
    EXPECT_GT(f[3], 0.0);  // SR+ [V/us]
  }
}

TYPED_TEST(AnalysisSplit, EachAnalysisAloneMatchesFullEvaluate) {
  for (const core::AnalysisMask analysis : this->kAnalyses) {
    TypeParam model;
    for (std::size_t k = 0; k < this->points.size(); ++k)
      this->check(model, k, analysis);
  }
}

TYPED_TEST(AnalysisSplit, EachOrderedPairMatchesFullEvaluate) {
  // The second analysis of a pair finds the context sections and the AC
  // session state the first one left at the same (d, theta).
  for (const core::AnalysisMask first : this->kAnalyses) {
    for (const core::AnalysisMask second : this->kAnalyses) {
      if (first == second) continue;
      TypeParam model;
      for (std::size_t k = 0; k < this->points.size(); ++k) {
        this->check(model, k, first);
        this->check(model, k, second);
      }
    }
  }
}

TYPED_TEST(AnalysisSplit, SecondAnalysisAfterContextEvictionMatches) {
  // 20 distinct (d, theta) pairs against a 16-entry context FIFO: by the
  // second pass the contexts the first pass built are gone.
  for (const core::AnalysisMask first : this->kAnalyses) {
    for (const core::AnalysisMask second : this->kAnalyses) {
      if (first == second) continue;
      TypeParam model;
      for (std::size_t k = 0; k < this->points.size(); ++k)
        this->check(model, k, first);
      for (std::size_t k = 0; k < this->points.size(); ++k)
        this->check(model, k, second);
    }
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
    this->expect_entries(model, k, TypeParam::kAcAnalyses, full);
    this->check(model, k, TypeParam::kAcAnalyses);
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

// -- verification through the split -----------------------------------------

/// Forwards the mandatory PerformanceModel virtuals only, as a timing
/// decorator does: the wrapped model presents the default single
/// analysis, so every request through it runs both benches.
class OneAnalysisView final : public core::PerformanceModel {
 public:
  explicit OneAnalysisView(std::unique_ptr<core::PerformanceModel> inner)
      : inner_(std::move(inner)) {}

  std::size_t num_performances() const override {
    return inner_->num_performances();
  }
  std::size_t num_constraints() const override {
    return inner_->num_constraints();
  }
  std::vector<std::string> constraint_names() const override {
    return inner_->constraint_names();
  }
  PerfVec evaluate(const DesignVec& d, const StatPhysVec& s,
                   const OperatingVec& theta) override {
    return inner_->evaluate(d, s, theta);
  }
  void evaluate_batch(const DesignVec& d, linalg::StatPhysBlock s_block,
                      const OperatingVec& theta,
                      linalg::PerfBlockView out) override {
    inner_->evaluate_batch(d, s_block, theta, out);
  }
  linalg::Vector constraints(const DesignVec& d) override {
    return inner_->constraints(d);
  }
  std::unique_ptr<core::PerformanceModel> clone() const override {
    return std::make_unique<OneAnalysisView>(inner_->clone());
  }

 private:
  std::unique_ptr<core::PerformanceModel> inner_;
};

/// Forwards every PerformanceModel virtual, the analysis split included,
/// and charges the AC obs counters each evaluation moves to the operating
/// point it ran at.  Serial use only: the counters are process-wide.
class AcProbeTally final : public core::PerformanceModel {
 public:
  struct Corner {
    std::uint64_t rows = 0;
    std::uint64_t stamps = 0;
    std::uint64_t solves = 0;
    std::uint64_t factorizations = 0;
  };

  explicit AcProbeTally(std::unique_ptr<core::PerformanceModel> inner)
      : inner_(std::move(inner)) {}

  std::size_t num_performances() const override {
    return inner_->num_performances();
  }
  std::size_t analysis_of(std::size_t performance) const override {
    return inner_->analysis_of(performance);
  }
  std::size_t num_constraints() const override {
    return inner_->num_constraints();
  }
  PerfVec evaluate(const DesignVec& d, const StatPhysVec& s,
                   const OperatingVec& theta) override {
    PerfVec out;
    tally(theta, 1, [&] { out = inner_->evaluate(d, s, theta); });
    return out;
  }
  PerfVec evaluate_analyses(const DesignVec& d, const StatPhysVec& s,
                            const OperatingVec& theta,
                            core::AnalysisMask analyses) override {
    PerfVec out;
    tally(theta, 1,
          [&] { out = inner_->evaluate_analyses(d, s, theta, analyses); });
    return out;
  }
  void evaluate_batch_analyses(const DesignVec& d,
                               linalg::StatPhysBlock s_block,
                               const OperatingVec& theta,
                               core::AnalysisMask analyses,
                               linalg::PerfBlockView out) override {
    tally(theta, s_block.rows(), [&] {
      inner_->evaluate_batch_analyses(d, s_block, theta, analyses, out);
    });
  }
  linalg::Vector constraints(const DesignVec& d) override {
    return inner_->constraints(d);
  }

  /// Tallies of the evaluations at operating point `theta`.
  Corner at(const OperatingVec& theta) const {
    const auto it = corners_.find(key(theta));
    return it == corners_.end() ? Corner{} : it->second;
  }

 private:
  template <class Call>
  void tally(const OperatingVec& theta, std::size_t rows, Call&& call) {
    const obs::Counters& c = obs::registry().counters;
    const std::uint64_t stamps = c.ac_stamps.value();
    const std::uint64_t solves = c.ac_probes.value();
    const std::uint64_t factorizations = c.ac_factorizations.value();
    call();
    Corner& corner = corners_[key(theta)];
    corner.rows += rows;
    corner.stamps += c.ac_stamps.value() - stamps;
    corner.solves += c.ac_probes.value() - solves;
    corner.factorizations += c.ac_factorizations.value() - factorizations;
  }

  static std::vector<double> key(const OperatingVec& theta) {
    return std::vector<double>(theta.begin(), theta.end());
  }

  std::unique_ptr<core::PerformanceModel> inner_;
  std::map<std::vector<double>, Corner> corners_;
};

/// The folded cascode optimized at Table-7 options, seed 42 (the design
/// the benchmark's verification workload pins).
DesignVec optimized_fc_design() {
  return DesignVec{7.9969771444780079e-05, 2.6006396264899676e-05,
                   3.8154545795207499e-05, 1.9622502321068214e-05,
                   1.9101235641826773e-05, 4.0000000000000003e-05,
                   5.0000000000000002e-05};
}

class MaskedVerification : public ::testing::Test {
 protected:
  MaskedVerification()
      : split(FoldedCascode::make_problem()),
        view(FoldedCascode::make_problem()),
        d(optimized_fc_design()) {
    view.model = std::make_shared<OneAnalysisView>(
        std::make_unique<FoldedCascode>());
    // The worst-case corners at this design: A0, ft and SR+ at (hot, low
    // vdd), CMRR at (cold, high vdd), power at (hot, high vdd).  Only the
    // first corner reads the slew bench.
    const linalg::Vector& lo = split.operating.lower;
    const linalg::Vector& hi = split.operating.upper;
    const OperatingVec hot_low{hi[0], lo[1]};
    theta_wc = {hot_low, hot_low, OperatingVec{lo[0], hi[1]}, hot_low,
                OperatingVec{hi[0], hi[1]}};
    // IS shifts of norm 2 along one statistical axis per spec.
    for (std::size_t i = 0; i < split.num_specs(); ++i) {
      StatUnitVec mu(split.statistical.dimension());
      mu[i] = i % 2 == 0 ? 2.0 : -2.0;
      s_wc.push_back(mu);
    }
  }

  static std::uint64_t tran_solves() {
    return obs::registry().counters.tran_solves.value();
  }

  /// `split` with its model behind an AcProbeTally.
  core::YieldProblem tallied(AcProbeTally*& tally) const {
    core::YieldProblem problem = split;
    auto model = std::make_shared<AcProbeTally>(
        std::make_unique<FoldedCascode>());
    tally = model.get();
    problem.model = model;
    return problem;
  }

  /// The power corner runs the DC solve alone; the CMRR corner one stamp
  /// and two solves, A0 and the common-mode phasor, on one factorization.
  void expect_power_and_cmrr_corner_probes(const AcProbeTally& tally) const {
    const AcProbeTally::Corner power = tally.at(theta_wc[4]);
    EXPECT_GT(power.rows, 0u);
    EXPECT_EQ(power.stamps, 0u);
    EXPECT_EQ(power.solves, 0u);
    EXPECT_EQ(power.factorizations, 0u);
    const AcProbeTally::Corner cmrr = tally.at(theta_wc[2]);
    EXPECT_GT(cmrr.rows, 0u);
    EXPECT_EQ(cmrr.stamps, cmrr.rows);
    EXPECT_EQ(cmrr.solves, 2 * cmrr.rows);
    EXPECT_EQ(cmrr.factorizations, cmrr.rows);
  }

  core::YieldProblem split;  ///< FoldedCascode as is: two analyses
  core::YieldProblem view;   ///< the same behind OneAnalysisView
  DesignVec d;
  std::vector<OperatingVec> theta_wc;
  std::vector<StatUnitVec> s_wc;
};

TEST_F(MaskedVerification, MonteCarloMatchesTheOneAnalysisView) {
  ASSERT_EQ(split.specs[3].name, "SRp");
  for (const unsigned threads : {1U, 2U}) {
    core::VerificationOptions options;
    options.num_samples = 48;
    options.block_size = 16;
    options.threads = threads;
    core::Evaluator split_ev(split);
    core::Evaluator view_ev(view);
    const std::uint64_t before = tran_solves();
    const core::VerificationResult masked =
        core::monte_carlo_verify(split_ev, d, theta_wc, options);
    const std::uint64_t middle = tran_solves();
    const core::VerificationResult full =
        core::monte_carlo_verify(view_ev, d, theta_wc, options);
    const std::uint64_t after = tran_solves();

    EXPECT_EQ(masked.yield, full.yield) << threads;
    EXPECT_EQ(masked.confidence.lower, full.confidence.lower) << threads;
    EXPECT_EQ(masked.confidence.upper, full.confidence.upper) << threads;
    EXPECT_EQ(masked.fails_per_spec, full.fails_per_spec) << threads;
    EXPECT_EQ(masked.performance_mean, full.performance_mean) << threads;
    EXPECT_EQ(masked.performance_stddev, full.performance_stddev) << threads;
    EXPECT_EQ(masked.evaluations, full.evaluations) << threads;
    EXPECT_EQ(masked.evaluations, 3 * options.num_samples) << threads;
#if MAYO_OBS_ENABLED
    // One of three corners runs the transient (plus its nominal seed).
    EXPECT_LT(middle - before, after - middle) << threads;
#else
    (void)before;
    (void)middle;
    (void)after;
#endif
  }
}

TEST_F(MaskedVerification, ImportanceSamplingMatchesTheOneAnalysisView) {
  core::IsVerificationOptions options;
  options.initial_samples = 16;
  options.round_samples = 16;
  options.max_rounds = 2;
  options.block_size = 8;
  core::Evaluator split_ev(split);
  core::Evaluator view_ev(view);
  const std::uint64_t before = tran_solves();
  const core::IsVerificationResult masked =
      core::importance_sample_verify(split_ev, d, theta_wc, s_wc, options);
  const std::uint64_t middle = tran_solves();
  const core::IsVerificationResult full =
      core::importance_sample_verify(view_ev, d, theta_wc, s_wc, options);
  const std::uint64_t after = tran_solves();

  EXPECT_EQ(masked.yield, full.yield);
  EXPECT_EQ(masked.confidence.lower, full.confidence.lower);
  EXPECT_EQ(masked.confidence.upper, full.confidence.upper);
  EXPECT_EQ(masked.evaluations, full.evaluations);
  EXPECT_EQ(masked.rounds, full.rounds);
  ASSERT_EQ(masked.per_spec.size(), full.per_spec.size());
  for (std::size_t i = 0; i < masked.per_spec.size(); ++i) {
    const core::SpecIsEstimate& a = masked.per_spec[i];
    const core::SpecIsEstimate& b = full.per_spec[i];
    EXPECT_EQ(a.fail_probability, b.fail_probability) << i;
    EXPECT_EQ(a.lower, b.lower) << i;
    EXPECT_EQ(a.upper, b.upper) << i;
    EXPECT_EQ(a.samples, b.samples) << i;
    EXPECT_EQ(a.fails, b.fails) << i;
    EXPECT_EQ(a.ess, b.ess) << i;
  }
#if MAYO_OBS_ENABLED
  // Only the SR+ draws run the transient.
  EXPECT_LT(middle - before, after - middle);
#else
  (void)before;
  (void)middle;
  (void)after;
#endif
}

#if MAYO_OBS_ENABLED  // the counters are no-op shells under MAYO_OBS=OFF
TEST_F(MaskedVerification, MonteCarloCornersRunOnlyTheAcProbesTheirSpecsRead) {
  AcProbeTally* tally = nullptr;
  core::YieldProblem problem = tallied(tally);
  core::Evaluator ev(problem);
  core::VerificationOptions options;
  options.num_samples = 48;
  options.block_size = 16;
  const core::VerificationResult result =
      core::monte_carlo_verify(ev, d, theta_wc, options);
  EXPECT_EQ(result.evaluations, 3 * options.num_samples);
  EXPECT_EQ(tally->at(theta_wc[4]).rows, options.num_samples);
  EXPECT_EQ(tally->at(theta_wc[2]).rows, options.num_samples);
  expect_power_and_cmrr_corner_probes(*tally);
  // The {A0, f_t, SR+} corner reads no CMRR, but the gain analysis solves
  // the common-mode phasor anyway: on A0's 1 Hz factors, before the
  // crossing search moves them, so exactly one solve per row (and none of
  // the context's nominal crossing) reuses factors.
  const AcProbeTally::Corner gain_crossing = tally->at(theta_wc[0]);
  EXPECT_EQ(gain_crossing.rows, options.num_samples);
  EXPECT_EQ(gain_crossing.stamps, gain_crossing.rows + 1);  // + the context
  EXPECT_EQ(gain_crossing.solves,
            gain_crossing.factorizations + gain_crossing.rows);
}

TEST_F(MaskedVerification, ImportanceSamplingCornersRunOnlyTheAcProbesTheirSpecsRead) {
  AcProbeTally* tally = nullptr;
  core::YieldProblem problem = tallied(tally);
  core::Evaluator ev(problem);
  core::IsVerificationOptions options;
  options.initial_samples = 16;
  options.round_samples = 16;
  options.max_rounds = 2;
  options.block_size = 8;
  const core::IsVerificationResult result =
      core::importance_sample_verify(ev, d, theta_wc, s_wc, options);
  EXPECT_EQ(tally->at(theta_wc[4]).rows, result.per_spec[4].samples);
  EXPECT_EQ(tally->at(theta_wc[2]).rows, result.per_spec[2].samples);
  expect_power_and_cmrr_corner_probes(*tally);
}
#endif

}  // namespace
}  // namespace mayo::circuits
