// Parameterized property sweeps across the library's invariants:
//   * MOS model derivatives == finite differences over a bias grid,
//   * worst-case distances == closed forms over a (design, bound) grid,
//   * sampled linear-model yield == Phi(beta) over a beta sweep,
//   * normal quantile/cdf inversion over a probability grid,
//   * mismatch-measure range/monotonicity over worst-case-point geometry.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "circuit/mos_model.hpp"
#include "core/mismatch.hpp"
#include "core/wc_distance.hpp"
#include "core/yield_model.hpp"
#include "stats/normal.hpp"
#include "stats/sampler.hpp"
#include "synthetic_problem.hpp"

namespace mayo {
namespace {

// ---------------------------------------------------------------------
// MOS model: analytic conductances equal finite differences everywhere.
// ---------------------------------------------------------------------

class MosDerivativeSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MosDerivativeSweep, ConductancesMatchFiniteDifferences) {
  const auto [vgs, vds, vbs] = GetParam();
  circuit::MosProcess process;
  const circuit::MosGeometry geometry{15e-6, 1.5e-6};
  const double t = 310.0;
  const double h = 1e-6;

  const auto id_at = [&](double g, double d, double b) {
    return circuit::mos_eval(process, geometry, {}, {g, d, b}, t).id;
  };
  const circuit::MosEval e =
      circuit::mos_eval(process, geometry, {}, {vgs, vds, vbs}, t);

  const double gm_fd = (id_at(vgs + h, vds, vbs) - id_at(vgs - h, vds, vbs)) /
                       (2.0 * h);
  const double gds_fd = (id_at(vgs, vds + h, vbs) - id_at(vgs, vds - h, vbs)) /
                        (2.0 * h);
  const double gmb_fd = (id_at(vgs, vds, vbs + h) - id_at(vgs, vds, vbs - h)) /
                        (2.0 * h);
  const double tol = 1e-3;
  EXPECT_NEAR(e.gm, gm_fd, std::abs(gm_fd) * tol + 1e-9);
  EXPECT_NEAR(e.gds, gds_fd, std::abs(gds_fd) * tol + 1e-9);
  EXPECT_NEAR(e.gmb, gmb_fd, std::abs(gmb_fd) * tol + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosDerivativeSweep,
    ::testing::Combine(::testing::Values(0.5, 0.8, 1.1, 1.6),   // vgs
                       ::testing::Values(-0.8, 0.05, 0.4, 2.0), // vds
                       ::testing::Values(0.0, -0.6)));          // vbs

// ---------------------------------------------------------------------
// Worst-case distance: closed form across designs and bounds.
// ---------------------------------------------------------------------

class WcDistanceSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WcDistanceSweep, LinearSpecMatchesClosedForm) {
  const auto [d0, bound] = GetParam();
  auto problem = testing::make_synthetic_problem(d0, 1.0);
  problem.specs[0].bound = bound;
  core::Evaluator ev(problem);
  const auto wc = core::find_worst_case_point(ev, 0, linalg::DesignVec(problem.design.nominal),
                                              linalg::OperatingVec{1.0});
  ASSERT_TRUE(wc.converged);
  // margin at nominal: d0 + 1 - 1 - bound; beta = margin / sqrt(5).
  const double expected = (d0 + 1.0 - 1.0 - bound) / std::sqrt(5.0);
  EXPECT_NEAR(wc.beta, expected, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    DesignBoundGrid, WcDistanceSweep,
    ::testing::Combine(::testing::Values(-2.0, 0.0, 1.5, 3.0, 4.5),
                       ::testing::Values(-1.0, 0.0, 1.0)));

class QuadraticWcSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuadraticWcSweep, QuadraticSpecMatchesClosedForm) {
  const double d0 = GetParam();
  auto problem = testing::make_synthetic_problem(d0, 1.0);
  core::Evaluator ev(problem);
  const auto wc = core::find_worst_case_point(ev, 1, linalg::DesignVec(problem.design.nominal),
                                              linalg::OperatingVec{0.0});
  ASSERT_TRUE(wc.converged);
  EXPECT_NEAR(wc.beta, testing::quad_beta(d0), 5e-3);
  EXPECT_TRUE(wc.mirrored);
}

INSTANTIATE_TEST_SUITE_P(DesignGrid, QuadraticWcSweep,
                         ::testing::Values(-1.0, 0.0, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------
// Sampled yield of a single linear model equals Phi(beta).
// ---------------------------------------------------------------------

class YieldPhiSweep : public ::testing::TestWithParam<double> {};

TEST_P(YieldPhiSweep, SampledYieldMatchesPhi) {
  const double beta = GetParam();
  const stats::SampleSet samples(40000, 1, 123);
  core::SpecLinearization model;
  model.spec = 0;
  model.s_wc = linalg::StatUnitVec(1);
  model.margin_wc = beta;          // margin = beta - s0
  model.grad_s = linalg::StatUnitVec{-1.0};
  model.grad_d = linalg::DesignVec{0.0};
  model.d_f = linalg::DesignVec{0.0};
  model.theta_wc = linalg::OperatingVec{0.0};
  core::LinearYieldModel yield_model({model}, samples);
  EXPECT_NEAR(yield_model.yield(), stats::yield_from_beta(beta), 0.008)
      << "beta = " << beta;
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, YieldPhiSweep,
                         ::testing::Values(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0,
                                           2.0, 3.0));

// ---------------------------------------------------------------------
// Normal quantile inversion across the probability range.
// ---------------------------------------------------------------------

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, RoundTrips) {
  const double p = GetParam();
  EXPECT_NEAR(stats::normal_cdf(stats::normal_quantile(p)), p,
              1e-12 + p * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileSweep,
                         ::testing::Values(1e-10, 1e-6, 1e-3, 0.02425, 0.1,
                                           0.5, 0.9, 0.99, 0.999999,
                                           1.0 - 1e-10));

// ---------------------------------------------------------------------
// Mismatch measure: range and angle monotonicity over pair geometry.
// ---------------------------------------------------------------------

class MismatchGeometrySweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MismatchGeometrySweep, MeasureInUnitRangeAndAngleConsistent) {
  const auto [ratio, beta] = GetParam();
  // Pair (1, ratio): the angle moves from the mismatch line (ratio -> -1)
  // toward the axes.
  linalg::StatUnitVec s_wc{1.0, ratio, 0.1};
  const double m = core::mismatch_measure(s_wc, beta, 0, 1);
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 1.0);
  if (ratio > 0.0) {
    EXPECT_EQ(m, 0.0);  // same-sign pairs never flagged
  }
  if (ratio == -1.0) {
    EXPECT_NEAR(m, core::mismatch_robustness_weight(beta), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PairGeometry, MismatchGeometrySweep,
    ::testing::Combine(::testing::Values(-1.0, -0.8, -0.5, -0.1, 0.5, 1.0),
                       ::testing::Values(-2.0, 0.0, 1.0, 3.0)));

}  // namespace
}  // namespace mayo
