#include "circuits/miller.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/wc_operating.hpp"

namespace mayo::circuits {
namespace {

using linalg::Vector;
using Design = MillerDesign;
using Stats = MillerStats;

class MillerTest : public ::testing::Test {
 protected:
  MillerTest()
      : problem(Miller::make_problem()),
        model(dynamic_cast<Miller*>(problem.model.get())),
        d0(Miller::initial_design()),
        s0(Stats::kCount),
        theta0(problem.operating.nominal) {}

  core::YieldProblem problem;
  Miller* model;
  Vector d0;
  Vector s0;
  Vector theta0;
};

TEST_F(MillerTest, ProblemIsConsistent) {
  EXPECT_NO_THROW(problem.validate());
  EXPECT_EQ(problem.num_specs(), 5u);
  EXPECT_EQ(problem.statistical.dimension(), 4u);  // globals only
  EXPECT_EQ(problem.design.dimension(), Design::kCount);
}

TEST_F(MillerTest, NominalMeasurementsAreHealthy) {
  const auto m = model->measure(d0, s0, theta0);
  ASSERT_TRUE(m.ac_valid);
  ASSERT_TRUE(m.sr_valid);
  EXPECT_GT(m.a0_db, 85.0);   // two-stage gain
  EXPECT_LT(m.a0_db, 110.0);
  EXPECT_GT(m.ft_mhz, 1.5);
  EXPECT_LT(m.ft_mhz, 6.0);
  EXPECT_GT(m.pm_deg, 55.0);
  EXPECT_LT(m.pm_deg, 90.0);
  EXPECT_GT(m.sr_v_per_us, 1.0);
  EXPECT_LT(m.power_mw, 1.45);
}

TEST_F(MillerTest, InitialDesignIsFeasible) {
  const Vector c = model->constraints(linalg::DesignVec(d0));
  ASSERT_EQ(c.size(), 7u);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_GT(c[i], 0.0) << model->constraint_names()[i];
}

TEST_F(MillerTest, InitialSignatureMatchesTable6) {
  // SR marginal/failing, PM marginal, ft comfortable (paper Table 6).
  core::Evaluator ev(problem);
  const auto wc = core::find_worst_case_operating(ev, linalg::DesignVec(d0));
  EXPECT_GT(wc.worst_margin[1], 0.5);   // ft
  EXPECT_LT(wc.worst_margin[3], 0.05);  // SR marginal or failing
  EXPECT_LT(wc.worst_margin[2], 2.0);   // PM not comfortable
  EXPECT_GT(wc.worst_margin[4], 0.2);   // power fine
}

TEST_F(MillerTest, MillerCapSetsBandwidthAndSlew) {
  const auto base = model->measure(d0, s0, theta0);
  Vector d_big_cc = d0;
  d_big_cc[Design::kCc] *= 2.0;
  const auto big = model->measure(d_big_cc, s0, theta0);
  // Larger Cc: lower ft, lower SR, higher phase margin.
  EXPECT_LT(big.ft_mhz, base.ft_mhz);
  EXPECT_LT(big.sr_v_per_us, base.sr_v_per_us);
  EXPECT_GT(big.pm_deg, base.pm_deg);
}

TEST_F(MillerTest, TailCurrentRaisesSlew) {
  const auto base = model->measure(d0, s0, theta0);
  Vector d_fast = d0;
  d_fast[Design::kWTail] *= 1.5;
  const auto fast = model->measure(d_fast, s0, theta0);
  EXPECT_GT(fast.sr_v_per_us, base.sr_v_per_us * 1.2);
}

TEST_F(MillerTest, GlobalVthShiftMovesPerformances) {
  Vector s_shift = s0;
  s_shift[Stats::kDvthnGlobal] = 0.06;  // 2 sigma
  const auto shifted = model->measure(d0, s_shift, theta0);
  const auto base = model->measure(d0, s0, theta0);
  ASSERT_TRUE(shifted.ac_valid);
  ASSERT_TRUE(shifted.sr_valid);
  EXPECT_NE(shifted.sr_v_per_us, base.sr_v_per_us);
  EXPECT_NE(shifted.power_mw, base.power_mw);
}

TEST_F(MillerTest, SupplyIncreasesPower) {
  const auto low = model->measure(d0, s0, Vector{300.15, 4.75});
  const auto high = model->measure(d0, s0, Vector{300.15, 5.25});
  EXPECT_GT(high.power_mw, low.power_mw);
}

TEST_F(MillerTest, EvaluateNeverThrowsOnExtremeDesigns) {
  Vector d_bad(Design::kCount);
  for (std::size_t i = 0; i < Design::kCount; ++i)
    d_bad[i] = problem.design.lower[i];
  const linalg::PerfVec f = model->evaluate(
      linalg::DesignVec(d_bad), linalg::StatPhysVec(s0),
      linalg::OperatingVec(theta0));
  ASSERT_EQ(f.size(), 5u);
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(MillerTest, NamesConsistent) {
  EXPECT_EQ(Miller::performance_names().size(), 5u);
  EXPECT_EQ(Miller::statistical_names().size(), 4u);
  EXPECT_EQ(model->constraint_names().size(), 7u);
}

TEST_F(MillerTest, RejectsWrongVectorSizes) {
  const linalg::StatPhysVec s_tag(s0);
  const linalg::OperatingVec theta_tag(theta0);
  EXPECT_THROW(model->evaluate(linalg::DesignVec{1.0}, s_tag, theta_tag),
               std::invalid_argument);
  EXPECT_THROW(model->evaluate(linalg::DesignVec(d0), linalg::StatPhysVec{1.0},
                               theta_tag),
               std::invalid_argument);
  EXPECT_THROW(model->evaluate(linalg::DesignVec(d0), s_tag,
                               linalg::OperatingVec{1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mayo::circuits
