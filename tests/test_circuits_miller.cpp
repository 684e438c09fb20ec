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

TEST_F(MillerTest, PhaseMarginPastMinus180IsNegative) {
  // An in-box sizing with a weak second-stage sink whose loop phase at the
  // unity-gain crossing lies past -180 deg: the margin is negative and the
  // PM spec fails.  A wrap that only corrected values above 360 deg read
  // +341.97 deg here and passed the spec.
  const Vector d{157.189e-6, 180.412e-6, 137.893e-6, 320.921e-6,
                 23.1852e-6, 12.8662e-6, 32.1924e-12};
  ASSERT_TRUE(problem.design.contains(d));
  const auto m = model->measure(d, s0, theta0);
  ASSERT_TRUE(m.ac_valid);
  EXPECT_LT(m.pm_deg, 0.0);
  const linalg::PerfVec f =
      model->evaluate(linalg::DesignVec(d), linalg::StatPhysVec(s0),
                      linalg::OperatingVec(theta0));
  EXPECT_EQ(f[2], m.pm_deg);
  EXPECT_LT(problem.specs[2].margin(f[2]), 0.0);
}

}  // namespace
}  // namespace mayo::circuits
