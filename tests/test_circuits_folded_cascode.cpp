#include "circuits/folded_cascode.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/wc_distance.hpp"
#include "core/wc_operating.hpp"
#include "obs/obs.hpp"

namespace mayo::circuits {
namespace {

using linalg::Vector;
using Design = FoldedCascodeDesign;
using Stats = FoldedCascodeStats;

class FoldedCascodeTest : public ::testing::Test {
 protected:
  FoldedCascodeTest()
      : problem(FoldedCascode::make_problem()),
        model(dynamic_cast<FoldedCascode*>(problem.model.get())),
        d0(FoldedCascode::initial_design()),
        s0(Stats::kCount),
        theta0(problem.operating.nominal) {}

  core::YieldProblem problem;
  FoldedCascode* model;
  Vector d0;
  Vector s0;
  Vector theta0;
};

TEST_F(FoldedCascodeTest, NominalMeasurementsAreHealthy) {
  const auto m = model->measure(d0, s0, theta0);
  ASSERT_TRUE(m.ac_valid);
  ASSERT_TRUE(m.sr_valid);
  EXPECT_GT(m.a0_db, 70.0);
  EXPECT_LT(m.a0_db, 95.0);
  EXPECT_GT(m.ft_mhz, 30.0);
  EXPECT_LT(m.ft_mhz, 60.0);
  EXPECT_GT(m.cmrr_db, 100.0);
  EXPECT_GT(m.sr_v_per_us, 20.0);
  EXPECT_GT(m.power_mw, 0.5);
  EXPECT_LT(m.power_mw, 3.0);
}

TEST_F(FoldedCascodeTest, InitialSpecSignatureMatchesPaperStory) {
  // ft must fail at the worst-case operating corner, A0 and power must
  // pass comfortably (paper Table 1 initial row).
  core::Evaluator ev(problem);
  const auto wc = core::find_worst_case_operating(ev, linalg::DesignVec(d0));
  EXPECT_GT(wc.worst_margin[0], 5.0);    // A0 comfortable
  EXPECT_LT(wc.worst_margin[1], 0.0);    // ft fails
  EXPECT_GT(wc.worst_margin[2], 0.0);    // CMRR nominal passes (ridge top)
  EXPECT_GT(wc.worst_margin[4], 0.2);    // power comfortable
}

TEST_F(FoldedCascodeTest, CmrrDegradesOnMismatchLineOnly) {
  // The Fig. 1 signature for the mirror pair: opposite-sign (mismatch
  // line) deviations collapse CMRR, equal-sign (neutral line) ones do not.
  const auto nominal = model->measure(d0, s0, theta0);
  Vector s_ml = s0;
  s_ml[Stats::kLocalFirst + 8] = 0.004;   // M9
  s_ml[Stats::kLocalFirst + 9] = -0.004;  // M10
  const auto ml = model->measure(d0, s_ml, theta0);
  Vector s_nl = s0;
  s_nl[Stats::kLocalFirst + 8] = 0.004;
  s_nl[Stats::kLocalFirst + 9] = 0.004;
  const auto nl = model->measure(d0, s_nl, theta0);
  EXPECT_LT(ml.cmrr_db, nominal.cmrr_db - 20.0);
  EXPECT_NEAR(nl.cmrr_db, nominal.cmrr_db, 2.0);
}

TEST_F(FoldedCascodeTest, CmrrSymmetricUnderMirrorFlip) {
  // Quadratic signature (eq. 21): flipping the sign of the mismatch gives
  // (approximately) the same degradation.
  Vector s_plus = s0;
  s_plus[Stats::kLocalFirst + 8] = 0.003;
  s_plus[Stats::kLocalFirst + 9] = -0.003;
  const auto plus = model->measure(d0, s_plus, theta0);
  const auto minus = model->measure(d0, -s_plus, theta0);
  EXPECT_NEAR(plus.cmrr_db, minus.cmrr_db, 3.0);
}

TEST_F(FoldedCascodeTest, FtScalesWithInputPairWidth) {
  const auto base = model->measure(d0, s0, theta0);
  Vector d_wide = d0;
  d_wide[Design::kWIn] *= 2.0;
  const auto wide = model->measure(d_wide, s0, theta0);
  EXPECT_GT(wide.ft_mhz, base.ft_mhz * 1.2);
}

TEST_F(FoldedCascodeTest, PowerScalesWithReferenceCurrent) {
  const auto base = model->measure(d0, s0, theta0);
  Vector d_hot = d0;
  d_hot[Design::kIref] *= 1.5;
  const auto hot = model->measure(d_hot, s0, theta0);
  EXPECT_GT(hot.power_mw, base.power_mw * 1.3);
}

TEST_F(FoldedCascodeTest, TemperatureDegradesFt) {
  const auto cold = model->measure(d0, s0, Vector{273.15, 5.0});
  const auto hot = model->measure(d0, s0, Vector{358.15, 5.0});
  EXPECT_LT(hot.ft_mhz, cold.ft_mhz);
}

#if MAYO_OBS_ENABLED  // the counters are no-op shells under MAYO_OBS=OFF
TEST_F(FoldedCascodeTest, SlewRunShortOfItsLevelIsReadAtTStop) {
  // At the minimum-size box corner the nominal output, near 4.8 V/us,
  // still reaches 90% of its settled swing within sr_t_stop.  -6 sigma on
  // M3's threshold slows it below 4 V/us: that run reaches sr_t_stop
  // first and is measured against its value there, which the fallback
  // counter records.
  const Vector d = problem.design.lower;
  const obs::Counter& fallbacks = obs::registry().counters.tran_slew_fallbacks;
  const std::uint64_t before = fallbacks.value();
  const auto nominal = model->measure(d, s0, theta0);
  ASSERT_TRUE(nominal.sr_valid);
  EXPECT_EQ(fallbacks.value(), before);

  linalg::StatUnitVec s_hat(Stats::kCount);
  s_hat[Stats::kLocalFirst + 2] = -6.0;
  const Vector s = problem.statistical.to_physical(s_hat, linalg::DesignVec(d))
                       .raw();  // space-ok: measure() takes raw vectors
  const auto slow = model->measure(d, s, theta0);
  ASSERT_TRUE(slow.sr_valid);
  EXPECT_EQ(fallbacks.value(), before + 1);
  EXPECT_GT(slow.sr_v_per_us, 0.0);
  EXPECT_LT(slow.sr_v_per_us, nominal.sr_v_per_us);
}
#endif

TEST_F(FoldedCascodeTest, PelgromSigmaShrinksWithWidth) {
  const auto& cov = problem.statistical;
  const std::size_t mirror_local = cov.index_of("dvth_M9");
  Vector d_wide = d0;
  d_wide[Design::kWMir] *= 4.0;
  EXPECT_NEAR(cov.sigmas(linalg::DesignVec(d_wide))[mirror_local],
              0.5 * cov.sigmas(linalg::DesignVec(d0))[mirror_local], 1e-9);
}

TEST_F(FoldedCascodeTest, PairLabels) {
  EXPECT_EQ(FoldedCascode::pair_label(Stats::kLocalFirst + 0,
                                      Stats::kLocalFirst + 1),
            "M1/M2 (input pair)");
  EXPECT_EQ(FoldedCascode::pair_label(Stats::kLocalFirst + 8,
                                      Stats::kLocalFirst + 9),
            "M9/M10 (mirror pair)");
  // Order-insensitive.
  EXPECT_EQ(FoldedCascode::pair_label(Stats::kLocalFirst + 9,
                                      Stats::kLocalFirst + 8),
            "M9/M10 (mirror pair)");
  // Non-pairs and globals give empty labels.
  EXPECT_EQ(FoldedCascode::pair_label(0, 1), "");
  EXPECT_EQ(FoldedCascode::pair_label(Stats::kLocalFirst + 0,
                                      Stats::kLocalFirst + 2),
            "");
}

}  // namespace
}  // namespace mayo::circuits
