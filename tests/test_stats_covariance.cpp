#include "stats/covariance.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace mayo::stats {
namespace {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::StatPhysVec;
using linalg::StatUnitVec;
using linalg::Vector;

CovarianceModel two_param_model() {
  CovarianceModel cov;
  cov.add(StatParam::global("a", 1.0, 2.0));
  cov.add(StatParam::global("b", -1.0, 0.5));
  return cov;
}

TEST(CovarianceModel, NominalAndSigmas) {
  CovarianceModel cov = two_param_model();
  EXPECT_EQ(cov.dimension(), 2u);
  EXPECT_EQ(cov.nominal(), (StatPhysVec{1.0, -1.0}));
  EXPECT_EQ(cov.sigmas(DesignVec{}), (Vector{2.0, 0.5}));
  EXPECT_EQ(cov.index_of("b"), 1u);
  EXPECT_THROW(cov.index_of("zz"), std::out_of_range);
}

TEST(CovarianceModel, DiagonalCovariance) {
  CovarianceModel cov = two_param_model();
  const Matrixd c = cov.covariance(DesignVec{});
  EXPECT_EQ(c(0, 0), 4.0);
  EXPECT_EQ(c(1, 1), 0.25);
  EXPECT_EQ(c(0, 1), 0.0);
}

TEST(CovarianceModel, ToPhysicalRoundTrip) {
  CovarianceModel cov = two_param_model();
  const StatUnitVec s_hat{0.5, -2.0};
  const StatPhysVec s = cov.to_physical(s_hat, DesignVec{});
  EXPECT_EQ(s, (StatPhysVec{1.0 + 2.0 * 0.5, -1.0 + 0.5 * -2.0}));
  const StatUnitVec back = cov.to_standard(s, DesignVec{});
  EXPECT_NEAR(back[0], s_hat[0], 1e-12);
  EXPECT_NEAR(back[1], s_hat[1], 1e-12);
}

TEST(CovarianceModel, FactorSquaresToCovariance) {
  CovarianceModel cov = two_param_model();
  cov.set_correlation(0, 1, 0.6);
  const Matrixd g = cov.factor(DesignVec{});
  const Matrixd c = g * g.transposed();
  const Matrixd expected = cov.covariance(DesignVec{});
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-12);
}

TEST(CovarianceModel, CorrelatedCovarianceEntries) {
  CovarianceModel cov = two_param_model();
  cov.set_correlation(0, 1, 0.5);
  const Matrixd c = cov.covariance(DesignVec{});
  EXPECT_NEAR(c(0, 1), 0.5 * 2.0 * 0.5, 1e-12);
  EXPECT_EQ(c(0, 1), c(1, 0));
}

TEST(CovarianceModel, CorrelatedRoundTrip) {
  CovarianceModel cov = two_param_model();
  cov.set_correlation(0, 1, -0.4);
  const StatUnitVec s_hat{1.2, 0.7};
  const StatPhysVec s = cov.to_physical(s_hat, DesignVec{});
  const StatUnitVec back = cov.to_standard(s, DesignVec{});
  EXPECT_NEAR(back[0], s_hat[0], 1e-12);
  EXPECT_NEAR(back[1], s_hat[1], 1e-12);
}

TEST(CovarianceModel, SetCorrelationValidation) {
  CovarianceModel cov = two_param_model();
  EXPECT_THROW(cov.set_correlation(0, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(cov.set_correlation(0, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(cov.set_correlation(0, 1, 1.0), std::invalid_argument);
}

TEST(CovarianceModel, DesignDependentSigma) {
  // The Pelgrom mechanism: sigma ~ 1/sqrt(W), W = d[0].
  CovarianceModel cov;
  StatParam local;
  local.name = "dvth";
  local.sigma = [](const DesignVec& d) { return 1e-3 / std::sqrt(d[0]); };
  cov.add(std::move(local));

  const DesignVec d_small{1.0};
  const DesignVec d_large{4.0};
  EXPECT_NEAR(cov.sigmas(d_small)[0], 1e-3, 1e-15);
  EXPECT_NEAR(cov.sigmas(d_large)[0], 0.5e-3, 1e-15);
  // Same s_hat maps to a smaller physical deviation at the larger design --
  // this is how the optimizer "sees" variance reduction (paper Sec. 4).
  const StatUnitVec s_hat{2.0};
  EXPECT_GT(std::abs(cov.to_physical(s_hat, d_small)[0]),
            std::abs(cov.to_physical(s_hat, d_large)[0]));
}

TEST(CovarianceModel, NonPositiveSigmaRejected) {
  CovarianceModel cov;
  StatParam bad;
  bad.name = "bad";
  bad.sigma = [](const DesignVec&) { return 0.0; };
  cov.add(std::move(bad));
  EXPECT_THROW(cov.sigmas(DesignVec{}), std::domain_error);
}

TEST(CovarianceModel, MissingSigmaRejectedAtAdd) {
  CovarianceModel cov;
  EXPECT_THROW(cov.add(StatParam{}), std::invalid_argument);
}

TEST(CovarianceModel, SampledCorrelationMatchesRho) {
  // Empirical check: transform N(0,I) samples and measure the correlation.
  CovarianceModel cov;
  cov.add(StatParam::global("x", 0.0, 1.0));
  cov.add(StatParam::global("y", 0.0, 1.0));
  cov.set_correlation(0, 1, 0.7);
  Rng rng(31);
  const int n = 20000;
  double sum_xy = 0.0;
  RunningStats sx;
  RunningStats sy;
  for (int i = 0; i < n; ++i) {
    const StatUnitVec s_hat{rng.normal(), rng.normal()};
    const StatPhysVec s = cov.to_physical(s_hat, DesignVec{});
    sum_xy += s[0] * s[1];
    sx.add(s[0]);
    sy.add(s[1]);
  }
  const double corr = (sum_xy / n - sx.mean() * sy.mean()) /
                      (sx.stddev() * sy.stddev());
  EXPECT_NEAR(corr, 0.7, 0.02);
}

}  // namespace
}  // namespace mayo::stats
