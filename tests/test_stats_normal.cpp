#include "stats/normal.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mayo::stats {
namespace {

TEST(Normal, PdfAtZero) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
}

TEST(Normal, PdfSymmetric) {
  for (double x : {0.5, 1.0, 2.5}) EXPECT_DOUBLE_EQ(normal_pdf(x), normal_pdf(-x));
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(Normal, CdfComplement) {
  for (double x : {0.3, 1.2, 2.7})
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-14);
}

TEST(Normal, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-10) << "p=" << p;
  }
}

TEST(Normal, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-9);
}

TEST(Normal, QuantileDomainErrors) {
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
  EXPECT_THROW(normal_quantile(-0.1), std::domain_error);
  EXPECT_THROW(normal_quantile(1.1), std::domain_error);
}

TEST(Normal, QuantileExtremeTails) {
  // Deep tails should stay finite and invert.
  for (double p : {1e-12, 1e-9, 1.0 - 1e-9}) {
    const double x = normal_quantile(p);
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_NEAR(normal_cdf(x), p, 1e-13 + p * 1e-6);
  }
}

TEST(Normal, YieldBetaRoundTrip) {
  for (double beta : {-3.0, -1.0, 0.0, 0.5, 2.0, 4.0}) {
    EXPECT_NEAR(normal_quantile(yield_from_beta(beta)), beta, 1e-8);
  }
}

TEST(Normal, YieldFromBetaMonotone) {
  double prev = 0.0;
  for (double beta = -5.0; beta <= 5.0; beta += 0.25) {
    const double y = yield_from_beta(beta);
    EXPECT_GT(y, prev);
    prev = y;
  }
}

// The worst-case-distance interpretation: beta = 3 -> 99.87% yield.
TEST(Normal, ThreeSigmaYield) {
  EXPECT_NEAR(yield_from_beta(3.0), 0.99865, 1e-4);
}

}  // namespace
}  // namespace mayo::stats
