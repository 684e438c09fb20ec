// mayo/stats -- standard normal distribution functions.
//
// The worst-case distance framework constantly converts between yield
// values and worst-case distances: Y_i ~ Phi(beta_wc_i) for a single
// linearized spec (paper Sec. 5.2 / ref. [10]).  This header provides the
// pdf, cdf and a high-accuracy quantile (inverse cdf).
#pragma once

namespace mayo::stats {

/// Standard normal probability density.
double normal_pdf(double x);

/// Standard normal cumulative distribution Phi(x).
double normal_cdf(double x);

/// Inverse of normal_cdf, accurate to ~1e-9 over (0, 1).
/// Throws std::domain_error for p outside (0, 1).
double normal_quantile(double p);

/// Yield (probability) corresponding to a signed worst-case distance beta:
/// Phi(beta).  Alias with domain-specific name.
double yield_from_beta(double beta);

}  // namespace mayo::stats
