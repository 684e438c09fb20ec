// Paper Table 6: yield optimization of the Miller opamp with GLOBAL
// process variations only (constant covariance): moderate initial yield
// (33.7% in the paper; SR and PM marginal) -> ~99%+ after optimization.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/miller.hpp"
#include "core/optimizer.hpp"

using namespace mayo;

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Table 6: Miller opamp yield optimization (global variations)");

  auto problem = circuits::Miller::make_problem();
  core::Evaluator ev(problem);
  core::YieldOptimizerOptions options;
  options.sample_seed = sample_seed;
  options.max_iterations = 3;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  const auto result = core::optimize_yield(ev, options);

  bench::print_trace(result, circuits::Miller::performance_names(),
                     problem.specs);

  const auto& first = result.trace.front();
  const auto& last = result.trace.back();
  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("initial yield moderate (not 0, not high)", "33.7%",
               core::fmt_percent(first.verified_yield, 1),
               first.verified_yield > 0.02 && first.verified_yield < 0.7);
  bench::claim("SR is the worst offender initially", "636.2 permille bad",
               core::fmt(first.specs[3].bad_permille, 1) + " permille",
               first.specs[3].bad_permille > 300.0);
  bench::claim("PM marginal initially", "166.8 permille bad",
               core::fmt(first.specs[2].bad_permille, 1) + " permille",
               first.specs[2].bad_permille > 30.0 &&
                   first.specs[2].bad_permille < 600.0);
  bench::claim("ft comfortable initially (0 permille)", "0.0",
               core::fmt(first.specs[1].bad_permille, 1),
               first.specs[1].bad_permille < 5.0);
  bench::claim("yield after optimization", "99.3%",
               core::fmt_percent(last.verified_yield, 1),
               last.verified_yield > 0.95);
  std::printf("\nsimulations: optimization=%zu verification=%zu wall=%.1fs\n",
              result.counts.optimization, result.counts.verification,
              result.wall_seconds);
  return 0;
}
