// Paper Table 1: optimization trace of the folded-cascode opamp under
// functional constraints.  Initial yield 0% (ft and CMRR critical) ->
// ~100% within a few iterations; linear-model bad-sample counts collapse.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"
#include "core/optimizer.hpp"

using namespace mayo;

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Table 1: folded-cascode yield optimization (with functional constraints)");

  auto problem = circuits::FoldedCascode::make_problem();
  core::Evaluator ev(problem);
  core::YieldOptimizerOptions options;
  options.sample_seed = sample_seed;
  options.max_iterations = 4;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  const auto result = core::optimize_yield(ev, options);

  bench::print_trace(result, circuits::FoldedCascode::performance_names(),
                     problem.specs);
  bench::print_stop("", result, options.linear_samples);

  const auto& first = result.trace.front();
  const auto& last = result.trace.back();
  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("initial total yield", "0%",
               core::fmt_percent(first.verified_yield, 1),
               first.verified_yield < 0.05);
  bench::claim("ft fails at the initial nominal point", "-2.3 MHz",
               core::fmt(first.specs[1].nominal_margin, 2) + " MHz",
               first.specs[1].nominal_margin < 0.0);
  bench::claim("ft bad samples initially", "1000.0 permille",
               core::fmt(first.specs[1].bad_permille, 1) + " permille",
               first.specs[1].bad_permille > 900.0);
  bench::claim("SR marginal initially (hundreds of permille bad)",
               "272.5 permille",
               core::fmt(first.specs[3].bad_permille, 1) + " permille",
               first.specs[3].bad_permille > 100.0 &&
                   first.specs[3].bad_permille < 900.0);
  bench::claim("A0 and power comfortable initially (0 permille)",
               "0.0 / 0.0",
               core::fmt(first.specs[0].bad_permille, 1) + " / " +
                   core::fmt(first.specs[4].bad_permille, 1),
               first.specs[0].bad_permille < 1.0 &&
                   first.specs[4].bad_permille < 1.0);
  const double yield_iter2 = result.trace.size() > 2
                                 ? result.trace[2].verified_yield
                                 : result.trace.back().verified_yield;
  bench::claim("yield recovered within two iterations", "99.9% after iter 1",
               core::fmt_percent(yield_iter2, 1) + " after iter 2",
               yield_iter2 > 0.95);
  bench::claim("final yield ~100%", "100%",
               core::fmt_percent(last.verified_yield, 1),
               last.verified_yield > 0.99);
  double final_bad = 0.0;
  for (const auto& snap : last.specs) final_bad += snap.bad_permille;
  // The paper's 10,000 samples all end inside A; our residual is a few
  // CMRR samples beyond beta ~ 3 on mismatch directions the single
  // linearization covers only via the mirror model.
  bench::claim("linear-model bad samples essentially eliminated",
               "0 of 10000",
               core::fmt(final_bad, 1) + " permille total",
               final_bad < 5.0);
  std::printf("\nsimulations: optimization=%zu verification=%zu wall=%.1fs\n",
              result.counts.optimization, result.counts.verification,
              result.wall_seconds);
  return 0;
}
