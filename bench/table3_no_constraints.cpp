// Paper Table 3: ablation -- the same optimizer WITHOUT functional
// constraints.  The linearized models are built far outside the region
// where they are trustworthy; the internal bad-sample counts can shrink
// while the true yield does not recover (paper: stays 0%).
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"
#include "core/optimizer.hpp"

using namespace mayo;

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Table 3: ablation WITHOUT functional constraints");

  auto problem = circuits::FoldedCascode::make_problem();
  core::Evaluator ev(problem);
  core::YieldOptimizerOptions options;
  options.sample_seed = sample_seed;
  options.max_iterations = 2;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  options.use_constraints = false;
  // The constraints are also what keeps the trust region honest; without
  // them the paper's method relies on the raw linearization -- reproduce
  // that by widening the trust region and accepting iterates as-is.
  options.search.trust_fraction = 10.0;
  options.search.trust_floor_fraction = 1.0;
  options.monotone_safeguard = false;
  const auto result = core::optimize_yield(ev, options);

  bench::print_trace(result, circuits::FoldedCascode::performance_names(),
                     problem.specs);

  // Reference: the constrained run reaches ~100% (Table 1).
  auto problem_ref = circuits::FoldedCascode::make_problem();
  core::Evaluator ev_ref(problem_ref);
  core::YieldOptimizerOptions ref_options;
  ref_options.sample_seed = sample_seed;
  ref_options.max_iterations = 4;
  ref_options.linear_samples = 10000;
  ref_options.verification.num_samples = 300;
  const auto reference = core::optimize_yield(ev_ref, ref_options);

  const auto& first = result.trace.front();
  const auto& last = result.trace.back();
  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("initial total yield", "0%",
               core::fmt_percent(first.verified_yield, 1),
               first.verified_yield < 0.05);
  bench::claim("true yield does NOT recover without constraints", "0%",
               core::fmt_percent(last.verified_yield, 1),
               last.verified_yield < 0.5);
  bench::claim("constrained run recovers (Table-1 reference)", "100%",
               core::fmt_percent(reference.trace.back().verified_yield, 1),
               reference.trace.back().verified_yield > 0.95);
  // Verify the final unconstrained iterate violates the sizing rules.
  const auto margins = ev.constraints(result.final_d);
  double worst = margins[0];
  for (double m : margins) worst = std::min(worst, m);
  bench::claim("final point violates the sizing rules (outside F)",
               "implied", core::fmt(worst, 3) + " V worst margin",
               worst < 0.0);
  std::printf("\nsimulations: optimization=%zu verification=%zu wall=%.1fs\n",
              result.counts.optimization, result.counts.verification,
              result.wall_seconds);
  return 0;
}
