// Paper Table 4: ablation -- linearization at the NOMINAL statistical
// point s0 instead of the worst-case points.  For the mismatch-quadratic
// CMRR the model at the matched point is wrong at the specification
// boundary (paper: smooth quadratic -> zero gradient, illusively safe; in
// this simulator's sharper CMRR ridge the finite-difference slope at the
// matched point is instead enormous, i.e. uselessly pessimistic).  Either
// way the optimizer is misled and the run falls short of the
// worst-case-point run.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"
#include "core/optimizer.hpp"

using namespace mayo;

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Table 4: ablation with linearization at the nominal point s0");

  auto problem = circuits::FoldedCascode::make_problem();
  core::Evaluator ev(problem);
  core::YieldOptimizerOptions options;
  options.sample_seed = sample_seed;
  options.max_iterations = 1;  // the paper's table shows one iteration
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  options.linearization.linearize_at_nominal = true;
  options.monotone_safeguard = false;
  const auto result = core::optimize_yield(ev, options);

  bench::print_trace(result, circuits::FoldedCascode::performance_names(),
                     problem.specs);

  // Reference run with worst-case points (Table 1).
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
  bench::claim(
      "CMRR bad count differs from the worst-case model's (wrong model)",
      "546.3 vs 980.4 permille",
      core::fmt(first.specs[2].bad_permille, 1) + " vs " +
          core::fmt(reference.trace.front().specs[2].bad_permille, 1) +
          " permille",
      std::abs(first.specs[2].bad_permille -
               reference.trace.front().specs[2].bad_permille) > 50.0);
  bench::claim("nominal-linearized run falls short of the reference",
               "0% vs 99.9%",
               core::fmt_percent(last.verified_yield, 1) + " vs " +
                   core::fmt_percent(reference.trace.back().verified_yield, 1),
               last.verified_yield <
                   reference.trace.back().verified_yield - 0.02);
  bench::claim("the model's own yield estimate stays broken",
               "bad counts remain nonzero",
               core::fmt_percent(last.linear_yield, 1) + " model yield",
               last.linear_yield < 0.9);
  std::printf("\nsimulations: optimization=%zu verification=%zu wall=%.1fs\n",
              result.counts.optimization, result.counts.verification,
              result.wall_seconds);
  return 0;
}
