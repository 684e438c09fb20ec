// Beyond the paper's own tables: a quantitative comparison against the two
// baseline families its introduction argues with.
//
//   (a) Direct Monte-Carlo yield optimization [2-5]: "straightforward but
//       needs a huge number of simulations if applied within an
//       optimization loop."
//   (b) Worst-case-distance maximin / multiple-criteria robustness
//       optimization [10-12]: per-spec robustness objectives that cannot
//       see performance correlations the sampled estimate captures.
//
// All three run on the Miller opamp (cheap, globals only), same starting
// point, same verification protocol.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/miller.hpp"
#include "core/baseline.hpp"
#include "core/optimizer.hpp"
#include "core/verification.hpp"
#include "core/wc_operating.hpp"

using namespace mayo;

namespace {

double verify(core::Evaluator& ev, const linalg::DesignVec& d) {
  const auto corners = core::find_worst_case_operating(ev, d);
  core::VerificationOptions options;
  options.num_samples = 300;
  return core::monte_carlo_verify(ev, d, corners.theta_wc, options).yield;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Baseline comparison (Miller opamp): proposed vs direct-MC vs maximin");

  // (1) Proposed: spec-wise linearization + feasibility-guided search.
  auto p1 = circuits::Miller::make_problem();
  core::Evaluator ev1(p1);
  core::YieldOptimizerOptions proposed_options;
  proposed_options.sample_seed = sample_seed;
  proposed_options.max_iterations = 3;
  proposed_options.linear_samples = 10000;
  proposed_options.run_verification = false;
  const auto proposed = core::optimize_yield(ev1, proposed_options);
  const std::size_t proposed_sims = ev1.counts().total();
  const double proposed_yield = verify(ev1, proposed.final_d);

  // (2) Direct Monte-Carlo coordinate search on the true simulator.
  auto p2 = circuits::Miller::make_problem();
  core::Evaluator ev2(p2);
  core::DirectMcOptions mc_options;
  mc_options.samples = 100;
  mc_options.max_sweeps = 3;
  mc_options.max_evaluations = 12000;
  const auto direct = core::optimize_yield_direct_mc(ev2, mc_options);
  const std::size_t direct_sims = direct.evaluations;
  const double direct_yield = verify(ev2, direct.d);

  // (3) Maximin on the linearized worst-case distances (one linearization,
  //     then pure model-space centering, then a true-constraint check).
  auto p3 = circuits::Miller::make_problem();
  core::Evaluator ev3(p3);
  const auto lm =
      core::build_linearizations(ev3, linalg::DesignVec(p3.design.nominal));
  const auto feasibility =
      core::linearize_feasibility(ev3, linalg::DesignVec(p3.design.nominal));
  const auto maximin = core::maximize_min_beta(
      lm.models, p3.design, &feasibility, linalg::DesignVec(p3.design.nominal));
  const std::size_t maximin_sims = ev3.counts().total();
  const double maximin_yield = verify(ev3, maximin.d);

  core::TextTable table({"method", "simulations", "verified yield", "notes"});
  table.add_row({"proposed (paper)", std::to_string(proposed_sims),
                 core::fmt_percent(proposed_yield, 1),
                 std::to_string(proposed.trace.size() - 1) + " iterations"});
  table.add_row({"direct Monte-Carlo", std::to_string(direct_sims),
                 core::fmt_percent(direct_yield, 1),
                 direct.budget_exhausted ? "budget exhausted" : "converged"});
  table.add_row({"WCD maximin [10]", std::to_string(maximin_sims),
                 core::fmt_percent(maximin_yield, 1),
                 "min beta = " + core::fmt(maximin.min_beta, 2)});
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("proposed reaches high yield", "99.3%",
               core::fmt_percent(proposed_yield, 1), proposed_yield > 0.95);
  bench::claim("direct MC needs many times more simulations",
               "impracticable effort (Sec. 1)",
               core::fmt(static_cast<double>(direct_sims) /
                             static_cast<double>(proposed_sims),
                         1) + "x the proposed budget",
               direct_sims > 2 * proposed_sims);
  bench::claim("direct MC yield no better despite the extra effort",
               "implied",
               core::fmt_percent(direct_yield, 1) + " vs " +
                   core::fmt_percent(proposed_yield, 1),
               direct_yield <= proposed_yield + 0.02);
  bench::claim("maximin is cheap but blind to the sampled joint yield",
               "correlations hard in MCO (Sec. 1)",
               core::fmt_percent(maximin_yield, 1) + " from one linearization",
               maximin_yield <= proposed_yield + 1e-9);
  return 0;
}
