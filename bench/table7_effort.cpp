// Paper Table 7: computational effort -- the total number of circuit
// simulations and the wall-clock time for the full optimization of both
// example circuits.  (The paper used 5 parallel Pentium III machines with
// the TITAN simulator; this repo runs its own MNA simulator single-
// threaded, so wall-clock comparisons are indicative only.  The
// simulation *counts* are the comparable quantity.)
//
// A simulation is one probed (d, s, theta) point.  Next to it the table
// shows the solves behind those points: a worst-case search for one spec
// runs only the analysis that measures it, so a power probe runs one DC
// solve, a CMRR probe one DC and two AC solves and an f_t probe the
// crossing search (obs counters dc.solves, ac.probes and tran.solves), and
// the transients' cost: their accepted time steps and Newton iterations
// (tran.steps, tran.newton_iterations).  The next four columns show where
// the worst-case searches spend their simulations: sequential-linearization
// iterations over all starts, each a forward-difference gradient, the
// starts stopped on the trust sphere because their spec is out of reach
// (wc.iterations, wc.out_of_reach), and the searches warm-started at the
// previous iterate's worst-case point with those that fell back to the
// full multi-start (wc.warm_starts, wc.warm_fallbacks).  "CS scans" counts
// the exact coordinate scans of the linear-model coordinate search, which
// runs no simulation (cs.scans).  Counters read "n/a" under MAYO_OBS=OFF.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/optimizer.hpp"
#include "obs/obs.hpp"

using namespace mayo;

namespace {

/// One circuit's Table-7 run: the optimization plus its testbench counters.
struct Effort {
  core::YieldOptimizationResult result;
  std::uint64_t dc_solves = 0;
  std::uint64_t ac_solves = 0;
  std::uint64_t tran_solves = 0;
  std::uint64_t tran_steps = 0;
  std::uint64_t tran_newton = 0;
  std::uint64_t wc_iterations = 0;
  std::uint64_t wc_out_of_reach = 0;
  std::uint64_t wc_warm_starts = 0;
  std::uint64_t wc_warm_fallbacks = 0;
  std::uint64_t cs_scans = 0;

  std::size_t sims() const {
    return result.counts.optimization + result.counts.constraint;
  }
};

Effort run(core::YieldProblem problem,
           const core::YieldOptimizerOptions& options) {
  obs::registry().reset();
  core::Evaluator evaluator(problem);
  Effort effort;
  effort.result = core::optimize_yield(evaluator, options);
  const obs::Counters& c = obs::registry().counters;
  effort.dc_solves = c.dc_solves.value();
  effort.ac_solves = c.ac_probes.value();
  effort.tran_solves = c.tran_solves.value();
  effort.tran_steps = c.tran_steps.value();
  effort.tran_newton = c.tran_newton_iterations.value();
  effort.wc_iterations = c.wc_iterations.value();
  effort.wc_out_of_reach = c.wc_out_of_reach.value();
  effort.wc_warm_starts = c.wc_warm_starts.value();
  effort.wc_warm_fallbacks = c.wc_warm_fallbacks.value();
  effort.cs_scans = c.cs_scans.value();
  return effort;
}

std::string counter(std::uint64_t value) {
  return obs::kEnabled ? std::to_string(value) : "n/a";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sample_seed = 0;
  if (!bench::parse_sample_seed(argc, argv, sample_seed)) return 2;
  bench::section("Table 7: computational effort");

  core::YieldOptimizerOptions options;
  options.sample_seed = sample_seed;
  options.max_iterations = 4;
  options.linear_samples = 10000;
  options.run_verification = false;  // the paper's count excludes the
                                     // verification Monte Carlo

  const Effort fc_effort =
      run(circuits::FoldedCascode::make_problem(), options);

  core::YieldOptimizerOptions miller_options = options;
  miller_options.max_iterations = 3;
  const Effort miller_effort =
      run(circuits::Miller::make_problem(), miller_options);
  const core::YieldOptimizationResult& fc = fc_effort.result;
  const core::YieldOptimizationResult& miller = miller_effort.result;

  core::TextTable table({"Circuit", "# Simulations", "DC solves",
                         "AC solves", "transients", "time steps",
                         "tran Newton", "WC iterations",
                         "out of reach", "warm starts", "warm fallbacks",
                         "CS scans", "Wall clock", "paper # sims",
                         "paper wall clock"});
  const auto add_row = [&](const char* name, const Effort& effort,
                           const char* paper_sims, const char* paper_wall) {
    table.add_row({name, std::to_string(effort.sims()),
                   counter(effort.dc_solves), counter(effort.ac_solves),
                   counter(effort.tran_solves), counter(effort.tran_steps),
                   counter(effort.tran_newton),
                   counter(effort.wc_iterations),
                   counter(effort.wc_out_of_reach),
                   counter(effort.wc_warm_starts),
                   counter(effort.wc_warm_fallbacks),
                   counter(effort.cs_scans),
                   core::fmt(effort.result.wall_seconds, 1) + " s", paper_sims,
                   paper_wall});
  };
  add_row("Folded-Cascode", fc_effort, "689", "30 min");
  add_row("Miller", miller_effort, "627", "8 min");
  std::fputs(table.str().c_str(), stdout);
  bench::print_stop("Folded-Cascode ", fc, options.linear_samples);
  bench::print_stop("Miller ", miller, options.linear_samples);

  const std::size_t fc_sims = fc_effort.sims();
  const std::size_t miller_sims = miller_effort.sims();
  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("optimization needs only hundreds..thousands of simulations",
               "689 / 627",
               std::to_string(fc_sims) + " / " + std::to_string(miller_sims),
               fc_sims < 20000 && miller_sims < 20000);
  bench::claim("Miller (4 statistical params) cheaper than folded-cascode (14)",
               "627 < 689 per-sim cost aside",
               std::to_string(miller_sims) + " < " + std::to_string(fc_sims),
               miller_sims < fc_sims);
  bench::claim("Miller needs no more simulations than the paper", "627",
               std::to_string(miller_sims), miller_sims <= 627);
  bench::claim("folded cascode within 4x the paper's simulations",
               "689 (x4 = 2756)", std::to_string(fc_sims),
               fc_sims <= 4 * 689);
  bench::claim("both circuits finish within minutes", "30 / 8 min",
               core::fmt(fc.wall_seconds, 1) + " / " +
                   core::fmt(miller.wall_seconds, 1) + " s",
               fc.wall_seconds < 600.0 && miller.wall_seconds < 600.0);
  std::printf("\nNote: counts exclude the verification Monte Carlo (the paper "
              "reports optimization effort; verification adds "
              "N_samples x #distinct-corners evaluations per trace row).\n"
              "A simulation is one probed (d, s, theta) point; 'DC solves' "
              "and 'AC solves' count the operating-point and small-signal "
              "solves actually run at those points (each point runs only the "
              "analyses its request reads), 'transients' every transient "
              "solve, 'time "
              "steps' and 'tran Newton' their accepted time steps and Newton "
              "iterations; "
              "'WC iterations' counts worst-case search iterations over all "
              "starts, 'out of reach' the starts stopped on the trust sphere "
              "with their spec still beyond it, 'warm starts' the searches "
              "started at the previous iterate's worst-case point, 'warm "
              "fallbacks' those that did not converge and ran the full "
              "multi-start, and 'CS scans' the coordinate search's exact "
              "1-D scans on the linear models (no simulations).\n");
  return 0;
}
