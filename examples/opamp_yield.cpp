// Domain scenario 1: full yield optimization of the folded-cascode opamp
// -- the paper's headline experiment end to end, with a detailed report:
// per-iteration trace, final sizing, worst-case distances and a
// confidence-intervalled verification Monte Carlo.
//
// Build & run:  ./build/examples/opamp_yield
//
// The run ends with a structured RunReport (mayo.run_report/1 JSON):
// per-phase wall time of the Fig. 6 loop, cache hit/miss tallies, Newton
// iteration counts, and the optimizer headline numbers.
#include <cstdio>

#include "circuits/folded_cascode.hpp"
#include "core/optimizer.hpp"
#include "core/run_report.hpp"

using namespace mayo;

int main() {
  auto problem = circuits::FoldedCascode::make_problem();
  core::Evaluator evaluator(problem);

  std::printf("Folded-cascode opamp: %zu design parameters, %zu statistical "
              "parameters (%zu local), %zu specs\n\n",
              problem.design.dimension(), problem.statistical.dimension(),
              problem.statistical.dimension() - 4, problem.num_specs());

  core::YieldOptimizerOptions options;
  options.max_iterations = 4;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  // Fan the per-spec worst-case searches out over all cores; results are
  // bitwise identical to the serial path (see build_linearizations).
  options.linearization_threads = 0;
  // Variance-reduced final verification: one adaptive mean-shift IS pass
  // at the final design, reusing the worst-case points the last
  // linearization already paid for (see DESIGN.md section 13).
  options.run_is_verification = true;
  options.is_verification.initial_samples = 64;
  options.is_verification.round_samples = 64;
  options.is_verification.max_rounds = 4;
  const auto result = core::optimize_yield(evaluator, options);

  const auto names = circuits::FoldedCascode::performance_names();
  for (const auto& record : result.trace) {
    std::printf("--- iteration %d: linear yield %.1f%%, verified %.1f%% "
                "(95%% CI [%.1f%%, %.1f%%])\n",
                record.iteration, 100.0 * record.linear_yield,
                100.0 * record.verified_yield,
                100.0 * record.verification.confidence.lower,
                100.0 * record.verification.confidence.upper);
    for (std::size_t i = 0; i < names.size(); ++i)
      std::printf("    %-6s margin %+8.3f %-5s  bad %6.1f permille  "
                  "beta %+6.2f\n",
                  names[i].c_str(), record.specs[i].nominal_margin,
                  problem.specs[i].unit.c_str(), record.specs[i].bad_permille,
                  record.specs[i].beta);
  }

  std::printf("\nfinal sizing:\n");
  for (std::size_t i = 0; i < problem.design.dimension(); ++i) {
    const double initial = problem.design.nominal[i];
    const double final = result.final_d[i];
    const bool is_current = problem.design.names[i] == "iref";
    const double scale = is_current ? 1e6 : 1e6;
    std::printf("    %-8s %8.2f -> %8.2f %s   (x%.2f)\n",
                problem.design.names[i].c_str(), initial * scale,
                final * scale, is_current ? "uA" : "um", final / initial);
  }

  std::printf("\nlocal-mismatch sigmas (Pelgrom), initial vs final design:\n");
  const auto sig0 =
      problem.statistical.sigmas(linalg::DesignVec(problem.design.nominal));
  const auto sig1 = problem.statistical.sigmas(result.final_d);
  const auto stat_names = circuits::FoldedCascode::statistical_names();
  for (std::size_t i = 4; i < stat_names.size(); i += 2)
    std::printf("    %-9s %6.2f mV -> %6.2f mV\n", stat_names[i].c_str(),
                1e3 * sig0[i], 1e3 * sig1[i]);

  if (result.is_verification_run) {
    const auto& is = result.is_verification;
    std::printf("\nimportance-sampled final verification: yield %.2f%% "
                "(95%% CI [%.2f%%, %.2f%%], %zu evaluations, %zu adaptive "
                "rounds)\n",
                100.0 * is.yield, 100.0 * is.confidence.lower,
                100.0 * is.confidence.upper, is.evaluations, is.rounds);
    for (const auto& spec : is.per_spec)
      std::printf("    %-6s fail %.3g  [%.3g, %.3g]  samples %4zu  "
                  "beta-shift %5.2f%s\n",
                  names[spec.spec].c_str(), spec.fail_probability, spec.lower,
                  spec.upper, spec.samples, spec.shift_norm,
                  spec.self_normalized ? "  (self-normalized)" : "");
  }

  std::printf("\neffort: %zu optimization evaluations, %zu verification, "
              "%.1f s wall clock\n",
              result.counts.optimization, result.counts.verification,
              result.wall_seconds);

  core::RunReport report = core::snapshot_run_report("opamp_yield");
  core::attach_optimizer(report, result);
  std::printf("\n%s", core::to_json(report).c_str());
  return 0;
}
