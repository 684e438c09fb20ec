// Variance-reduced final verification: plain Monte-Carlo vs worst-case
// mean-shift importance sampling on the folded-cascode opamp.
//
// The full run optimizes the opamp to its high-yield final design (the
// regime the IS verifier exists for: every worst-case distance beta
// pushed out, failures rare), then verifies that design twice --
//   * plain MC at a large sample count (Wilson interval), and
//   * adaptive IS at a small budget (Frechet bracket over the per-spec
//     mean-shift estimates)
// -- and compares the achieved 95% yield-interval half-widths against
// the model evaluations spent.  Acceptance: IS reaches a half-width at
// least as tight with >= 5x fewer evaluations.  Each half also reports
// its wall seconds and the transient solves it ran (obs tran.solves; 0
// in a MAYO_OBS=OFF build): both verifiers run at each corner only the
// testbenches that corner's specs read, and the slew transient is most
// of an evaluation's time.
//
// Flags:
//   --smoke        tiny budgets at the initial design (CI crash check)
//   --json PATH    write the comparison as a JSON document at PATH (exit 2
//                  when PATH cannot be opened)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"
#include "core/is_verification.hpp"
#include "core/linearization.hpp"
#include "core/optimizer.hpp"
#include "core/verification.hpp"
#include "obs/obs.hpp"

using namespace mayo;

namespace {

/// Wall seconds and transient solves of one verification half.
struct Cost {
  double wall_s = 0.0;
  std::uint64_t tran_solves = 0;
};

/// Runs `body` and returns what it cost.
template <class Body>
Cost measure_cost(Body&& body) {
  const std::uint64_t solves = obs::registry().counters.tran_solves.value();
  const auto start = std::chrono::steady_clock::now();
  body();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  return {wall.count(), obs::registry().counters.tran_solves.value() - solves};
}

struct Comparison {
  double mc_yield = 0.0;
  double mc_half_width = 0.0;
  std::size_t mc_evaluations = 0;
  Cost mc_cost;
  double is_yield = 0.0;
  double is_half_width = 0.0;
  std::size_t is_evaluations = 0;
  std::size_t is_rounds = 0;
  std::size_t ess_fallbacks = 0;
  Cost is_cost;
};

Comparison compare_at(core::Evaluator& ev, const linalg::DesignVec& d,
                      const core::LinearizedModels& linearized,
                      std::size_t mc_samples, std::size_t is_initial,
                      std::size_t is_round, std::size_t is_rounds) {
  Comparison out;

  core::VerificationOptions mc_options;
  mc_options.num_samples = mc_samples;
  core::VerificationResult mc;
  out.mc_cost = measure_cost([&] {
    mc = core::monte_carlo_verify(ev, d, linearized.operating.theta_wc,
                                  mc_options);
  });
  out.mc_yield = mc.yield;
  out.mc_half_width = 0.5 * (mc.confidence.upper - mc.confidence.lower);
  out.mc_evaluations = mc.evaluations;

  std::vector<linalg::StatUnitVec> s_wc;
  s_wc.reserve(linearized.worst_cases.size());
  for (const core::WorstCasePoint& wc : linearized.worst_cases)
    s_wc.push_back(wc.s_wc);

  core::IsVerificationOptions is_options;
  is_options.initial_samples = is_initial;
  is_options.round_samples = is_round;
  is_options.max_rounds = is_rounds;
  core::IsVerificationResult is;
  out.is_cost = measure_cost([&] {
    is = core::importance_sample_verify(ev, d, linearized.operating.theta_wc,
                                        s_wc, is_options);
  });
  out.is_yield = is.yield;
  out.is_half_width = 0.5 * (is.confidence.upper - is.confidence.lower);
  out.is_evaluations = is.evaluations;
  out.is_rounds = is.rounds;
  for (const core::SpecIsEstimate& e : is.per_spec)
    if (e.self_normalized) ++out.ess_fallbacks;
  return out;
}

void print_comparison(const char* label, const Comparison& c) {
  std::printf("\n%s\n", label);
  std::printf("  plain MC : yield %s  CI half-width %.5f  evaluations %zu"
              "  (%.2f s, %llu transients)\n",
              core::fmt_percent(c.mc_yield, 2).c_str(), c.mc_half_width,
              c.mc_evaluations, c.mc_cost.wall_s,
              static_cast<unsigned long long>(c.mc_cost.tran_solves));
  std::printf("  IS       : yield %s  CI half-width %.5f  evaluations %zu"
              "  (rounds %zu, fallbacks %zu; %.2f s, %llu transients)\n",
              core::fmt_percent(c.is_yield, 2).c_str(), c.is_half_width,
              c.is_evaluations, c.is_rounds, c.ess_fallbacks, c.is_cost.wall_s,
              static_cast<unsigned long long>(c.is_cost.tran_solves));
  const double eval_ratio =
      c.is_evaluations > 0
          ? static_cast<double>(c.mc_evaluations) /
                static_cast<double>(c.is_evaluations)
          : 0.0;
  std::printf("  evaluations ratio (MC / IS): %.1fx\n", eval_ratio);
}

bool write_json(const char* path, const Comparison& c) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  const double eval_ratio =
      c.is_evaluations > 0
          ? static_cast<double>(c.mc_evaluations) /
                static_cast<double>(c.is_evaluations)
          : 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bm_is_verify (bench/bm_is_verify.cpp)\",\n");
  std::fprintf(f,
               "  \"description\": \"Plain-MC vs mean-shift importance-sampled "
               "yield verification at the optimized folded-cascode design; "
               "wall_s and tran_solves (obs tran.solves) give each half's "
               "cost\",\n");
  std::fprintf(f, "  \"results\": {\n");
  std::fprintf(f, "    \"mc\": {\"yield\": %.6f, \"ci_half_width\": %.6f, "
               "\"evaluations\": %zu, \"wall_s\": %.3f, "
               "\"tran_solves\": %llu},\n",
               c.mc_yield, c.mc_half_width, c.mc_evaluations, c.mc_cost.wall_s,
               static_cast<unsigned long long>(c.mc_cost.tran_solves));
  std::fprintf(f, "    \"is\": {\"yield\": %.6f, \"ci_half_width\": %.6f, "
               "\"evaluations\": %zu, \"rounds\": %zu, \"ess_fallbacks\": %zu, "
               "\"wall_s\": %.3f, \"tran_solves\": %llu},\n",
               c.is_yield, c.is_half_width, c.is_evaluations, c.is_rounds,
               c.ess_fallbacks, c.is_cost.wall_s,
               static_cast<unsigned long long>(c.is_cost.tran_solves));
  std::fprintf(f, "    \"evaluations_ratio\": %.2f\n", eval_ratio);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  bench::section("Variance-reduced verification: plain MC vs mean-shift IS");

  auto problem = circuits::FoldedCascode::make_problem();
  core::Evaluator ev(problem);

  if (smoke) {
    // Tiny budgets at the initial design: enough to exercise the whole
    // IS path (sampler, weights, adaptive rounds, Frechet assembly)
    // without the optimizer run.
    const linalg::DesignVec d(circuits::FoldedCascode::initial_design());
    const core::LinearizedModels linearized =
        core::build_linearizations(ev, d);
    const Comparison c = compare_at(ev, d, linearized, 60, 16, 16, 2);
    print_comparison("initial design (smoke budgets)", c);
    if (json_path != nullptr && !write_json(json_path, c)) return 2;
    std::printf("\nsmoke OK\n");
    return 0;
  }

  // Full mode: optimize first, then verify the final design both ways.
  core::YieldOptimizerOptions options;
  options.max_iterations = 3;
  options.verification.num_samples = 300;
  const core::YieldOptimizationResult result = core::optimize_yield(ev, options);
  std::printf("optimized design after %zu trace rows: verified yield %s\n",
              result.trace.size(),
              core::fmt_percent(result.trace.back().verified_yield, 1).c_str());

  // The optimizer's in-loop MC already evaluated the first 300 samples at
  // this design; start cold so plain MC is charged all its evaluations.
  ev.clear_cache();
  const Comparison c = compare_at(ev, result.final_d,
                                  result.linearizations.back(),
                                  3000, 64, 64, 4);
  print_comparison("final design", c);

  const bool tighter = c.is_half_width <= c.mc_half_width;
  const bool cheaper = c.mc_evaluations >=
                       5 * (c.is_evaluations > 0 ? c.is_evaluations : 1);
  bench::claim("IS half-width no worse than plain MC", "<= MC",
               core::fmt(c.is_half_width, 5) + " vs " +
                   core::fmt(c.mc_half_width, 5),
               tighter);
  bench::claim("IS spends >= 5x fewer model evaluations", ">= 5x",
               core::fmt(static_cast<double>(c.mc_evaluations) /
                             static_cast<double>(c.is_evaluations),
                         1) + "x",
               cheaper);

  if (json_path != nullptr && !write_json(json_path, c)) return 2;
  return tighter && cheaper ? 0 : 1;
}
