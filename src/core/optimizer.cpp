#include "core/optimizer.hpp"

#include "core/problem_audit.hpp"
#include "core/yield_model.hpp"

#include <chrono>
#include <optional>

#include "stats/sampler.hpp"

namespace mayo::core {

using linalg::DesignVec;

namespace {

/// Builds the trace row at iterate d from freshly built linearizations.
IterationRecord make_record(Evaluator& evaluator, const DesignVec& d,
                            const LinearizedModels& linearized,
                            const stats::SampleSet& samples,
                            int iteration) {
  IterationRecord record;
  record.iteration = iteration;
  record.d = d;

  LinearYieldModel yield_model(linearized.models, samples);
  yield_model.set_design(d);
  record.linear_yield = yield_model.yield();
  const std::vector<std::size_t> bad =
      yield_model.bad_samples_per_spec(evaluator.num_specs());

  record.specs.resize(evaluator.num_specs());
  for (std::size_t i = 0; i < evaluator.num_specs(); ++i) {
    record.specs[i].nominal_margin = linearized.operating.worst_margin[i];
    record.specs[i].bad_permille =
        1000.0 * static_cast<double>(bad[i]) / samples.count();
    if (!linearized.worst_cases.empty()) {
      record.specs[i].beta = linearized.worst_cases[i].beta;
      record.specs[i].beta_converged = linearized.worst_cases[i].converged;
    }
  }

  return record;
}

void attach_verification(Evaluator& evaluator, IterationRecord& record,
                         const LinearizedModels& linearized,
                         const YieldOptimizerOptions& options) {
  if (!options.run_verification) return;
  record.verification = monte_carlo_verify(
      evaluator, record.d, linearized.operating.theta_wc, options.verification);
  record.verified_yield = record.verification.yield;
}

}  // namespace

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kMaxIterations: return "max_iterations";
    case StopReason::kPredictedGain: return "predicted_gain";
    case StopReason::kLineSearchBlocked: return "line_search_blocked";
    case StopReason::kAllAttemptsRejected: return "all_attempts_rejected";
  }
  return "unknown";
}

YieldOptimizationResult optimize_yield(Evaluator& evaluator,
                                       const YieldOptimizerOptions& options) {
  enforce_problem_boundary(evaluator.problem(), options.audit);

  const auto start_time = std::chrono::steady_clock::now();
  YieldOptimizationResult result;

  const auto& design_space = evaluator.problem().design;

  // Step 1: feasible starting point (Sec. 5.5).
  DesignVec d_f(design_space.nominal);
  if (options.use_constraints) {
    const FeasibleStartResult start =
        find_feasible_start(evaluator, d_f, options.feasible_start);
    d_f = start.d;
    result.feasible_start_found = start.feasible;
  } else {
    result.feasible_start_found = true;  // not enforced in the ablation
  }

  const stats::SampleSet samples(options.linear_samples,
                                 evaluator.num_statistical(),
                                 options.sample_seed);

  // Initial linearization doubles as the "Initial" trace row.
  LinearizedModels linearized = build_linearizations(
      evaluator, d_f, options.linearization, options.linearization_threads);
  {
    IterationRecord initial =
        make_record(evaluator, d_f, linearized, samples, 0);
    attach_verification(evaluator, initial, linearized, options);
    result.trace.push_back(std::move(initial));
  }
  result.linearizations.push_back(linearized);

  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    // Step 2: models are already linearized at d_f.  Constraints too:
    FeasibilityModel feasibility;
    if (options.use_constraints)
      feasibility = linearize_feasibility(evaluator, d_f);

    // Steps 3-5 with a shrinking trust region: if the candidate's
    // re-linearized yield estimate fell below the previous iterate's, the
    // linear models were overstretched -- retry the coordinate search with
    // half the trust radius ("until no further improvement", Fig. 6).
    bool accepted = false;
    std::optional<StopReason> stop;  // set by an attempt that ends the loop
    CoordinateSearchOptions search_options = options.search;
    for (int attempt = 0; attempt < 3 && !accepted; ++attempt) {
      // Step 3: coordinate search on the linear models (eq. 17-20).
      LinearYieldModel yield_model(linearized.models, samples);
      yield_model.set_design(d_f);
      const std::size_t passing_at_d_f = yield_model.passing();
      const CoordinateSearchResult search = maximize_linear_yield(
          yield_model, options.use_constraints ? &feasibility : nullptr,
          design_space, search_options);
      result.predicted_gain = static_cast<std::int64_t>(search.passing) -
                              static_cast<std::int64_t>(passing_at_d_f);
      // "Until no further improvement" (Fig. 6), decided on the models at
      // no simulation cost: a predicted gain within the sample set's
      // resolution -- 0 when the search made no move -- is not worth a line
      // search and a re-linearization.
      if (search.passing <= passing_at_d_f + kStopGainSamples) {
        stop = StopReason::kPredictedGain;
        break;
      }

      // Step 4: feasibility line search on true constraints (eq. 23).
      double gamma = 1.0;
      DesignVec d_new = search.d_star;
      if (options.use_constraints) {
        const LineSearchResult line = feasibility_line_search(
            evaluator, d_f, search.d_star, options.line_search);
        gamma = line.gamma;
        d_new = line.d_new;
      }
      if (gamma <= 0.0) {  // cannot move without leaving F
        stop = StopReason::kLineSearchBlocked;
        break;
      }

      // Step 5: re-linearize at the candidate, following the accepted
      // iterate's mismatch-type worst-case points, and apply the monotone
      // safeguard.
      LinearizedModels candidate_models =
          build_linearizations(evaluator, d_new, options.linearization,
                               options.linearization_threads, &linearized);
      IterationRecord record = make_record(evaluator, d_new, candidate_models,
                                           samples, iteration);
      if (options.monotone_safeguard &&
          record.linear_yield + 1e-12 < result.trace.back().linear_yield) {
        search_options.trust_fraction *= 0.5;
        search_options.trust_floor_fraction *= 0.5;
        continue;
      }

      d_f = d_new;
      linearized = std::move(candidate_models);
      attach_verification(evaluator, record, linearized, options);
      record.gamma = gamma;
      record.moves = static_cast<std::size_t>(search.moves);
      record.predicted_yield = search.yield;
      result.trace.push_back(std::move(record));
      result.linearizations.push_back(linearized);
      accepted = true;
    }
    if (!accepted) {
      result.stop_reason = stop.value_or(StopReason::kAllAttemptsRejected);
      break;
    }
  }

  // Optional importance-sampled final verification: reuse the worst-case
  // points the last linearization already paid for as the mean shifts.
  if (options.run_is_verification && !result.linearizations.empty()) {
    const LinearizedModels& last = result.linearizations.back();
    if (!last.worst_cases.empty()) {
      std::vector<linalg::StatUnitVec> s_wc;
      s_wc.reserve(last.worst_cases.size());
      for (const WorstCasePoint& wc : last.worst_cases)
        s_wc.push_back(wc.s_wc);
      result.is_verification = importance_sample_verify(
          evaluator, d_f, last.operating.theta_wc, s_wc,
          options.is_verification);
      result.is_verification_run = true;
    }
  }

  result.final_d = d_f;
  result.counts = evaluator.counts();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

}  // namespace mayo::core
