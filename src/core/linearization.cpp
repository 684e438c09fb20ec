#include "core/linearization.hpp"

#include "core/fan_out.hpp"
#include "core/verification.hpp"
#include "obs/obs.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

double SpecLinearization::value(const DesignVec& d,
                                const StatUnitVec& s_hat) const {
  return margin_wc + linalg::dot(grad_s, s_hat - s_wc) +
         linalg::dot(grad_d, d - d_f);
}

namespace {

/// Appends the primary model for one spec -- and, when `enable_mirror` and
/// the worst-case search detected a quadratic performance, the mirrored
/// model (eq. 21-22) -- to `out.models`.
void append_spec_models(std::size_t spec, const OperatingVec& theta_wc,
                        const DesignVec& d_f, const WorstCasePoint& wc,
                        DesignVec grad_d, bool enable_mirror,
                        LinearizedModels& out) {
  SpecLinearization model;
  model.spec = spec;
  model.theta_wc = theta_wc;
  model.s_wc = wc.s_wc;
  model.d_f = d_f;
  model.margin_wc = wc.margin_at_wc;
  model.grad_s = wc.gradient;
  model.grad_d = std::move(grad_d);
  model.beta = wc.beta;
  out.models.push_back(model);

  if (enable_mirror && wc.mirrored) {
    // Mirrored model (eq. 21-22): expansion at -s_wc with negated
    // statistical gradient; margin there was measured during detection.
    SpecLinearization mirror = model;
    mirror.is_mirror = true;
    mirror.s_wc = -wc.s_wc;
    mirror.margin_wc = wc.margin_at_mirror;
    mirror.grad_s = -wc.gradient;
    out.models.push_back(std::move(mirror));
  }
}

}  // namespace

LinearizedModels build_linearizations(Evaluator& evaluator,
                                      const DesignVec& d_f,
                                      const LinearizationOptions& options,
                                      unsigned threads,
                                      const LinearizedModels* previous) {
  const std::size_t num_specs = evaluator.num_specs();
  // Spec i goes to worker i % n in both fan-outs, so each worker's
  // evaluator serves its own specs' searches and then their gradients.
  // The nominal ablation stays serial: its shared finite-difference batch
  // is already one evaluation block.
  WorkerPool pool(evaluator, options.linearize_at_nominal ? 1 : threads);
  std::vector<WorstCasePoint> wcs(num_specs);
  std::vector<DesignVec> grads_d(num_specs);

  // Phase accounting: the worst-case searches (operating corners, then the
  // per-spec statistical distance searches) and the model building proper
  // record into disjoint spans on the calling thread, so worst_case_search
  // + linearization partition this function's wall time.
  LinearizedModels out;
  {
    const obs::Span span(obs::registry().phases.worst_case_search);
    out.operating = find_worst_case_operating(evaluator, d_f, options.operating);
    if (!options.linearize_at_nominal)
      pool.run(num_specs, [&](unsigned w, unsigned n,
                              Evaluator& ev) {  // parallel-entry
        for (std::size_t i = w; i < num_specs; i += n)
          wcs[i] = find_worst_case_point(
              ev, i, d_f, out.operating.theta_wc[i], options.wc,
              previous != nullptr ? &previous->worst_cases.at(i) : nullptr);
      });
  }

  const obs::Span span(obs::registry().phases.linearization);
  if (options.linearize_at_nominal) {
    // Ablation: pretend every worst case sits at the nominal point.  The
    // finite-difference block is shared across specs: one
    // margin_gradients_s batch per distinct operating corner (probes the
    // identical point set as per-spec gradients; each row is bitwise the
    // scalar gradient).
    const CornerGrouping grouping = group_corners(out.operating.theta_wc);
    const StatUnitVec s_nominal = evaluator.nominal_s_hat();
    std::vector<linalg::Matrixd> nominal_grads;
    nominal_grads.reserve(grouping.distinct.size());
    for (const OperatingVec& theta : grouping.distinct)
      nominal_grads.push_back(
          evaluator.margin_gradients_s(d_f, s_nominal, theta));
    for (std::size_t i = 0; i < num_specs; ++i) {
      WorstCasePoint& wc = wcs[i];
      wc.spec = i;
      wc.s_wc = s_nominal;
      wc.margin_nominal =
          evaluator.margin(i, d_f, wc.s_wc, out.operating.theta_wc[i]);
      wc.margin_at_wc = wc.margin_nominal;
      const linalg::Matrixd& grads = nominal_grads[grouping.group_of_spec[i]];
      wc.gradient = StatUnitVec(evaluator.num_statistical());
      for (std::size_t k = 0; k < wc.gradient.size(); ++k)
        wc.gradient[k] = grads(i, k);
      wc.beta = 0.0;
      wc.converged = true;
    }
  }

  pool.run(num_specs, [&](unsigned w, unsigned n,
                          Evaluator& ev) {  // parallel-entry
    for (std::size_t i = w; i < num_specs; i += n)
      grads_d[i] = ev.margin_gradient_d(i, d_f, wcs[i].s_wc,
                                        out.operating.theta_wc[i]);
  });

  for (std::size_t i = 0; i < num_specs; ++i) {
    append_spec_models(i, out.operating.theta_wc[i], d_f, wcs[i],
                       std::move(grads_d[i]),
                       options.enable_mirror && !options.linearize_at_nominal,
                       out);
    out.worst_cases.push_back(std::move(wcs[i]));
  }
  return out;
}

}  // namespace mayo::core
