#include "core/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/check.hpp"
#include "obs/obs.hpp"

// Whitelisted space crossing (see linalg/spaces.hpp): the evaluator owns
// the s = G(d) s_hat + s0 application and the Performance -> Margin
// transform, and builds bitwise cache keys from the underlying storage,
// so it legitimately unwraps tagged vectors via .raw().

namespace mayo::core {

using linalg::ConstMatrixView;
using linalg::DesignVec;
using linalg::MarginVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::PerfVec;
using linalg::StatPhysVec;
using linalg::StatUnitVec;
using linalg::Vector;

namespace {

/// Forward-difference step over d, as a fraction of each design range.
constexpr double kDesignStepFraction = 1e-3;

}  // namespace

Evaluator::Evaluator(YieldProblem& problem, std::size_t cache_capacity)
    : problem_(problem),
      cache_(cache_capacity),
      // The c(d) cache reports into its own obs group: constraint reuse
      // and performance-probe reuse are different signals when reading a
      // run report.
      constraint_cache_(0, nullptr,
                        &obs::registry().counters.constraint_cache) {
  problem.validate();
  spec_analysis_.resize(num_specs());
  for (std::size_t i = 0; i < num_specs(); ++i) {
    const std::size_t analysis = problem_.model->analysis_of(i);
    if (analysis >= kMaxAnalyses)
      throw std::invalid_argument("Evaluator: model analysis index out of range");
    spec_analysis_[i] = analysis_bit(analysis);
    all_analyses_ |= spec_analysis_[i];
  }
}

void Evaluator::clear_cache() {
  cache_.clear();
  constraint_cache_.clear();
}

void Evaluator::validate_point(const DesignVec& d, const OperatingVec& theta,
                               std::size_t s_hat_size) const {
  if (d.size() != num_design())
    throw std::invalid_argument("Evaluator: design vector size mismatch");
  if (s_hat_size != num_statistical())
    throw std::invalid_argument("Evaluator: statistical vector size mismatch");
  if (theta.size() != num_operating())
    throw std::invalid_argument("Evaluator: operating vector size mismatch");
}

void Evaluator::charge(Budget budget) {
  if (budget == Budget::kOptimization)
    ++counts_.optimization;
  else
    ++counts_.verification;
}

Vector Evaluator::run_model(const DesignVec& d, const StatPhysVec& s,
                            const OperatingVec& theta, AnalysisMask analyses) {
  Vector values =
      problem_.model->evaluate_analyses(d, s, theta, analyses).raw();
  if (values.size() != num_specs())
    throw std::runtime_error("Evaluator: model returned wrong performance count");
  for (std::size_t i = 0; i < values.size(); ++i)
    if ((spec_analysis_[i] & analyses) == 0) values[i] = 0.0;
  // Every downstream consumer (worst-case search, linearization, yield
  // accumulation) assumes finite performances; catch a silent NaN at the
  // single point where model output enters the system.
  MAYO_CHECK_FINITE(values, "Evaluator: model performance values");
  obs::registry().counters.eval_analyses.add(
      static_cast<std::uint64_t>(std::popcount(analyses)));
  return values;
}

void Evaluator::complete_row(CachedRow& row, const DesignVec& d,
                             const StatUnitVec& s_hat,
                             const OperatingVec& theta, AnalysisMask missing) {
  const StatPhysVec s = problem_.statistical.to_physical(s_hat, d);
  const Vector fresh = run_model(d, s, theta, missing);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    if ((spec_analysis_[i] & missing) != 0) row.values[i] = fresh[i];
  row.analyses |= missing;
}

Vector Evaluator::evaluate_physical(const DesignVec& d,
                                    const StatUnitVec& s_hat,
                                    const OperatingVec& theta, Budget budget,
                                    AnalysisMask wanted) {
  validate_point(d, theta, s_hat.size());

  scalar_key_.clear();
  ProbeCache::append_bits(scalar_key_, d.raw());
  ProbeCache::append_bits(scalar_key_, s_hat.raw());
  ProbeCache::append_bits(scalar_key_, theta.raw());
  if (CachedRow* hit = cache_.find(scalar_key_)) {
    ++counts_.cache_hits;
    const AnalysisMask missing = wanted & ~hit->analyses;
    if (missing != 0) complete_row(*hit, d, s_hat, theta, missing);
    return hit->values;
  }

  // Variable-covariance transform: s = G(d) s_hat + s0 (eq. 11).
  const StatPhysVec s = problem_.statistical.to_physical(s_hat, d);
  Vector values = run_model(d, s, theta, wanted);
  obs::registry().counters.eval_analyses_skipped.add(
      static_cast<std::uint64_t>(std::popcount(all_analyses_ & ~wanted)));
  charge(budget);
  cache_.insert(scalar_key_, CachedRow{values, wanted});
  return values;
}

PerfVec Evaluator::performances(const DesignVec& d, const StatUnitVec& s_hat,
                                const OperatingVec& theta, Budget budget) {
  return PerfVec(evaluate_physical(d, s_hat, theta, budget, all_analyses_));
}

void Evaluator::performances_batch(const DesignVec& d,
                                   linalg::StatUnitBlock s_hat_block,
                                   const OperatingVec& theta,
                                   AnalysisMask analyses,
                                   linalg::PerfBlockView out, EvalWorkspace& ws,
                                   Budget budget) {
  validate_point(d, theta, s_hat_block.cols());
  if (analyses == 0 || (analyses & ~all_analyses_) != 0)
    throw std::invalid_argument(
        "Evaluator::performances_batch: analysis mask empty or not the "
        "model's");
  MAYO_CHECK_DIM(out.rows(), s_hat_block.rows(),
                 "Evaluator::performances_batch: out rows");
  MAYO_CHECK_DIM(out.cols(), num_specs(),
                 "Evaluator::performances_batch: out cols");
  if (out.rows() != s_hat_block.rows() || out.cols() != num_specs())
    throw std::invalid_argument(
        "Evaluator::performances_batch: out shape mismatch");

  const std::size_t block = s_hat_block.rows();
  const std::size_t n_s = num_statistical();
  const std::size_t n_f = num_specs();

  // Pass 1: probe every row against the cache.  A row equal to an earlier
  // unresolved row in the same block is a duplicate: the scalar loop would
  // have inserted the first occurrence before probing the second, so it
  // counts as a cache hit and shares the single simulation.
  ws.miss_keys.clear();
  ws.miss_rows.clear();
  ws.row_source.assign(block, -1);
  for (std::size_t j = 0; j < block; ++j) {
    ws.key.clear();
    ProbeCache::append_bits(ws.key, d.raw());
    ProbeCache::append_bits(ws.key, s_hat_block.row(j), n_s);
    ProbeCache::append_bits(ws.key, theta.raw());
    if (CachedRow* hit = cache_.find(ws.key)) {
      ++counts_.cache_hits;
      const AnalysisMask missing = analyses & ~hit->analyses;
      if (missing != 0) {
        // A row an earlier request left partial: run only what it lacks.
        const double* src = s_hat_block.row(j);
        StatUnitVec s_hat(n_s);  // hot-ok: cold completion of a partial row
        for (std::size_t i = 0; i < n_s; ++i) s_hat[i] = src[i];
        complete_row(*hit, d, s_hat, theta, missing);
      }
      double* out_row = out.row(j);
      for (std::size_t i = 0; i < n_f; ++i) out_row[i] = hit->values[i];
      continue;
    }
    bool duplicate = false;
    for (std::size_t m = 0; m < ws.miss_keys.size(); ++m) {
      if (ws.miss_keys[m] == ws.key) {
        ++counts_.cache_hits;
        ws.row_source[j] = static_cast<std::ptrdiff_t>(m);
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    ws.row_source[j] = static_cast<std::ptrdiff_t>(ws.miss_keys.size());
    ws.miss_keys.push_back(ws.key);
    ws.miss_rows.push_back(j);
  }

  const std::size_t misses = ws.miss_keys.size();
  if (misses > 0) {
    // Grow-only workspace buffers (no allocation once warm).
    if (ws.s_hat_miss.rows() < misses || ws.s_hat_miss.cols() != n_s)
      ws.s_hat_miss = Matrixd(std::max(misses, ws.s_hat_miss.rows()), n_s);
    if (ws.physical.rows() < misses || ws.physical.cols() != n_s)
      ws.physical = Matrixd(std::max(misses, ws.physical.rows()), n_s);
    if (ws.values.rows() < misses || ws.values.cols() != n_f)
      ws.values = Matrixd(std::max(misses, ws.values.rows()), n_f);

    for (std::size_t m = 0; m < misses; ++m) {
      const double* src = s_hat_block.row(ws.miss_rows[m]);
      double* dst = ws.s_hat_miss.row(m);
      for (std::size_t i = 0; i < n_s; ++i) dst[i] = src[i];
    }
    // The workspace matrices carry rows of known spaces; re-tag the views
    // for the crossing calls below.
    const linalg::StatUnitBlock s_hat_view(
        ConstMatrixView(ws.s_hat_miss).middle_rows(0, misses));
    const linalg::StatPhysBlockView physical_view(
        MatrixView(ws.physical).middle_rows(0, misses));
    const linalg::PerfBlockView values_view(
        MatrixView(ws.values).middle_rows(0, misses));

    // s = G(d) s_hat + s0, sigmas hoisted once per block (eq. 11).
    problem_.statistical.to_physical_block(s_hat_view, d, physical_view,
                                           ws.sigma);
    problem_.model->evaluate_batch_analyses(d, physical_view, theta,
                                            analyses, values_view);

    obs::Counters& tallies = obs::registry().counters;
    tallies.eval_analyses.add(
        misses * static_cast<std::uint64_t>(std::popcount(analyses)));
    tallies.eval_analyses_skipped.add(
        misses *
        static_cast<std::uint64_t>(std::popcount(all_analyses_ & ~analyses)));
    for (std::size_t m = 0; m < misses; ++m) {
      double* row = ws.values.row(m);
      for (std::size_t i = 0; i < n_f; ++i)
        if ((spec_analysis_[i] & analyses) == 0) row[i] = 0.0;
      MAYO_CHECK_FINITE((std::span<const double>(row, n_f)),
                        "Evaluator: model performance values");
      charge(budget);
      Vector stored(n_f);  // hot-ok: ownership moves into the cache
      for (std::size_t i = 0; i < n_f; ++i) stored[i] = row[i];
      cache_.insert(std::move(ws.miss_keys[m]),
                    CachedRow{std::move(stored), analyses});
    }
  }

  // Pass 2: fill the rows that were not served directly from the cache.
  for (std::size_t j = 0; j < block; ++j) {
    if (ws.row_source[j] < 0) continue;
    const double* src =
        ws.values.row(static_cast<std::size_t>(ws.row_source[j]));
    double* dst = out.row(j);
    for (std::size_t i = 0; i < n_f; ++i) dst[i] = src[i];
  }
}

void Evaluator::margins_batch(const DesignVec& d,
                              linalg::StatUnitBlock s_hat_block,
                              const OperatingVec& theta,
                              linalg::MarginBlockView out, EvalWorkspace& ws,
                              Budget budget) {
  MAYO_CHECK_DIM(out.rows(), s_hat_block.rows(),
                 "Evaluator::margins_batch: out rows");
  MAYO_CHECK_DIM(out.cols(), num_specs(), "Evaluator::margins_batch: out cols");
  // Performance values land in the margin buffer first, then the in-place
  // per-spec transform below is the Performance -> Margin crossing.
  performances_batch(d, s_hat_block, theta, linalg::PerfBlockView(out.raw()),
                     ws, budget);
  for (std::size_t j = 0; j < out.rows(); ++j) {
    double* row = out.row(j);
    for (std::size_t i = 0; i < num_specs(); ++i)
      row[i] = problem_.specs[i].margin(row[i]);
  }
}

MarginVec Evaluator::margins(const DesignVec& d, const StatUnitVec& s_hat,
                             const OperatingVec& theta, Budget budget) {
  const Vector values =
      evaluate_physical(d, s_hat, theta, budget, all_analyses_);
  MarginVec m(num_specs());
  for (std::size_t i = 0; i < num_specs(); ++i)
    m[i] = problem_.specs[i].margin(values[i]);
  return m;
}

double Evaluator::margin(std::size_t spec, const DesignVec& d,
                         const StatUnitVec& s_hat, const OperatingVec& theta,
                         Budget budget) {
  if (spec >= num_specs())
    throw std::out_of_range("Evaluator::margin: spec index out of range");
  const Vector values =
      evaluate_physical(d, s_hat, theta, budget, spec_analysis_[spec]);
  return problem_.specs[spec].margin(values[spec]);
}

Vector Evaluator::constraints(const DesignVec& d) {
  if (d.size() != num_design())
    throw std::invalid_argument("Evaluator::constraints: size mismatch");
  scalar_key_.clear();
  ProbeCache::append_bits(scalar_key_, d.raw());
  if (const Vector* hit = constraint_cache_.find(scalar_key_)) {
    ++counts_.cache_hits;
    return *hit;
  }
  Vector c = problem_.model->constraints(d);
  if (c.size() != problem_.model->num_constraints())
    throw std::runtime_error("Evaluator: model returned wrong constraint count");
  ++counts_.constraint;
  constraint_cache_.insert(scalar_key_, c);
  return c;
}

StatUnitVec Evaluator::margin_gradient_s(std::size_t spec, const DesignVec& d,
                                         const StatUnitVec& s_hat,
                                         const OperatingVec& theta) {
  const double base = margin(spec, d, s_hat, theta);
  StatUnitVec grad(num_statistical());
  StatUnitVec probe = s_hat;
  for (std::size_t i = 0; i < num_statistical(); ++i) {
    probe[i] = s_hat[i] + kSHatStep;
    grad[i] = (margin(spec, d, probe, theta) - base) / kSHatStep;
    probe[i] = s_hat[i];
  }
  return grad;
}

Matrixd Evaluator::margin_gradients_s(const DesignVec& d,
                                      const StatUnitVec& s_hat,
                                      const OperatingVec& theta) {
  validate_point(d, theta, s_hat.size());
  const std::size_t n_s = num_statistical();
  const std::size_t n_f = num_specs();
  // One block of n_s + 1 points: the base point plus the forward probes.
  // The batch path shares per-(d, theta) model setup across all of them.
  if (grad_points_.rows() != n_s + 1 || grad_points_.cols() != n_s)
    grad_points_ = Matrixd(n_s + 1, n_s);
  if (grad_margins_.rows() != n_s + 1 || grad_margins_.cols() != n_f)
    grad_margins_ = Matrixd(n_s + 1, n_f);
  for (std::size_t r = 0; r < n_s + 1; ++r) {
    double* row = grad_points_.row(r);
    for (std::size_t i = 0; i < n_s; ++i) row[i] = s_hat[i];
    if (r > 0) row[r - 1] = s_hat[r - 1] + kSHatStep;
  }
  margins_batch(d, linalg::StatUnitBlock(ConstMatrixView(grad_points_)), theta,
                linalg::MarginBlockView(MatrixView(grad_margins_)), grad_ws_);
  Matrixd grads(n_f, n_s);
  const double* base = grad_margins_.row(0);
  for (std::size_t i = 0; i < n_s; ++i) {
    const double* shifted = grad_margins_.row(i + 1);
    for (std::size_t k = 0; k < n_f; ++k)
      grads(k, i) = (shifted[k] - base[k]) / kSHatStep;
  }
  return grads;
}

DesignVec Evaluator::margin_gradient_d(std::size_t spec, const DesignVec& d,
                                       const StatUnitVec& s_hat,
                                       const OperatingVec& theta) {
  const double base = margin(spec, d, s_hat, theta);
  const auto& space = problem_.design;
  DesignVec grad(num_design());
  DesignVec probe = d;
  for (std::size_t i = 0; i < num_design(); ++i) {
    const double range = space.upper[i] - space.lower[i];
    double h = kDesignStepFraction *
               (range > 0.0 ? range : std::abs(d[i]) + 1.0);
    // Step inward if the nominal sits at the upper bound.
    if (d[i] + h > space.upper[i]) h = -h;
    probe[i] = d[i] + h;
    grad[i] = (margin(spec, probe, s_hat, theta) - base) / h;
    probe[i] = d[i];
  }
  return grad;
}

Matrixd Evaluator::constraint_jacobian(const DesignVec& d) {
  const Vector base = constraints(d);
  const auto& space = problem_.design;
  Matrixd jac(base.size(), num_design());
  DesignVec probe = d;
  for (std::size_t i = 0; i < num_design(); ++i) {
    const double range = space.upper[i] - space.lower[i];
    double h = kDesignStepFraction *
               (range > 0.0 ? range : std::abs(d[i]) + 1.0);
    if (d[i] + h > space.upper[i]) h = -h;
    probe[i] = d[i] + h;
    const Vector shifted = constraints(probe);  // hot-ok: cold FD path
    probe[i] = d[i];
    for (std::size_t k = 0; k < base.size(); ++k)
      jac(k, i) = (shifted[k] - base[k]) / h;
  }
  return jac;
}

}  // namespace mayo::core
