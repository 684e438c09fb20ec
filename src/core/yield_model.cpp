#include "core/yield_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/check.hpp"
#include "linalg/kernels.hpp"

namespace mayo::core {

using linalg::DesignVec;

LinearYieldModel::LinearYieldModel(std::vector<SpecLinearization> models,
                                   const stats::SampleSet& samples)
    : models_(std::move(models)),
      samples_(samples),
      base_(models_.size(), samples.count()),
      offsets_(models_.size()) {
  if (models_.empty())
    throw std::invalid_argument("LinearYieldModel: no models");
  for (const auto& model : models_) {
    if (model.grad_s.size() != samples.dim())
      throw std::invalid_argument(
          "LinearYieldModel: statistical dimension mismatch");
    if (model.d_f != models_.front().d_f)
      throw std::invalid_argument(
          "LinearYieldModel: models must share the expansion point d_f");
    MAYO_CHECK_DIM(model.grad_d.size(), model.d_f.size(),
                   "LinearYieldModel: grad_d vs design dimension");
    MAYO_CHECK_FINITE(model.margin_wc, "LinearYieldModel: margin_wc");
    MAYO_CHECK_FINITE(model.grad_s, "LinearYieldModel: grad_s");
    MAYO_CHECK_FINITE(model.grad_d, "LinearYieldModel: grad_d");
  }
  // base[l][j] = m_wc + grad_s^T (s_j - s_wc).  One gemv over the sample
  // matrix per spec model instead of count() scalar dots; gemv_into
  // accumulates in ascending column order, so each entry is bitwise what
  // samples.dot(j, grad_s) produced.
  linalg::MatrixView base_view(base_);
  for (std::size_t l = 0; l < models_.size(); ++l) {
    const auto& model = models_[l];
    const double shift = model.margin_wc - linalg::dot(model.grad_s, model.s_wc);
    double* row = base_view.row(l);
    linalg::gemv_into(samples.matrix(), model.grad_s.data(), row);
    for (std::size_t j = 0; j < samples.count(); ++j) row[j] = shift + row[j];
  }
  set_design(models_.front().d_f);
}

void LinearYieldModel::set_design(const DesignVec& d) {
  MAYO_CHECK_DIM(d.size(), models_.front().d_f.size(),
                 "LinearYieldModel::set_design: design dimension");
  d_ = d;
  for (std::size_t l = 0; l < models_.size(); ++l)
    offsets_[l] = linalg::dot(models_[l].grad_d, d - models_[l].d_f);
}

void LinearYieldModel::apply_coordinate(std::size_t k, double alpha) {
  d_[k] += alpha;
  // eq. (20): only one component of the inner product changes.
  for (std::size_t l = 0; l < models_.size(); ++l)
    offsets_[l] += models_[l].grad_d[k] * alpha;
}

std::size_t LinearYieldModel::passing() const {
  std::size_t count = 0;
  const std::size_t n = num_samples();
  for (std::size_t j = 0; j < n; ++j) {
    bool pass = true;
    for (std::size_t l = 0; l < models_.size(); ++l) {
      if (base_(l, j) + offsets_[l] < 0.0) {
        pass = false;
        break;
      }
    }
    count += pass ? 1 : 0;
  }
  return count;
}

std::vector<std::size_t> LinearYieldModel::bad_samples_per_spec(
    std::size_t num_specs) const {
  std::vector<std::size_t> bad(num_specs, 0);
  const std::size_t n = num_samples();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t spec = 0; spec < num_specs; ++spec) {
      for (std::size_t l = 0; l < models_.size(); ++l) {
        if (models_[l].spec != spec) continue;
        if (base_(l, j) + offsets_[l] < 0.0) {
          ++bad[spec];
          break;
        }
      }
    }
  }
  return bad;
}

namespace {

// The interior interval ends are spread over kValueBuckets buckets by value,
// and a bucket is sorted only if the maximum coverage can lie in it.
constexpr std::size_t kValueBuckets = 2048;

}  // namespace

LinearYieldModel::AlphaScan LinearYieldModel::best_alpha(std::size_t k,
                                                         double alpha_lo,
                                                         double alpha_hi) {
  if (!(alpha_lo <= alpha_hi))
    throw std::invalid_argument("best_alpha: empty alpha interval");
  const std::size_t n = num_samples();
  if (scan_ends_.empty()) {  // first scan: N never changes
    scan_ends_.resize(4 * n);  // hot-ok: grow-only scratch
    scan_buckets_.resize(4 * kValueBuckets + 2);  // hot-ok: grow-only scratch
  }

  // Each sample's feasible alpha-interval [lo, hi], intersected one model
  // at a time over that model's contiguous row of margins.  A NaN boundary
  // leaves the interval as it is (std::max / std::min keep their first
  // argument); a sample a flat model fails is marked empty for good.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* lo = scan_ends_.data();
  double* hi = lo + n;
  std::fill(lo, lo + n, alpha_lo);
  std::fill(hi, hi + n, alpha_hi);
  for (std::size_t l = 0; l < models_.size(); ++l) {
    const double* base = base_.row(l);
    const double offset = offsets_[l];
    const double slope = models_[l].grad_d[k];
    if (std::abs(slope) < 1e-30) {
      for (std::size_t j = 0; j < n; ++j) {
        if (base[j] + offset < 0.0) {
          lo[j] = kInf;
          hi[j] = -kInf;
        }
      }
    } else if (slope > 0.0) {
      for (std::size_t j = 0; j < n; ++j)
        lo[j] = std::max(lo[j], -(base[j] + offset) / slope);
    } else {
      for (std::size_t j = 0; j < n; ++j)
        hi[j] = std::min(hi[j], -(base[j] + offset) / slope);
    }
  }

  // Interval ends: an open at alpha_lo or a close at alpha_hi is only
  // counted.  The interior ones go to value buckets; bucket_of is monotone
  // in the value, so bucket order is value order and equal values share a
  // bucket.  open_first[b] .. open_first[b + 1] will hold bucket b's opens.
  // A zero or infinite span gives bucket_scale 0 and at most two buckets:
  // slower, still exact.
  const double scale = kValueBuckets / (alpha_hi - alpha_lo);
  const double bucket_scale = scale < kInf ? scale : 0.0;
  const auto bucket_of = [&](double x) {
    const double t = (x - alpha_lo) * bucket_scale;
    return t < kValueBuckets - 1 ? static_cast<std::size_t>(t)
                                 : kValueBuckets - 1;
  };
  std::uint32_t* open_first = scan_buckets_.data();
  std::uint32_t* close_first = open_first + kValueBuckets + 1;
  std::uint32_t* open_fill = close_first + kValueBuckets + 1;
  std::uint32_t* close_fill = open_fill + kValueBuckets;
  std::fill(open_first, open_first + 2 * (kValueBuckets + 1), 0U);
  std::size_t opens_at_lo = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (lo[j] > hi[j]) continue;  // no feasible alpha for this sample
    if (lo[j] > alpha_lo)
      ++open_first[bucket_of(lo[j]) + 1];
    else
      ++opens_at_lo;
    if (hi[j] < alpha_hi) ++close_first[bucket_of(hi[j]) + 1];
  }
  // The coverage between two buckets is the coverage right after some end,
  // so the maximum coverage is at least the largest one at a boundary.
  std::size_t coverage_floor = opens_at_lo;
  for (std::size_t b = 0, coverage = opens_at_lo; b < kValueBuckets; ++b) {
    coverage = coverage + open_first[b + 1] - close_first[b + 1];
    coverage_floor = std::max(coverage_floor, coverage);
    open_first[b + 1] += open_first[b];
    close_first[b + 1] += close_first[b];
  }
  std::copy(open_first, open_first + kValueBuckets, open_fill);
  std::copy(close_first, close_first + kValueBuckets, close_fill);
  double* opens = hi + n;
  double* closes = opens + n;
  for (std::size_t j = 0; j < n; ++j) {
    if (lo[j] > hi[j]) continue;
    if (lo[j] > alpha_lo) opens[open_fill[bucket_of(lo[j])]++] = lo[j];
    if (hi[j] < alpha_hi) closes[close_fill[bucket_of(hi[j])]++] = hi[j];
  }

  // Sweep the ends grouped by value, opens before closes (intervals are
  // closed).  Coverage peaks right after a group's opens; that plateau
  // runs to the next end.  Among the plateaus reaching the maximum
  // coverage, keep the first one closest to alpha = 0 -- the linearization
  // is only trusted near the expansion point, so equal-yield moves should
  // be as small as possible.  Only the buckets whose coverage can reach
  // coverage_floor are sorted and swept; every maximal plateau lies in
  // them.
  std::size_t best_count = 0;
  double chosen_lo = 0.0;
  double chosen_hi = 0.0;
  double chosen_distance = kInf;
  const auto consider = [&](std::size_t count, double plateau_lo,
                            double plateau_hi) {
    if (count < best_count) return;
    double distance = 0.0;
    if (plateau_lo > 0.0)
      distance = plateau_lo;
    else if (plateau_hi < 0.0)
      distance = -plateau_hi;
    if (count > best_count || distance < chosen_distance) {
      best_count = count;
      chosen_distance = distance;
      chosen_lo = plateau_lo;
      chosen_hi = plateau_hi;
    }
  };
  // The smallest end in the first non-empty bucket from b on, else the
  // closes at alpha_hi.
  const auto first_end_from = [&](std::size_t b) {
    for (; b < kValueBuckets; ++b) {
      if (open_first[b] == open_first[b + 1] &&
          close_first[b] == close_first[b + 1])
        continue;
      double first = alpha_hi;
      for (std::size_t i = open_first[b]; i < open_first[b + 1]; ++i)
        first = std::min(first, opens[i]);
      for (std::size_t i = close_first[b]; i < close_first[b + 1]; ++i)
        first = std::min(first, closes[i]);
      return first;
    }
    return alpha_hi;
  };
  if (opens_at_lo > 0)
    consider(opens_at_lo, alpha_lo, first_end_from(0));
  for (std::size_t b = 0, coverage = opens_at_lo; b < kValueBuckets; ++b) {
    const std::size_t open_end = open_first[b + 1];
    const std::size_t close_end = close_first[b + 1];
    std::size_t next_open = open_first[b];
    std::size_t next_close = close_first[b];
    std::size_t current = coverage;
    coverage = coverage + (open_end - next_open) - (close_end - next_close);
    if (next_open == open_end ||
        current + (open_end - next_open) < coverage_floor)
      continue;
    std::sort(opens + next_open, opens + open_end);
    std::sort(closes + next_close, closes + close_end);
    while (next_open < open_end) {
      const double value = opens[next_open];
      for (; next_close < close_end && closes[next_close] < value;
           ++next_close)
        --current;
      for (; next_open < open_end && opens[next_open] == value; ++next_open)
        ++current;
      double next_end;
      if (next_open < open_end &&
          (next_close == close_end || opens[next_open] <= closes[next_close]))
        next_end = opens[next_open];
      else if (next_close < close_end)
        next_end = closes[next_close];
      else
        next_end = first_end_from(b + 1);
      consider(current, value, next_end);
    }
  }

  AlphaScan best;
  if (best_count == 0) return best;
  best.passing = best_count;
  best.plateau_lo = chosen_lo;
  best.plateau_hi = chosen_hi;
  // Enter the plateau from the zero-nearest edge with a 10% inset so the
  // chosen alpha does not sit exactly on a sample's pass/fail boundary.
  const double width = chosen_hi - chosen_lo;
  double alpha;
  if (chosen_lo <= 0.0 && chosen_hi >= 0.0)
    alpha = 0.0;
  else if (chosen_lo > 0.0)
    alpha = chosen_lo + 0.1 * width;
  else
    alpha = chosen_hi - 0.1 * width;
  best.alpha = std::clamp(alpha, alpha_lo, alpha_hi);
  return best;
}

}  // namespace mayo::core
