// mayo/core -- Monte-Carlo yield estimate on the linearized models
// (paper eq. 17-20).
//
// A fixed set of N standard-normal samples is evaluated once against the
// sample-dependent part of every linear model,
//
//     base[l][j] = m_wc_l + grad_s_l^T (s_j - s_wc_l),
//
// which never changes while the design moves.  A design change only shifts
// the per-model offset grad_d_l^T (d - d_f); a *coordinate* change shifts
// it by grad_d_l[k] * alpha -- the O(1)-per-model update of eq. (20).
//
// For the coordinate search (eq. 19) the 1-D problem
// argmax_alpha Y_bar(d + alpha e_k) is solved *exactly*: each sample's
// feasible alpha-interval is intersected over all models (one contiguous
// pass per model), and a sweep over the sorted interval endpoints finds the
// maximum coverage.  Ends clipped to the scan interval are only counted.
// The interior ends go to value buckets, and only the buckets where the
// coverage can reach its maximum are sorted and swept: O(N) per coordinate
// when the ends spread over the buckets, O(N log N) if they concentrate
// into one.  Of the plateaus reaching the maximum, the one nearest
// alpha = 0 wins (the first one on ties); the returned alpha is 0 if that
// plateau contains 0, else its zero-nearest edge moved 10% of the plateau
// width inwards -- the smallest move that does not sit on a sample's
// pass/fail boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/linearization.hpp"
#include "linalg/matrix.hpp"
#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"
#include "stats/sampler.hpp"

namespace mayo::core {

class LinearYieldModel {
 public:
  /// Precomputes the sample-constant parts.  `samples` must outlive the
  /// model.  All models must share the expansion point d_f.
  LinearYieldModel(std::vector<SpecLinearization> models,
                   const stats::SampleSet& samples);

  std::size_t num_models() const { return models_.size(); }
  std::size_t num_samples() const { return samples_.count(); }
  const std::vector<SpecLinearization>& models() const { return models_; }

  /// Sets the current design point (recomputes all offsets).
  void set_design(const linalg::DesignVec& d);
  const linalg::DesignVec& design() const { return d_; }

  /// Moves one coordinate by alpha and updates the offsets incrementally.
  void apply_coordinate(std::size_t k, double alpha);

  /// Number of samples passing ALL models at the current design.
  std::size_t passing() const;
  /// Yield estimate Y_bar at the current design.
  double yield() const { return static_cast<double>(passing()) / num_samples(); }

  /// Per-specification bad-sample counts at the current design: sample j is
  /// bad for spec i if it fails any model of spec i.  Indexed by spec.
  std::vector<std::size_t> bad_samples_per_spec(std::size_t num_specs) const;

  /// Result of the exact 1-D maximization over a coordinate move.
  struct AlphaScan {
    double alpha = 0.0;        ///< chosen move inside the optimal plateau
    std::size_t passing = 0;   ///< samples passing at that alpha
    double plateau_lo = 0.0;   ///< extent of the optimal plateau
    double plateau_hi = 0.0;
  };

  /// Exactly maximizes the pass count over alpha in [alpha_lo, alpha_hi]
  /// for the move d + alpha e_k.  Requires alpha_lo <= alpha_hi.  Not
  /// const: the scan works in the model's grow-only scratch buffers, so
  /// only the first scan allocates.
  AlphaScan best_alpha(std::size_t k, double alpha_lo, double alpha_hi);

  /// Current margin of model l for sample j (diagnostics/tests).
  double sample_margin(std::size_t model, std::size_t j) const {
    return base_(model, j) + offsets_[model];
  }

 private:
  std::vector<SpecLinearization> models_;
  const stats::SampleSet& samples_;
  linalg::Matrixd base_;     // models x samples
  linalg::Vector offsets_;   // per model: grad_d^T (d - d_f)
  linalg::DesignVec d_;

  // best_alpha scratch, sized on the first scan: each sample's interval
  // (lo, hi) and the interior ends grouped by value bucket (opens, closes),
  // N values each; the buckets' first indices and fill positions.
  std::vector<double> scan_ends_;
  std::vector<std::uint32_t> scan_buckets_;
};

}  // namespace mayo::core
