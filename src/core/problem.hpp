// mayo/core -- yield-problem definition (paper Sec. 2).
//
// A yield-optimization problem bundles:
//   * a performance model f(d, s, theta) -- in this library usually a
//     circuit testbench wrapping the simulator, but any black box works
//     (the tests use analytic models),
//   * specifications f_i >= f_b_i or f_i <= f_b_i,
//   * the design space (box bounds + initial sizing),
//   * the operating space Theta (paper eq. 1),
//   * the statistical parameter model s ~ N(s0, C(d)) including
//     design-dependent local variations (paper Sec. 4),
//   * functional constraints c(d) >= 0 defining the feasibility region F
//     (paper Sec. 5.1).
//
// Sign convention used throughout the optimizer: every specification is
// reduced to a *margin* m_i = +/-(f_i - f_b_i) that must be >= 0.  All
// linearizations, worst-case distances and yield estimates operate on
// margins, which makes lower and upper bounds uniform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"
#include "stats/covariance.hpp"

namespace mayo::core {

/// Direction of a specification bound.
enum class SpecKind {
  kLowerBound,  ///< f >= bound (e.g. phase margin >= 60 deg)
  kUpperBound,  ///< f <= bound (e.g. power <= 3.5 mW)
};

/// One performance specification f_i >= / <= f_b_i.
struct Specification {
  std::string name;   ///< performance name, e.g. "CMRR"
  SpecKind kind = SpecKind::kLowerBound;
  double bound = 0.0; ///< f_b_i in the unit of the performance
  std::string unit;   ///< for reports, e.g. "dB"
  /// Scale used to judge convergence of worst-case searches (typical
  /// magnitude of meaningful performance differences).
  double scale = 1.0;

  /// Margin m(f): positive iff the specification is satisfied.
  double margin(double value) const {
    return kind == SpecKind::kLowerBound ? value - bound : bound - value;
  }
};

/// Box-bounded parameter space with names.
struct ParameterSpace {
  std::vector<std::string> names;
  linalg::Vector lower;
  linalg::Vector upper;
  linalg::Vector nominal;  ///< initial design / nominal operating point

  std::size_t dimension() const { return names.size(); }
  /// Throws std::invalid_argument if sizes disagree or bounds are inverted.
  void validate() const;
  /// Clamps a point into the box.
  linalg::Vector clamp(linalg::Vector x) const;
  /// True if x lies inside the box (within tol * range per coordinate).
  bool contains(const linalg::Vector& x, double tol = 0.0) const;
  /// Tagged overloads: the space a box clamps stays the space it was
  /// (element-wise, so no untagging needed).
  template <class Space>
  linalg::Tagged<Space> clamp(linalg::Tagged<Space> x) const {
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = x[i] < lower[i] ? lower[i] : (x[i] > upper[i] ? upper[i] : x[i]);
    return x;
  }
  template <class Space>
  bool contains(const linalg::Tagged<Space>& x, double tol = 0.0) const {
    if (x.size() != dimension()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double slack = tol * (upper[i] - lower[i]);
      if (x[i] < lower[i] - slack || x[i] > upper[i] + slack) return false;
    }
    return true;
  }
  /// Index of a named parameter; throws std::out_of_range if absent.
  std::size_t index_of(const std::string& name) const;
};

/// Set of a model's analyses (testbenches), one bit per analysis index.
using AnalysisMask = std::uint32_t;
/// Analyses a model may declare (the width of AnalysisMask).
inline constexpr std::size_t kMaxAnalyses = 32;
/// Mask holding the single analysis `analysis` (< kMaxAnalyses).
constexpr AnalysisMask analysis_bit(std::size_t analysis) {
  return AnalysisMask{1} << analysis;
}

/// Black-box performance model: all performances from one evaluation.
///
/// `evaluate` receives *physical* statistical parameters s (the core layer
/// performs the s = G(d) s_hat + s0 transform) and returns the vector of
/// performance values in specification order.  One call is counted as one
/// "simulation" (performances sharing an analysis come for free, as in the
/// paper's N* discussion).
///
/// A model whose performances come from several independent analyses
/// (e.g. an AC testbench and a transient testbench) may say so through
/// analysis_of() and evaluate_analyses(); the Evaluator then runs only the
/// analyses a request reads.  The defaults describe one analysis that
/// yields everything, so a model overriding neither behaves as before.
class PerformanceModel {
 public:
  virtual ~PerformanceModel() = default;

  /// Number of performances returned by evaluate().
  virtual std::size_t num_performances() const = 0;

  /// Analysis (testbench) that measures performance `performance`; must
  /// be < kMaxAnalyses.  The default puts every performance in analysis 0.
  virtual std::size_t analysis_of(std::size_t performance) const {
    (void)performance;
    return 0;
  }
  /// Number of functional constraints returned by constraints().
  virtual std::size_t num_constraints() const = 0;
  /// Names of the functional constraints (for reports).
  virtual std::vector<std::string> constraint_names() const;

  /// Evaluates all performances at design d, physical statistical
  /// parameters s and operating point theta.  The tagged signature is the
  /// StatPhysical -> Performance crossing of the space layer: a model can
  /// only be fed physical parameters, so handing it raw sampler output
  /// (s_hat, unit-normal) without Covariance::to_physical refuses to
  /// compile.
  virtual linalg::PerfVec evaluate(const linalg::DesignVec& d,
                                   const linalg::StatPhysVec& s,
                                   const linalg::OperatingVec& theta) = 0;

  /// Evaluates only the analyses in `analyses` (a non-empty subset of the
  /// model's analyses).  Contract: every entry of a performance whose
  /// analysis is requested is bitwise-identical to the same entry of
  /// evaluate(d, s, theta); the other entries are unspecified and never
  /// read.  Skipping an analysis is a cost saving, never a semantic change,
  /// with one consequence: an exception raised inside an analysis reaches
  /// only the requests that include it (where evaluate() throws from an
  /// opamp's AC probe, a power-only request returns).  The default runs the
  /// full evaluate().
  virtual linalg::PerfVec evaluate_analyses(const linalg::DesignVec& d,
                                            const linalg::StatPhysVec& s,
                                            const linalg::OperatingVec& theta,
                                            AnalysisMask analyses) {
    (void)analyses;
    return evaluate(d, s, theta);
  }

  /// Batched evaluation: row j of `s_block` is a physical statistical
  /// vector; performance row j is written into `out` (s_block.rows() x
  /// num_performances()).  One row is counted as one "simulation", exactly
  /// like one evaluate() call.
  ///
  /// Contract: row j of the result is bitwise-identical to
  /// evaluate(d, s_block.row(j), theta) -- batching is a throughput
  /// optimization (hoisting d/theta-dependent setup out of the per-sample
  /// loop), never a semantic change.  The default implementation is the
  /// scalar loop, so existing models keep working unmodified.
  virtual void evaluate_batch(const linalg::DesignVec& d,
                              linalg::StatPhysBlock s_block,
                              const linalg::OperatingVec& theta,
                              linalg::PerfBlockView out);

  /// Batch form of evaluate_analyses(): runs only the analyses in
  /// `analyses` for every row.  Requested entries of row j are
  /// bitwise-identical to evaluate(d, s_block.row(j), theta); the other
  /// entries are unspecified and never read.  The default runs the full
  /// evaluate_batch().
  virtual void evaluate_batch_analyses(const linalg::DesignVec& d,
                                       linalg::StatPhysBlock s_block,
                                       const linalg::OperatingVec& theta,
                                       AnalysisMask analyses,
                                       linalg::PerfBlockView out) {
    (void)analyses;
    evaluate_batch(d, s_block, theta, out);
  }

  /// Evaluates the functional constraints c(d) >= 0 at nominal statistics
  /// and nominal operating conditions (technology sizing rules, Sec. 5.1).
  /// Constraint values are their own (untagged) quantity.
  virtual linalg::Vector constraints(const linalg::DesignVec& d) = 0;

  /// Deep copy for thread isolation (models are stateful: netlists, warm
  /// starts).  Returning nullptr (the default) opts out of parallel
  /// execution; such models are evaluated serially.
  virtual std::unique_ptr<PerformanceModel> clone() const { return nullptr; }
};

/// The complete problem instance handed to the optimizer.
struct YieldProblem {
  std::shared_ptr<PerformanceModel> model;
  std::vector<Specification> specs;
  ParameterSpace design;
  ParameterSpace operating;
  stats::CovarianceModel statistical;

  std::size_t num_specs() const { return specs.size(); }
  /// Throws std::invalid_argument if the pieces are inconsistent.
  void validate() const;
};

}  // namespace mayo::core
