// Shared analytic test fixture: a YieldProblem whose performances have
// closed-form worst-case points, distances and yields, so every core
// algorithm can be checked against hand-computed values.
//
// Performance model over d (2), s (3), theta (1):
//
//   f0 (linear, lower bound 0):
//       f0 = d0 + d1 + g0^T s - theta          with g0 = (-1, -2, 0)
//       margin m0 = f0; worst-case theta = theta_upper;
//       beta0 = m0(d, 0) / ||g0||, s_wc = g0 * (-m0) / ||g0||^2.
//
//   f1 (quadratic mismatch pair (s1, s2), lower bound 0):
//       f1 = a1 - q * (s1 - s2)^2      (a1 = d0 + 4, q = 1)
//       worst-case points: s1 = -s2 = +-u/2 with u = sqrt(a1/q),
//       beta1 = u / sqrt(2); mirrored behaviour by construction.
//
//   Constraints: c0 = d0 - d1 (>= 0), c1 = 6 - d0 - d1 (>= 0).
//
// SyntheticModel computes both performances in one analysis (the
// PerformanceModel default); SplitSyntheticModel computes the same values
// in two analyses, f0 in analysis 0 and f1 in analysis 1, and counts the
// runs of each, scalar and batch -- the fixture of the Evaluator's
// analysis-aware path.
// FaultySyntheticModel throws at every point beyond a chosen radius in s,
// the fixture of failures inside the worker fan-outs.
//
// Statistical parameters are standard normal (sigma 1, no correlation), so
// s_hat == s and the covariance transform is the identity; design bounds
// are [-5, 5]^2, theta in [-1, 1] with nominal 0.
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/problem.hpp"

namespace mayo::testing {

class SyntheticModel final : public core::PerformanceModel {
 public:
  std::size_t num_performances() const override { return 2; }
  std::size_t num_constraints() const override { return 2; }

  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override {
    ++evaluations;
    linalg::PerfVec f(2);
    f[0] = linear(d, s, theta);
    f[1] = quadratic(d, s);
    return f;
  }

  linalg::Vector constraints(const linalg::DesignVec& d) override {
    ++constraint_evaluations;
    return constraint_values(d);
  }

  static double linear(const linalg::DesignVec& d, const linalg::StatPhysVec& s,
                       const linalg::OperatingVec& theta) {
    return d[0] + d[1] - s[0] - 2.0 * s[1] - theta[0];
  }
  static double quadratic(const linalg::DesignVec& d,
                          const linalg::StatPhysVec& s) {
    const double u = s[1] - s[2];
    return d[0] + 4.0 - u * u;
  }
  static linalg::Vector constraint_values(const linalg::DesignVec& d) {
    linalg::Vector c(2);
    c[0] = d[0] - d[1];
    c[1] = 6.0 - d[0] - d[1];
    return c;
  }

  std::unique_ptr<core::PerformanceModel> clone() const override {
    return std::make_unique<SyntheticModel>();
  }

  int evaluations = 0;
  int constraint_evaluations = 0;
};

class SplitSyntheticModel final : public core::PerformanceModel {
 public:
  std::size_t num_performances() const override { return 2; }
  std::size_t num_constraints() const override { return 2; }
  std::size_t analysis_of(std::size_t performance) const override {
    return performance;
  }

  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override {
    return evaluate_analyses(d, s, theta, 0b11);
  }
  linalg::PerfVec evaluate_analyses(const linalg::DesignVec& d,
                                    const linalg::StatPhysVec& s,
                                    const linalg::OperatingVec& theta,
                                    core::AnalysisMask analyses) override {
    linalg::PerfVec f(2);
    if ((analyses & 0b01) != 0) {
      ++runs[0];
      f[0] = SyntheticModel::linear(d, s, theta);
    }
    if ((analyses & 0b10) != 0) {
      ++runs[1];
      f[1] = SyntheticModel::quadratic(d, s);
    }
    return f;
  }

  /// Row by row through evaluate_analyses(), so batch rows count in
  /// `runs` too.  Entries of analyses not requested read kUnrequested.
  void evaluate_batch_analyses(const linalg::DesignVec& d,
                               linalg::StatPhysBlock s_block,
                               const linalg::OperatingVec& theta,
                               core::AnalysisMask analyses,
                               linalg::PerfBlockView out) override {
    ++batch_calls;
    linalg::StatPhysVec s(s_block.cols());
    for (std::size_t j = 0; j < s_block.rows(); ++j) {
      for (std::size_t i = 0; i < s.size(); ++i) s[i] = s_block.row(j)[i];
      const linalg::PerfVec f = evaluate_analyses(d, s, theta, analyses);
      for (std::size_t i = 0; i < f.size(); ++i)
        out.row(j)[i] =
            (analyses & core::analysis_bit(i)) != 0 ? f[i] : kUnrequested;
    }
  }

  linalg::Vector constraints(const linalg::DesignVec& d) override {
    return SyntheticModel::constraint_values(d);
  }

  std::unique_ptr<core::PerformanceModel> clone() const override {
    return std::make_unique<SplitSyntheticModel>();
  }

  /// What a batch writes into the entries of analyses it did not run.
  static constexpr double kUnrequested = 1e9;

  std::array<int, 2> runs{};  ///< runs of analysis 0 and analysis 1
  int batch_calls = 0;        ///< evaluate_batch_analyses calls
};

/// SyntheticModel that throws std::runtime_error at every point with
/// |s| > fault_radius: the nominal point and the operating-corner sweep
/// stay clean, worst-case searches and samples fail.  Clonable, so the
/// failure happens on pool workers.
class FaultySyntheticModel final : public core::PerformanceModel {
 public:
  explicit FaultySyntheticModel(double fault_radius)
      : fault_radius_(fault_radius) {}

  std::size_t num_performances() const override { return 2; }
  std::size_t num_constraints() const override { return 2; }

  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override {
    if (s.norm() > fault_radius_)
      throw std::runtime_error("synthetic model failure");
    linalg::PerfVec f(2);
    f[0] = SyntheticModel::linear(d, s, theta);
    f[1] = SyntheticModel::quadratic(d, s);
    return f;
  }

  linalg::Vector constraints(const linalg::DesignVec& d) override {
    return SyntheticModel::constraint_values(d);
  }

  std::unique_ptr<core::PerformanceModel> clone() const override {
    return std::make_unique<FaultySyntheticModel>(fault_radius_);
  }

 private:
  double fault_radius_;
};

inline core::YieldProblem make_synthetic_problem(double d0 = 2.0,
                                                 double d1 = 1.0) {
  core::YieldProblem problem;
  problem.model = std::make_shared<SyntheticModel>();
  problem.specs = {
      {"lin", core::SpecKind::kLowerBound, 0.0, "u", 1.0},
      {"quad", core::SpecKind::kLowerBound, 0.0, "u", 1.0},
  };
  problem.design.names = {"d0", "d1"};
  problem.design.lower = linalg::Vector{-5.0, -5.0};
  problem.design.upper = linalg::Vector{5.0, 5.0};
  problem.design.nominal = linalg::Vector{d0, d1};
  problem.operating.names = {"theta"};
  problem.operating.lower = linalg::Vector{-1.0};
  problem.operating.upper = linalg::Vector{1.0};
  problem.operating.nominal = linalg::Vector{0.0};
  for (const char* name : {"s0", "s1", "s2"})
    problem.statistical.add(stats::StatParam::global(name, 0.0, 1.0));
  problem.validate();
  return problem;
}

/// The synthetic problem on the two-analysis model.
inline core::YieldProblem make_split_synthetic_problem(double d0 = 2.0,
                                                       double d1 = 1.0) {
  core::YieldProblem problem = make_synthetic_problem(d0, d1);
  problem.model = std::make_shared<SplitSyntheticModel>();
  return problem;
}

/// The synthetic problem on the faulty model.
inline core::YieldProblem make_faulty_synthetic_problem(double fault_radius) {
  core::YieldProblem problem = make_synthetic_problem();
  problem.model = std::make_shared<FaultySyntheticModel>(fault_radius);
  return problem;
}

/// Closed-form worst-case distance of the linear spec at (d, theta_wc = 1):
/// beta = (d0 + d1 - 1) / sqrt(5).
inline double linear_beta(double d0, double d1) {
  return (d0 + d1 - 1.0) / std::sqrt(5.0);
}

/// Closed-form worst-case distance of the quadratic spec:
/// beta = sqrt(d0 + 4) / sqrt(2).
inline double quad_beta(double d0) { return std::sqrt((d0 + 4.0) / 2.0); }

}  // namespace mayo::testing
