// mayo/circuits -- two-stage Miller-compensated opamp (paper Fig. 8).
//
// NMOS input pair with PMOS mirror load, PMOS common-source second stage
// with NMOS current sink, RC (Miller + nulling resistor) compensation.
// Same testbench pattern as the folded cascode: an open-loop AC bench
// (DC-feedback biased) for A0, f_t, phase margin and power, and a
// unity-gain transient bench for the slew rate.  The two benches are the
// model's two analyses (analysis_of), run only when a request reads them.
//
// Performances (spec order): A0 [dB], f_t [MHz], PM [deg], SR+ [V/us],
// Power [mW].
//
// Following the paper's second experiment, only GLOBAL process variations
// are modeled (4 statistical parameters, constant covariance): the
// constant-C code path of the optimizer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/process.hpp"
#include "core/problem.hpp"
#include "linalg/system_matrix.hpp"
#include "sim/ac.hpp"
#include "sim/solver.hpp"

namespace mayo::circuits {

/// Indices into the design vector.
struct MillerDesign {
  enum Index : std::size_t {
    kWIn = 0,   ///< input pair M1/M2 width
    kWLoad,     ///< PMOS mirror load M3/M4 width
    kWTail,     ///< tail source M5 width
    kWP2,       ///< second-stage PMOS M6 width
    kWN2,       ///< second-stage sink M7 width
    kIref,      ///< reference current [A]
    kCc,        ///< compensation capacitor [F]
    kCount
  };
};

/// Indices into the statistical vector (globals only).
struct MillerStats {
  enum Index : std::size_t {
    kDvthnGlobal = 0,
    kDvthpGlobal,
    kDkpnGlobal,
    kDkppGlobal,
    kCount
  };
};

class Miller final : public core::PerformanceModel {
 public:
  struct Options {
    Process process = default_process();
    double length = 2e-6;       ///< channel length of all devices [m]
    double bias_width = 20e-6;  ///< width of the bias diode [m]
    double load_cap = 20e-12;   ///< output load [F]
    double rz = 800.0;          ///< compensation nulling resistor [Ohm]
    double sat_margin = 0.05;   ///< required saturation margin [V]
    double sr_step = 0.5;       ///< input step of the slew bench [V]
    double sr_t_stop = 1.2e-6;  ///< transient duration [s]
    double sr_dt = 4e-9;        ///< transient step [s]
    /// Linear-solver backend selection for every bench solve (kAuto keeps
    /// this opamp-scale netlist on the dense fast path; tests force
    /// kSparse to pin dense/sparse equivalence).
    linalg::SolverOptions solver;
  };

  Miller();  ///< default options
  explicit Miller(Options options);
  ~Miller() override;

  /// The model's analyses: the open-loop AC bench (A0, ft, PM, power) and
  /// the unity-gain transient bench (SR+).
  enum Analysis : std::size_t { kAcAnalysis = 0, kSlewAnalysis = 1 };
  static constexpr core::AnalysisMask kAllAnalyses =
      core::analysis_bit(kAcAnalysis) | core::analysis_bit(kSlewAnalysis);

  std::size_t num_performances() const override { return 5; }
  std::size_t analysis_of(std::size_t performance) const override;
  std::size_t num_constraints() const override { return 7; }
  std::vector<std::string> constraint_names() const override;
  std::unique_ptr<core::PerformanceModel> clone() const override;
  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override;
  /// Runs only the requested benches; each bench's entries are bitwise
  /// those of evaluate(), and a bench that fails to converge penalizes
  /// only its own performances.
  linalg::PerfVec evaluate_analyses(const linalg::DesignVec& d,
                                    const linalg::StatPhysVec& s,
                                    const linalg::OperatingVec& theta,
                                    core::AnalysisMask analyses) override;
  /// Native batch path: per-(d, theta) nominal solves (bias point, ft
  /// bracket, slew trajectory) are built once; each sample row reuses them
  /// as warm starts and is bitwise-identical to the scalar evaluate().
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override;
  linalg::Vector constraints(const linalg::DesignVec& d) override;

  /// Detailed measurement access for sweeps and figures.  Deliberately
  /// untyped (raw vectors): callers sweep arbitrary ad-hoc points.
  struct Measurements {
    double a0_db = 0.0;
    double ft_mhz = 0.0;
    double pm_deg = 0.0;
    double sr_v_per_us = 0.0;
    double power_mw = 0.0;
    bool ac_valid = false;  ///< AC bench converged (A0, ft, PM, power)
    bool sr_valid = false;  ///< transient bench converged (SR+)
  };
  Measurements measure(const linalg::Vector& d, const linalg::Vector& s,
                       const linalg::Vector& theta);

  static std::vector<std::string> performance_names();
  static std::vector<std::string> statistical_names();
  static linalg::Vector initial_design();

  static core::YieldProblem make_problem();  ///< default options
  static core::YieldProblem make_problem(Options options);

  const Options& options() const { return options_; }

 private:
  struct Bench;
  struct DesignContext;  // per-(d, theta) nominal solves shared by samples

  static std::unique_ptr<Bench> build_bench(const Options& options, bool unity);
  void apply(Bench& bench, const linalg::Vector& d, const linalg::Vector& s,
             const linalg::Vector& theta) const;
  /// Context for (d, theta): created empty on first use, sections filled
  /// lazily, FIFO-bounded.  Contents are a pure function of (d, theta).
  DesignContext& design_context(const linalg::Vector& d,
                                const linalg::Vector& theta);
  void ensure_ac_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  void ensure_ft_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  void ensure_sr_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  /// Context for (d, theta) with the sections the requested analyses
  /// seed from.
  DesignContext& prepared_context(const linalg::Vector& d,
                                  const linalg::Vector& theta,
                                  core::AnalysisMask analyses);
  /// Per-sample measurement halves, each reading only its own context
  /// section.
  void measure_ac(DesignContext& ctx, const linalg::Vector& d,
                  const linalg::Vector& s, const linalg::Vector& theta,
                  Measurements& out);
  void measure_sr(DesignContext& ctx, const linalg::Vector& d,
                  const linalg::Vector& s, const linalg::Vector& theta,
                  Measurements& out);
  /// Runs the requested halves into `out`.
  void measure_with_context(DesignContext& ctx, const linalg::Vector& d,
                            const linalg::Vector& s,
                            const linalg::Vector& theta,
                            core::AnalysisMask analyses, Measurements& out);

  Options options_;
  std::unique_ptr<Bench> ac_bench_;
  std::unique_ptr<Bench> sr_bench_;
  std::vector<std::unique_ptr<DesignContext>> contexts_;  ///< FIFO cache
  std::vector<std::uint64_t> context_key_;  ///< key-building scratch
  linalg::Vector batch_s_;                  ///< row scratch for batches
  /// Reusable small-signal workspace.  Every use fully re-stamps it, so it
  /// carries cost (buffers, factors) but never results between calls.
  sim::AcSession ac_session_;
  /// Newton linear-system workspaces, one per bench (the benches differ
  /// in size; sharing one would thrash the sparse pattern and symbolic
  /// analysis on every alternation).  Like the session, they carry only
  /// cost between calls; clone() gives each parallel worker fresh ones.
  sim::LinearSystem newton_ac_;
  sim::LinearSystem newton_sr_;
};

}  // namespace mayo::circuits
