// mayo/circuits -- folded-cascode operational amplifier (paper Fig. 7).
//
// NMOS input pair folded into a PMOS cascode with an NMOS cascode current
// mirror as load; biased from a single reference current through mirror
// diodes; cascode gates from supply-referenced voltage sources.  Two
// testbench netlists share the sizing:
//   * an open-loop AC bench with a DC-only feedback path (1 GOhm / 1 F:
//     closes the loop at DC so the operating point is biased, transparent
//     to every AC frequency of interest) measuring A0, f_t, CMRR, power;
//   * a unity-gain transient bench measuring the positive slew rate.
// The two benches are the model's two analyses (analysis_of): a request
// for A0, ft, CMRR or power never runs the transient, a request for the
// slew rate never runs the AC bench.
//
// Performances (in spec order): A0 [dB], f_t [MHz], CMRR [dB],
// SR+ [V/us], Power [mW].
//
// Statistical parameters (physical units):
//   [0] global NMOS Vth shift [V]      [1] global PMOS Vth shift [V]
//   [2] global NMOS gain-factor scale  [3] global PMOS gain-factor scale
//   [4..13] local Vth shifts of M1..M10 [V], Pelgrom sigma ~ 1/sqrt(2 W L)
//
// Design parameters: widths of the six matched groups plus the reference
// current.  Functional constraints: saturation margin >= margin_min for
// the eleven signal-path transistors.
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
struct FoldedCascodeDesign {
  enum Index : std::size_t {
    kWIn = 0,   ///< input pair M1/M2 width
    kWTail,     ///< tail source M0 width
    kWSrc,      ///< PMOS current sources M3/M4 width
    kWPcas,     ///< PMOS cascodes M5/M6 width
    kWNcas,     ///< NMOS cascodes M7/M8 width
    kWMir,      ///< NMOS mirror M9/M10 width
    kIref,      ///< reference current [A]
    kCount
  };
};

/// Indices into the statistical vector.
struct FoldedCascodeStats {
  enum Index : std::size_t {
    kDvthnGlobal = 0,
    kDvthpGlobal,
    kDkpnGlobal,
    kDkppGlobal,
    kLocalFirst,               ///< local dVth of M1; M2..M10 follow
    kCount = kLocalFirst + 10
  };
};

class FoldedCascode final : public core::PerformanceModel {
 public:
  struct Options {
    Process process = default_process();
    double length = 1e-6;       ///< channel length of all signal devices [m]
    double bias_width = 20e-6;  ///< width of the bias diodes [m]
    double load_cap = 1.6e-12;  ///< output load [F]
    double vcasc_p = 1.8;       ///< PMOS cascode bias below VDD [V]
    double vcasc_n = 1.5;       ///< NMOS cascode bias above ground [V]
    double sat_margin = 0.05;   ///< required saturation margin [V]
    double sr_step = 0.5;       ///< input step of the slew bench [V]
    double sr_t_stop = 120e-9;  ///< transient duration [s]
    double sr_dt = 0.5e-9;      ///< transient step [s]
    /// Linear-solver backend selection for every bench solve (kAuto keeps
    /// this opamp-scale netlist on the dense fast path; tests force
    /// kSparse to pin dense/sparse equivalence).
    linalg::SolverOptions solver;
  };

  FoldedCascode();  ///< default options
  explicit FoldedCascode(Options options);
  ~FoldedCascode() override;

  /// The model's analyses: the open-loop AC bench (A0, ft, CMRR, power)
  /// and the unity-gain transient bench (SR+).
  enum Analysis : std::size_t { kAcAnalysis = 0, kSlewAnalysis = 1 };
  static constexpr core::AnalysisMask kAllAnalyses =
      core::analysis_bit(kAcAnalysis) | core::analysis_bit(kSlewAnalysis);

  // -- PerformanceModel ----------------------------------------------------
  std::size_t num_performances() const override { return 5; }
  std::size_t analysis_of(std::size_t performance) const override;
  std::size_t num_constraints() const override { return 11; }
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
  /// Native batch path: the per-(d, theta) nominal solves (bias point, ft
  /// bracket, slew trajectory) are built once and every sample row reuses
  /// them as warm starts.  Row results are bitwise-identical to evaluate()
  /// because both run the same per-sample code against the same context.
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override;
  linalg::Vector constraints(const linalg::DesignVec& d) override;

  /// Detailed measurement access for sweeps and figures.  Deliberately
  /// untyped (raw vectors): callers sweep arbitrary ad-hoc points.
  struct Measurements {
    double a0_db = 0.0;
    double ft_mhz = 0.0;
    double cmrr_db = 0.0;
    double sr_v_per_us = 0.0;
    double power_mw = 0.0;
    bool ac_valid = false;  ///< AC bench converged (A0, ft, CMRR, power)
    bool sr_valid = false;  ///< transient bench converged (SR+)
  };
  Measurements measure(const linalg::Vector& d, const linalg::Vector& s,
                       const linalg::Vector& theta);

  /// Saturation margins (vds - vdsat - margin_min) of the 11 transistors at
  /// nominal statistics and operating conditions.
  linalg::Vector saturation_margins(const linalg::Vector& d);

  /// Performance names in spec order.
  static std::vector<std::string> performance_names();
  /// Names of the statistical parameters.
  static std::vector<std::string> statistical_names();
  /// Human-readable name of the matched pair of two local-parameter
  /// indices, e.g. "M1/M2 (input pair)"; empty if not a matched pair.
  static std::string pair_label(std::size_t stat_k, std::size_t stat_l);

  /// Builds the complete yield problem: this model, the paper-style spec
  /// set calibrated to the initial sizing, design/operating spaces and the
  /// covariance model with design-dependent Pelgrom locals.
  static core::YieldProblem make_problem();  ///< default options
  static core::YieldProblem make_problem(Options options);

  const Options& options() const { return options_; }
  /// The initial (paper-signature) sizing.
  static linalg::Vector initial_design();

 private:
  struct Bench;          // one netlist + device handles
  struct DesignContext;  // per-(d, theta) nominal solves shared by samples

  static std::unique_ptr<Bench> build_bench(const Options& options, bool unity);
  void apply(Bench& bench, const linalg::Vector& d, const linalg::Vector& s,
             const linalg::Vector& theta) const;
  /// Context for (d, theta), created empty on first use (FIFO-bounded
  /// cache).  Sections are filled lazily by the ensure_* helpers; all
  /// content is a pure function of (d, theta), so eviction can never
  /// change a result, only its cost.
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
  /// Per-sample measurement halves: the AC bench and the slew bench, each
  /// reading only its own context section.
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
  std::unique_ptr<Bench> ac_bench_;   ///< open-loop AC testbench
  std::unique_ptr<Bench> sr_bench_;   ///< unity-gain transient testbench
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
