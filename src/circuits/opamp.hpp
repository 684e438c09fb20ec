// mayo/circuits -- the testbench pair shared by the paper's two opamps,
// the folded cascode (Fig. 7) and the Miller opamp (Fig. 8).
//
// Both are measured by two testbench netlists over one sizing:
//   * an open-loop AC bench with a DC-only feedback path (1 GOhm / 1 F:
//     closes the loop at DC so the operating point is biased, transparent
//     to every AC frequency of interest) measuring A0, f_t, phase margin,
//     CMRR and power;
//   * a unity-gain transient bench measuring the positive slew rate.
// The two benches are the model's two analyses (analysis_of): a request
// for an AC performance never runs the transient, a request for the slew
// rate never runs the AC bench.
//
// OpampModel owns everything between a model's apply() and the
// PerformanceModel interface: the per-(d, theta) cache of nominal warm
// starts, the two measurement halves, the failure penalties, the
// evaluation entry points and the saturation-margin constraints.  A
// concrete opamp supplies its two netlists, apply(), and data fixed at
// construction (Setup): which performances it reports in spec order, the
// f_t search ceiling and the statistical dimension.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/probe_cache.hpp"
#include "core/problem.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/solver.hpp"
#include "sim/transient.hpp"

namespace mayo::circuits {

class OpampModel : public core::PerformanceModel {
 public:
  /// Performances an opamp testbench measures.
  enum class Performance { kA0, kFt, kCmrr, kPhaseMargin, kSlewRate, kPower };

  /// The model's analyses: the open-loop AC bench (every performance but
  /// the slew rate) and the unity-gain transient bench (SR+).
  enum Analysis : std::size_t { kAcAnalysis = 0, kSlewAnalysis = 1 };
  static constexpr core::AnalysisMask kAllAnalyses =
      core::analysis_bit(kAcAnalysis) | core::analysis_bit(kSlewAnalysis);

  ~OpampModel() override;

  // -- PerformanceModel ----------------------------------------------------
  std::size_t num_performances() const override {
    return setup_.performances.size();
  }
  std::size_t analysis_of(std::size_t performance) const override;
  std::size_t num_constraints() const override {
    return ac_bench_->signal.size();
  }
  /// "sat(<name>)" of each signal transistor, in constraint order.
  std::vector<std::string> constraint_names() const override;
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
  /// evaluate_batch_analyses() with both benches.
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override;
  /// Native batch path: the per-(d, theta) nominal solves the requested
  /// benches seed from (bias point, ft bracket, slew trajectory) are built
  /// once and every sample row reuses them as warm starts.  Row results
  /// are bitwise-identical to evaluate_analyses() because both run the
  /// same per-sample code against the same context.
  void evaluate_batch_analyses(const linalg::DesignVec& d,
                               linalg::StatPhysBlock s_block,
                               const linalg::OperatingVec& theta,
                               core::AnalysisMask analyses,
                               linalg::PerfBlockView out) override;
  /// saturation_margins() of the design.
  linalg::Vector constraints(const linalg::DesignVec& d) override;

  /// Detailed measurement access for sweeps and figures.  Deliberately
  /// untyped (raw vectors): callers sweep arbitrary ad-hoc points.
  struct Measurements {
    double a0_db = 0.0;
    double ft_mhz = 0.0;
    double cmrr_db = 0.0;  ///< only measured if the model reports CMRR
    double pm_deg = 0.0;
    double sr_v_per_us = 0.0;
    double power_mw = 0.0;
    bool ac_valid = false;  ///< AC bench converged (A0, ft, CMRR, PM, power)
    bool sr_valid = false;  ///< transient bench converged (SR+)
  };
  Measurements measure(const linalg::Vector& d, const linalg::Vector& s,
                       const linalg::Vector& theta);

  /// Saturation margins (vds - vdsat - sat_margin) of the signal
  /// transistors at nominal statistics and operating conditions.
  linalg::Vector saturation_margins(const linalg::Vector& d);

 protected:
  /// Device handles the shared measurements drive.  A model's bench
  /// extends this with the handles its apply() binds.
  struct Bench {
    Bench() = default;
    Bench(const Bench&) = delete;  // the handles point into `netlist`
    Bench& operator=(const Bench&) = delete;
    virtual ~Bench() = default;
    circuit::Netlist netlist;
    /// Newton linear-system workspace of this bench's DC and transient
    /// solves (one per bench: the benches differ in size, and sharing one
    /// would reallocate the LU workspace on every alternation).  It
    /// carries cost between calls, never results; clone() gives each
    /// parallel worker fresh ones.
    sim::LinearSystem newton;
    std::vector<circuit::Mosfet*> signal;  ///< constraint order
    circuit::VoltageSource* vdd = nullptr;
    circuit::VoltageSource* vinp = nullptr;
    circuit::VoltageSource* vinn = nullptr;  ///< null in the unity-gain bench
    circuit::NodeId out = circuit::kGround;
  };

  /// A concrete opamp's data plus the Options fields both benches read.
  struct Setup {
    std::vector<Performance> performances;  ///< spec order
    double ft_high = 0.0;                   ///< f_t search ceiling [Hz]
    std::size_t num_statistical = 0;        ///< statistical vector length
    double sat_margin = 0.0;                ///< required saturation margin [V]
    double sr_step = 0.0;                   ///< slew-bench input step [V]
    double sr_t_stop = 0.0;                 ///< transient duration [s]
    double sr_dt = 0.0;                     ///< transient base step [s]
    linalg::Vector theta_nominal;           ///< operating point of constraints
  };

  OpampModel(Setup setup, std::unique_ptr<Bench> ac_bench,
             std::unique_ptr<Bench> sr_bench);

  /// Binds sizing, statistics and operating conditions into one of the
  /// model's own benches, with the non-inverting input at mid-supply;
  /// throws std::invalid_argument on a vector of the wrong size.
  virtual void apply(Bench& bench, const linalg::Vector& d,
                     const linalg::Vector& s,
                     const linalg::Vector& theta) const = 0;

 private:
  struct DesignContext;  // per-(d, theta) nominal solves shared by samples

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
  /// Writes the performances in spec order into out[0..n).
  void pack_performances(const Measurements& m, double* out) const;

  /// DC operating point of a bench as apply() left it.
  sim::DcResult solve_op(Bench& bench, const circuit::Conditions& conditions,
                         const linalg::Vector* warm_start);
  /// A0, ft and phase margin of the AC bench under differential drive.
  sim::GainBandwidth gain_bandwidth(const linalg::Vector& op,
                                    const circuit::Conditions& conditions,
                                    const sim::FtBracket* bracket);
  /// Step response of the slew bench from its operating point `op`,
  /// Newton-seeded from `seed` where the two grids share a step.
  sim::TranResult step_response(const linalg::Vector& op,
                                const linalg::Vector& theta,
                                const sim::TranResult* seed);

  const Setup setup_;
  const bool measures_cmrr_;         ///< CMRR is among the performances
  const linalg::Vector s_nominal_;   ///< nominal statistics (all zero)
  std::unique_ptr<Bench> ac_bench_;  ///< open-loop AC testbench
  std::unique_ptr<Bench> sr_bench_;  ///< unity-gain transient testbench
  core::BasicProbeCache<std::unique_ptr<DesignContext>> contexts_;
  std::vector<std::uint64_t> context_key_;  ///< key-building scratch
  linalg::Vector batch_s_;                  ///< row scratch for batches
  /// Reusable small-signal workspace.  Every use fully re-stamps it, so it
  /// carries cost (buffers, factors) but never results between calls.
  sim::AcSession ac_session_;
};

}  // namespace mayo::circuits
