// mayo/circuits -- folded-cascode operational amplifier (paper Fig. 7).
//
// NMOS input pair folded into a PMOS cascode with an NMOS cascode current
// mirror as load; biased from a single reference current through mirror
// diodes; cascode gates from supply-referenced voltage sources.  Measured
// by the shared opamp testbench pair (circuits/opamp.hpp): the open-loop
// AC bench for A0, f_t, CMRR and power, the unity-gain transient bench
// for the slew rate.
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

#include <memory>
#include <string>
#include <vector>

#include "circuits/opamp.hpp"
#include "circuits/process.hpp"
#include "core/problem.hpp"

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

class FoldedCascode final : public OpampModel {
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
    /// Longest slew transient [s].  A run ends at its first point past 90%
    /// of the swing to the stepped DC point; it reaches sr_t_stop only
    /// when it never gets there or that DC solve fails.
    double sr_t_stop = 120e-9;
    double sr_dt = 0.5e-9;      ///< transient step [s]
  };

  FoldedCascode();  ///< default options
  explicit FoldedCascode(Options options);

  std::unique_ptr<core::PerformanceModel> clone() const override;

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
  struct Bench;  // the shared handles plus the bias diodes and Iref

  static std::unique_ptr<Bench> build_bench(const Options& options, bool unity);
  void apply(OpampModel::Bench& bench, const linalg::Vector& d,
             const linalg::Vector& s,
             const linalg::Vector& theta) const override;

  Options options_;
};

}  // namespace mayo::circuits
