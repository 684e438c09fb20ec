// mayo/circuits -- two-stage Miller-compensated opamp (paper Fig. 8).
//
// NMOS input pair with PMOS mirror load, PMOS common-source second stage
// with NMOS current sink, RC (Miller + nulling resistor) compensation.
// Measured by the shared opamp testbench pair (circuits/opamp.hpp): the
// open-loop AC bench for A0, f_t, phase margin and power, the unity-gain
// transient bench for the slew rate.
//
// Performances (spec order): A0 [dB], f_t [MHz], PM [deg], SR+ [V/us],
// Power [mW].
//
// Following the paper's second experiment, only GLOBAL process variations
// are modeled (4 statistical parameters, constant covariance): the
// constant-C code path of the optimizer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuits/opamp.hpp"
#include "circuits/process.hpp"
#include "core/problem.hpp"

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

class Miller final : public OpampModel {
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
    double sr_dt = 4e-9;        ///< transient base step [s]
  };

  Miller();  ///< default options
  explicit Miller(Options options);

  std::unique_ptr<core::PerformanceModel> clone() const override;

  static std::vector<std::string> performance_names();
  static std::vector<std::string> statistical_names();
  static linalg::Vector initial_design();

  static core::YieldProblem make_problem();  ///< default options
  static core::YieldProblem make_problem(Options options);

  const Options& options() const { return options_; }

 private:
  struct Bench;  // the shared handles plus the bias device, Iref and Cc

  static std::unique_ptr<Bench> build_bench(const Options& options, bool unity);
  void apply(OpampModel::Bench& bench, const linalg::Vector& d,
             const linalg::Vector& s,
             const linalg::Vector& theta) const override;

  Options options_;
};

}  // namespace mayo::circuits
