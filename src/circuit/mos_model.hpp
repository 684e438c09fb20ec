// mayo/circuit -- level-1 (square-law) MOSFET model.
//
// A Shichman-Hodges style long-channel model with:
//   * smooth effective overdrive (keeps Newton iterations well-behaved
//     through the cutoff boundary),
//   * channel-length modulation applied in triode and saturation (C1
//     continuous at the triode/saturation boundary),
//   * body effect,
//   * first-order temperature dependence of mobility and threshold,
//   * statistical hooks: additive threshold shift and multiplicative gain
//     factor, fed from global process variation and Pelgrom local mismatch,
//   * geometry-derived small-signal capacitances.
//
// All quantities here are in the *polarity-normalized* frame: voltages and
// the drain current are those of an NMOS; the Mosfet device flips signs for
// PMOS.  Pure functions -- no device or netlist state -- so the model can
// be unit-tested against hand calculations directly.
#pragma once

namespace mayo::circuit {

/// Technology parameters of one MOS flavour (NMOS or PMOS).
/// Values are polarity-normalized: vth0 > 0 for both flavours.
struct MosProcess {
  double vth0 = 0.7;        ///< zero-bias threshold voltage [V]
  double kp = 100e-6;       ///< gain factor mu0*Cox [A/V^2]
  double lambda_l = 0.05e-6;///< channel-length modulation: lambda = lambda_l / L [1/V * m]
  double gamma = 0.45;      ///< body-effect coefficient [sqrt(V)]
  double phi = 0.7;         ///< surface potential 2*phi_F [V]
  double tox = 15e-9;       ///< gate oxide thickness [m]
  double cgso = 200e-12;    ///< gate-source overlap cap per width [F/m]
  double cgdo = 200e-12;    ///< gate-drain overlap cap per width [F/m]
  double cj = 0.4e-3;       ///< junction cap per area [F/m^2]
  double ldiff = 1.5e-6;    ///< source/drain diffusion length [m]
  double vth_tc = 2.0e-3;   ///< threshold temperature coefficient [V/K]
  double mu_exp = 1.5;      ///< mobility temperature exponent
  double tnom = 300.15;     ///< reference temperature [K]
};

/// Channel geometry.
struct MosGeometry {
  double w = 10e-6;  ///< channel width [m]
  double l = 1e-6;   ///< channel length [m]
};

/// Statistical perturbation applied to one device instance.
struct MosVariation {
  double dvth = 0.0;      ///< additive threshold shift [V] (global + local)
  double kp_scale = 1.0;  ///< multiplicative gain-factor scale (global + local)
};

/// Polarity-normalized terminal bias.
struct MosBias {
  double vgs = 0.0;
  double vds = 0.0;
  double vbs = 0.0;
};

/// Operating region of the channel.
enum class MosRegion { kCutoff, kTriode, kSaturation };

/// Model evaluation result: current, conductances and bias diagnostics.
struct MosEval {
  double id = 0.0;    ///< drain current into the drain terminal [A]
  double gm = 0.0;    ///< dId/dVgs [S]
  double gds = 0.0;   ///< dId/dVds [S]
  double gmb = 0.0;   ///< dId/dVbs [S]
  double vth = 0.0;   ///< effective threshold (incl. body effect, temp, dvth) [V]
  double vov = 0.0;   ///< raw overdrive vgs - vth [V]
  double vdsat = 0.0; ///< saturation voltage (smoothed overdrive) [V]
  MosRegion region = MosRegion::kCutoff;
  bool swapped = false;  ///< true if source/drain were exchanged (vds < 0)
};

/// Geometry-derived small-signal capacitances (saturation approximation).
struct MosCaps {
  double cgs = 0.0;  ///< gate-source [F]
  double cgd = 0.0;  ///< gate-drain (overlap) [F]
  double cdb = 0.0;  ///< drain-bulk junction [F]
  double csb = 0.0;  ///< source-bulk junction [F]
};

/// Evaluates the square-law model.  Handles vds < 0 by internal
/// source/drain exchange with consistent derivative mapping.
MosEval mos_eval(const MosProcess& process, const MosGeometry& geometry,
                 const MosVariation& variation, const MosBias& bias,
                 double temperature_k);

/// Same evaluation with the mobility factor precomputed as
/// `mos_mu_factor(process, temperature_k)`; bitwise identical to the
/// overload above.  Lets a device pay the pow() once per temperature
/// instead of once per Newton iteration.
MosEval mos_eval(const MosProcess& process, const MosGeometry& geometry,
                 const MosVariation& variation, const MosBias& bias,
                 double temperature_k, double mu_factor);

/// Mobility temperature factor (T/Tnom)^-mu_exp.
double mos_mu_factor(const MosProcess& process, double temperature_k);

/// Device capacitances from geometry.
MosCaps mos_caps(const MosProcess& process, const MosGeometry& geometry);

/// Effective (temperature- and variation-adjusted) gain factor beta =
/// kp * kp_scale * (T/Tnom)^-mu_exp * W / L.
double mos_beta(const MosProcess& process, const MosGeometry& geometry,
                const MosVariation& variation, double temperature_k);

/// Effective threshold voltage at the given body bias and temperature.
double mos_vth(const MosProcess& process, const MosVariation& variation,
               double vbs, double temperature_k);

/// Gate oxide capacitance per area eps_ox / tox [F/m^2].
double mos_cox(const MosProcess& process);

}  // namespace mayo::circuit
