// mayo/sim -- performance measurements on top of DC/AC/transient runs.
//
// The opamp performances of the paper's experiments: DC gain A0, unity-gain
// (transit) frequency f_t, phase margin Phi_m, CMRR, power, and saturation
// margins for the functional constraints of Sec. 5.1.
#pragma once

#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/ac.hpp"

namespace mayo::sim {

/// Open-loop AC characteristics extracted from a frequency sweep.
struct GainBandwidth {
  double a0_db = 0.0;            ///< low-frequency gain [dB]
  double ft_hz = 0.0;            ///< unity-gain frequency [Hz] (0 if not found)
  /// 180 + phase(H(ft)) wrapped into (-180, 180] [deg], negative for a
  /// loop whose phase at the crossing is past -180 (only if ft found).
  double phase_margin_deg = 0.0;
  bool ft_found = false;
};

/// Magnitude in dB of a complex transfer value.
double to_db(std::complex<double> h);
/// Phase in degrees in (-180, 180].
double phase_deg(std::complex<double> h);

/// Seed bracket for the unity-gain crossing.  When a caller already knows
/// an interval containing |H| = 1 (e.g. from a nominal-design sweep while
/// evaluating mismatch samples of the same design), passing it skips the
/// log-grid scan: the bracket is verified with two AC solves and handed
/// straight to the bisection.  An invalid or non-bracketing seed falls
/// back to the full scan, so the measurement never fails because of a
/// stale seed.
struct FtBracket {
  double f_lo = 0.0;  ///< |H(f_lo)| must be > 1
  double f_hi = 0.0;  ///< |H(f_hi)| must be <= 1
};

/// Measures A0, ft and phase margin of the transfer function seen at
/// `out` with the AC excitation stamped into `session`.  The unity-gain
/// crossing is bracketed on a log grid between f_low and f_high (or
/// seeded from `bracket`, see FtBracket) and refined to ~0.05% with a
/// bracketed Ridders iteration on (log f, log |H|), which converges in a
/// handful of complex solves where the former fixed bisection needed a
/// dozen.  The final refinement solve doubles as the phase-margin probe,
/// so no extra solve is spent on the phase.  A caller that has already
/// solved the phasor at `out` at f_low under this excitation passes it as
/// `h_low`, which saves that solve and changes no result bit.
GainBandwidth measure_gain_bandwidth(
    AcSession& session, circuit::NodeId out, double f_low = 1.0,
    double f_high = 10e9, const FtBracket* bracket = nullptr,
    std::optional<std::complex<double>> h_low = std::nullopt);

/// Convenience overload that stamps a fresh session from the netlist at
/// the given operating point and measures on it.
GainBandwidth measure_gain_bandwidth(const circuit::Netlist& netlist,
                                     const linalg::Vector& operating_point,
                                     const circuit::Conditions& conditions,
                                     circuit::NodeId out, double f_low = 1.0,
                                     double f_high = 10e9,
                                     const FtBracket* bracket = nullptr);

/// DC power drawn from a supply: |branch current| * |V|, summed over the
/// given voltage sources.
double measure_supply_power(const circuit::Netlist& netlist,
                            const linalg::Vector& operating_point,
                            const std::vector<const circuit::VoltageSource*>& supplies);

/// The level `fraction` of the way from v_start to v_end.  It is the 10%
/// and 90% level of measure_slew_rate, bit for bit, so a transient stopped
/// at swing_level(v_start, v_end, 0.9) ends on that measurement's first
/// 90% crossing.
inline double swing_level(double v_start, double v_end, double fraction) {
  return v_start + fraction * (v_end - v_start);
}

/// 10%-90% slew rate [V/s] of a step response v(time) that swings from
/// v.front() to `v_end`: 80% of the swing |v_end - v.front()| over the
/// time between the first crossings of its 10% and 90% levels
/// (swing_level), each linearly interpolated between samples.  `v_end` is
/// the settled value, so the waveform may end at its 90% crossing; pass
/// v.back() for a run long enough to settle.  Rising and falling edges
/// alike; 0 when the swing is below 1 uV, a level is never crossed, the
/// waveform has fewer than three samples, or `time` and `v` differ in
/// length.
double measure_slew_rate(const std::vector<double>& time,
                         const std::vector<double>& v, double v_end);

/// Per-transistor DC operating info used for functional constraints.
struct MosOperatingPoint {
  std::string name;
  double id = 0.0;          ///< drain current magnitude [A]
  double vov = 0.0;         ///< overdrive vgs - vth (polarity frame) [V]
  double vds = 0.0;         ///< polarity-frame drain-source voltage [V]
  double vdsat = 0.0;       ///< saturation voltage [V]
  double sat_margin = 0.0;  ///< vds - vdsat (positive = saturated) [V]
  circuit::MosRegion region = circuit::MosRegion::kCutoff;
};

/// Extracts the operating info of every MOSFET at the given DC solution.
std::vector<MosOperatingPoint> mos_operating_points(
    const circuit::Netlist& netlist, const linalg::Vector& operating_point,
    const circuit::Conditions& conditions);

}  // namespace mayo::sim
