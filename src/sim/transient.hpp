// mayo/sim -- transient analysis (backward Euler).
//
// Backward-Euler integration on a grid of whole multiples of a base step;
// each step is a damped Newton solve of the companion-model system.  BE
// is L-stable, which matters here: the slew-rate testbenches are stiff
// (nanosecond device poles under microsecond ramps).  By default every
// step is the base step; with TranOptions::max_dt the step doubles on a
// settled tail, where BE's truncation estimate stays below the update
// size Newton already accepts as converged.  Used for the slew-rate
// performance of the opamp testbenches.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "linalg/vector.hpp"
#include "sim/dc.hpp"

namespace mayo::sim {

/// Time-integration formula.
enum class TranMethod {
  kBackwardEuler,  ///< 1st order, L-stable (default)
  kBdf2,           ///< 2nd order, L-stable; falls back to BE on the first
                   ///< step and on irregular (retry/final partial) steps
};

struct TranResult;

/// Transient run controls.
struct TranOptions {
  double t_stop = 1e-6;    ///< end time [s]
  double dt = 1e-9;        ///< base step [s]; every accepted time is k * dt
                           ///< (the last one clipped at t_stop)
  /// Step-growth ceiling [s]; negative or NaN throws std::invalid_argument.
  /// 0 (default) keeps every step at dt.  Otherwise, after each accepted
  /// step the next one is the largest power-of-two multiple of dt that is
  /// at most twice the current step, at most max_dt, and whose
  /// backward-Euler truncation estimate 1/2 h^2 max|v''| (v'' the second
  /// divided difference of the last three accepted node voltages) stays
  /// within 10 * newton.vntol.  A longer step whose Newton solve fails is
  /// retried at dt.  The estimate is backward Euler's, so max_dt > dt
  /// with kBdf2 throws std::invalid_argument.
  /// Precondition: the sources do not change once the step can grow
  /// (e.g. an input stepped at t = 0+).  The estimate is taken from
  /// points already accepted and never rejects a step, so a grown step
  /// that meets a later source edge is taken whole, its error unbounded;
  /// and it reads node voltages only, not branch currents.
  double max_dt = 0.0;
  TranMethod method = TranMethod::kBackwardEuler;
  DcOptions newton;        ///< per-step Newton controls
  /// Optional Newton warm start: a previous run of the same testbench
  /// (e.g. the nominal-design response while sweeping mismatch samples),
  /// on its own time grid.  A step from t_prev to t is seeded only when
  /// the seed has consecutive points at exactly t_prev and t whose
  /// solutions match the system size; its Newton iteration then starts
  /// from the previous point plus the seed's increment over the step.
  /// The integration history (x_prev, BDF2 points, retries) is
  /// unaffected, so the seed only changes the iteration count and the
  /// last-bit Newton endpoint, never the method.  The pointee must
  /// outlive the solve_transient call.
  const TranResult* seed = nullptr;
};

/// Result of a transient run: the solution vector at every accepted time
/// point (including t = 0, which is the provided initial operating point).
struct TranResult {
  std::vector<double> time;
  std::vector<linalg::Vector> solutions;
  bool converged = false;
  int newton_iterations = 0;

  /// Voltage waveform of one node.
  std::vector<double> node_voltage(circuit::NodeId node) const;
};

/// Integrates from the DC state `initial` (computed with the sources at
/// their t=0 values).  Sources with waveforms are evaluated at the end of
/// each step.
TranResult solve_transient(circuit::Netlist& netlist,
                           const linalg::Vector& initial,
                           const circuit::Conditions& conditions,
                           const TranOptions& options);

/// Maximum signed slope max_t dV/dt of a waveform [unit/s]; takes the
/// maximum of (v[k+1]-v[k]) / (time[k+1]-time[k]) over the intervals of
/// positive length.  Returns 0 for fewer than two points.
double max_slope(const std::vector<double>& time,
                 const std::vector<double>& values);

/// Maximum negative slope magnitude (for falling edges).
double max_negative_slope(const std::vector<double>& time,
                          const std::vector<double>& values);

}  // namespace mayo::sim
