// mayo/sim -- transient analysis (backward Euler).
//
// Backward-Euler integration on a grid of whole multiples of a fixed
// step; each step is a damped Newton solve of the companion-model system.
// BE is L-stable, which matters here: the slew-rate testbenches are stiff
// (nanosecond device poles under microsecond ramps).  A run may end
// before t_stop, at its first accepted point past a level on one node
// (TranOptions::stop_node): the opamp slew bench stops at the 90%
// crossing of its output, the last point its slew-rate measurement
// reads.  Used for the slew-rate performance of the opamp testbenches.
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
  double t_stop = 1e-6;    ///< end time [s]: the latest a run can end
  double dt = 1e-9;        ///< step [s]; every accepted time is k * dt
                           ///< (the last one clipped at t_stop)
  TranMethod method = TranMethod::kBackwardEuler;
  DcOptions newton;        ///< per-step Newton controls
  /// Optional early stop.  With a stop_node other than kGround the run
  /// ends at its first accepted point, from the second step on, whose
  /// voltage at stop_node has reached stop_level from the side the
  /// initial state is on (>= when it starts below the level, <=
  /// otherwise), and sets TranResult::stopped.  Never stopping before the
  /// second step leaves at least three points, the fewest a 10-90%
  /// measurement reads, even when the level is crossed inside the first
  /// step.  Every point up to the stop is bit for bit the point of the
  /// same run without one.  A stop_node that is not a node of the netlist,
  /// or a non-finite stop_level with a stop node, throws
  /// std::invalid_argument.
  circuit::NodeId stop_node = circuit::kGround;
  double stop_level = 0.0;  ///< [V]
  /// Optional Newton warm start: a previous run of the same testbench
  /// (e.g. the nominal-design response while sweeping mismatch samples),
  /// on its own time grid.  A step from t_prev to t is seeded only when
  /// the seed has consecutive points at exactly t_prev and t whose
  /// solutions match the system size; its Newton iteration then starts
  /// from the previous point plus the seed's increment over the step.  A
  /// seed that ends before the run (one stopped at its level) seeds the
  /// steps it covers and leaves the rest unseeded, without a seed reset.
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
  /// The run ended at TranOptions::stop_level (possibly at t_stop itself).
  bool stopped = false;
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

}  // namespace mayo::sim
