// mayo/sim -- small-signal AC analysis.
//
// The AC system at a DC operating point is (G + j omega C) x = b with G
// the device linearization, C the capacitance/reactance pattern and b the
// AC excitations — G, C and b do not depend on frequency.  AcSession
// exploits that split: the netlist is stamped once per (operating point,
// conditions), then every frequency probe assembles A = G + j omega C
// into a reusable complex LU workspace and solves in place.  No virtual
// dispatch, no allocation per probe.
//
// The free functions below are thin conveniences over a fresh session.
#pragma once

#include <complex>
#include <vector>

#include "audit/audit.hpp"
#include "circuit/netlist.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::sim {

/// Stamp-once / solve-many small-signal pipeline.
///
/// The stamped state is a pure function of (netlist device state,
/// operating point, conditions): `stamp` fully rewrites G, C and b, so a
/// session object reused across samples (or cached next to a design
/// context) can only change evaluation cost, never a result bit.
class AcSession {
 public:
  /// Empty session; call stamp() before solving.
  AcSession() = default;
  /// Stamps immediately (convenience).
  AcSession(const circuit::Netlist& netlist,
            const linalg::Vector& operating_point,
            const circuit::Conditions& conditions) {
    stamp(netlist, operating_point, conditions);
  }

  /// (Re)stamps G, C and b at the given operating point.  All buffers are
  /// reused when the system size is unchanged.
  /// Throws std::invalid_argument on an operating-point size mismatch.
  void stamp(const circuit::Netlist& netlist,
             const linalg::Vector& operating_point,
             const circuit::Conditions& conditions);

  /// Pre-stamp netlist audit (Debug default, opt-in in Release); takes
  /// effect at the next stamp().  Capacitors count as conduction edges --
  /// they stamp admittances in the small-signal system.
  void set_audit(audit::Enforce enforce) { audit_ = enforce; }

  bool stamped() const { return n_ > 0; }
  std::size_t size() const { return n_; }

  /// Assembles A = G + j omega C, refactors the complex workspace in
  /// place and solves A x = b.  Returns the internal solution vector
  /// (node phasors + branch currents), valid until the next solve or
  /// stamp.  Throws linalg::SingularMatrixError if the small-signal
  /// system is singular at this operating point.
  const linalg::VectorC& solve(double frequency_hz);

  /// Phasor of one node at `frequency_hz` (ground -> 0).
  std::complex<double> node_voltage(double frequency_hz, circuit::NodeId node);

 private:
  /// Rethrows a zero-pivot error with MNA index -> node/branch names.
  [[noreturn]] void rethrow_singular(
      const linalg::SingularMatrixError& error) const;

  std::size_t n_ = 0;
  std::size_t num_nodes_ = 0;
  audit::Enforce audit_ = audit::Enforce::kDefault;
  /// Diagnostic context for singular-system messages; set by stamp() and
  /// read only on error paths.  The caller's netlist must outlive the
  /// session's solves (already implied by the stamp-once usage pattern).
  const circuit::Netlist* netlist_ = nullptr;
  linalg::SystemMatrix system_;  ///< stamping target bound to g_ and c_
  linalg::VectorC rhs_;          ///< complex excitation
  linalg::VectorC solution_;
  linalg::Matrixd g_;  ///< real (frequency-independent) part
  linalg::Matrixd c_;  ///< j-omega-scaled part
  linalg::Luc lu_;     ///< reusable complex factor workspace, per probe
};

/// Solves the AC system at a single frequency [Hz] with a fresh session.
/// Returns the full complex solution vector (node phasors + branch
/// currents).  Throws linalg::SingularMatrixError if the small-signal
/// system is singular at this operating point.
linalg::VectorC solve_ac(const circuit::Netlist& netlist,
                         const linalg::Vector& operating_point,
                         const circuit::Conditions& conditions,
                         double frequency_hz);

/// Phasor of a node at a single frequency (convenience).
std::complex<double> ac_node_voltage(const circuit::Netlist& netlist,
                                     const linalg::Vector& operating_point,
                                     const circuit::Conditions& conditions,
                                     double frequency_hz,
                                     circuit::NodeId node);

/// Frequency response H(f) of one node over a log-spaced grid.
struct FrequencyResponse {
  std::vector<double> frequency_hz;
  std::vector<std::complex<double>> response;
};

/// Sweeps `points_per_decade` log-spaced points from f_start to f_stop.
/// Stamps once and reuses the session across the whole grid.
FrequencyResponse sweep_ac(const circuit::Netlist& netlist,
                           const linalg::Vector& operating_point,
                           const circuit::Conditions& conditions,
                           circuit::NodeId node, double f_start, double f_stop,
                           int points_per_decade = 10);

}  // namespace mayo::sim
