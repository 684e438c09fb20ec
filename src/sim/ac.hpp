// mayo/sim -- small-signal AC analysis.
//
// The AC system at a DC operating point is (G + j omega C) x = b with G
// the device linearization, C the capacitance/reactance pattern and b the
// AC excitations — G, C and b do not depend on frequency.  AcSession
// exploits that split: the netlist is stamped once per (operating point,
// conditions) and the free blocks of G and C -- the unknowns left once the
// netlist's grounded voltage-source tree is eliminated
// (sim/source_tree.hpp) -- are gathered once; every frequency probe then
// assembles the free block of A = G + j omega C into a reusable complex LU
// workspace (linalg::assemble_complex_into) and solves in place for every
// MNA unknown.  No virtual dispatch, no allocation per probe.  A probe at the
// frequency the session last factored keeps the factors and only
// substitutes, so a second excitation at one frequency (update_excitation)
// costs one substitution, also when it drives an eliminated source.
//
// The free functions below are thin conveniences over a fresh session.
#pragma once

#include <complex>
#include <memory>
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
/// context) can only change evaluation cost, never a result bit.  The LU
/// factors are a pure function of (G, C, frequency): they are kept only
/// while G and C stay stamped and the frequency repeats bit for bit.
class AcSession {
 public:
  /// Empty session; call stamp() before solving.
  AcSession();
  /// Stamps immediately (convenience).
  AcSession(const circuit::Netlist& netlist,
            const linalg::Vector& operating_point,
            const circuit::Conditions& conditions);
  ~AcSession();

  /// (Re)stamps G, C and b at the given operating point, partitions the
  /// netlist's unknowns again (its source tree), so a session reused
  /// across netlists never applies one netlist's partition to another,
  /// and gathers the free blocks of G and C.  All buffers are reused when
  /// the system size is unchanged.
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

  /// Re-reads the AC value of `source`, a voltage source of the stamped
  /// netlist, into the excitation b after its set_ac_value(): b becomes
  /// bitwise what a fresh stamp() would build, while G, C and the LU
  /// factors stay.  Throws std::logic_error before the first stamp() and
  /// std::invalid_argument if the source's branch lies outside the system.
  void update_excitation(const circuit::VoltageSource& source);

  /// Solves A x = b at `frequency_hz`, A = G + j omega C.  At the frequency
  /// factored last since the latest stamp() the factors are reused;
  /// otherwise the free block of A is assembled into the complex workspace
  /// and refactored in place.  Returns the internal solution vector (node
  /// phasors + branch currents, the eliminated ones included), valid until
  /// the next solve or stamp.  Throws linalg::SingularMatrixError, naming
  /// the unknown, if the small-signal system is singular at this operating
  /// point.
  const linalg::VectorC& solve(double frequency_hz);

  /// Phasor of one node at `frequency_hz` (ground -> 0).
  std::complex<double> node_voltage(double frequency_hz, circuit::NodeId node);

 private:
  struct Reduction;  // source tree and free-block scratch

  std::size_t n_ = 0;
  std::size_t num_nodes_ = 0;
  audit::Enforce audit_ = audit::Enforce::kDefault;
  bool factored_ = false;    ///< lu_ holds the factors of A at factored_hz_
  double factored_hz_ = 0.0;
  /// Created by the first stamp(), so constructing a session allocates
  /// nothing.  Its tree keeps the stamped netlist, which must outlive the
  /// session's solves (already implied by the stamp-once usage pattern).
  std::unique_ptr<Reduction> reduction_;
  linalg::SystemMatrix system_;  ///< stamping target bound to g_ and c_
  linalg::VectorC rhs_;          ///< complex excitation
  linalg::VectorC solution_;
  linalg::Matrixd g_;  ///< real (frequency-independent) part
  linalg::Matrixd c_;  ///< j-omega-scaled part
  linalg::Luc lu_;     ///< factors of the free block of G + j omega C
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
