// mayo/sim -- nonlinear DC operating-point solver.
//
// Damped Newton-Raphson on the MNA residual with two convergence aids:
// gmin stepping (a shunt conductance from every node to ground, swept from
// large to negligible) and source stepping (ramping all independent sources
// from zero).  Each Newton iteration stamps and factors through the
// sim::LinearSystem boundary (dense LU with partial pivoting).
#pragma once

#include <cstddef>

#include "audit/audit.hpp"
#include "circuit/netlist.hpp"
#include "linalg/vector.hpp"

namespace mayo::sim {

class LinearSystem;

/// Newton iteration controls.
struct DcOptions {
  int max_iterations = 150;      ///< Newton iterations per attempt
  double abstol = 1e-9;          ///< residual current tolerance [A]
  double vntol = 1e-9;           ///< node voltage update tolerance [V]
  double max_step_v = 0.4;       ///< damping clamp on voltage updates [V]
  double gmin_floor = 1e-12;     ///< shunt conductance kept in all solves [S]
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;
  /// Pre-solve netlist audit (connectivity + plausibility, no structural
  /// pass): always in Debug builds, opt-in (kOn) in Release.  Errors
  /// throw audit::AuditError before the first Newton iteration.
  audit::Enforce audit = audit::Enforce::kDefault;
  /// Optional caller-owned solver workspace reused across solve_dc calls:
  /// keeps the LU workspace allocated across Newton attempts, probes and
  /// samples.  May be null; a workspace must not be shared between
  /// threads.
  LinearSystem* workspace = nullptr;
};

/// Result of a DC solve.
struct DcResult {
  linalg::Vector solution;  ///< MNA unknowns (node voltages + branch currents)
  bool converged = false;
  int newton_iterations = 0;  ///< total Newton iterations across attempts
  int continuation_steps = 0; ///< gmin/source continuation stages used
};

/// Solves for the DC operating point.  `initial` (if given) seeds the
/// Newton iteration, enabling cheap re-solves under small parameter
/// changes (finite differences, line searches).
/// The netlist is taken non-const because source stepping temporarily
/// scales the independent sources (restored before returning).
DcResult solve_dc(circuit::Netlist& netlist,
                  const circuit::Conditions& conditions,
                  const DcOptions& options = {},
                  const linalg::Vector* initial = nullptr);

}  // namespace mayo::sim
