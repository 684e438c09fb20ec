// mayo/audit -- umbrella entry points for the netlist static analysis.
//
// `audit_netlist` runs the three rule families (connectivity, structural
// rank, plausibility -- see the family headers) and returns the combined
// AuditReport, bumping the `audit.*` obs counters.
//
// `enforce_boundary` is the hook the simulation engines and the
// optimizer entry call before touching a netlist: active always in Debug
// builds, opt-in per call in Release (Enforce::kOn), and it runs only the
// cheap families (union-find + parameter scans -- no structural stamp) so
// a hot caller pays microseconds, not a pattern build.  On errors it
// throws AuditError carrying the full report.
#pragma once

#include "audit/connectivity.hpp"  // include-ok: umbrella
#include "audit/diagnostic.hpp"
#include "audit/plausibility.hpp"  // include-ok: umbrella
#include "audit/structural.hpp"    // include-ok: umbrella

namespace mayo::audit {

/// Runs the rule families over `netlist` in a fixed order (connectivity,
/// structural, plausibility); deterministic output for a given netlist.
/// `capacitors_conduct` is forwarded to the connectivity family: AC and
/// transient treat capacitors as conduction edges (they stamp admittances
/// there), DC does not.
AuditReport audit_netlist(const circuit::Netlist& netlist,
                          bool capacitors_conduct = false);

/// Boundary-enforcement switch threaded through DcOptions / TranOptions /
/// AcSession / YieldOptimizerOptions.
enum class Enforce {
  kDefault,  ///< audit in Debug builds, skip in Release
  kOn,       ///< always audit
  kOff,      ///< never audit
};

/// Resolves an Enforce value against the build type: kDefault is active
/// exactly when NDEBUG is not defined.
bool enforce_active(Enforce enforce);

/// Pre-solve gate: when active, runs connectivity + plausibility (no
/// structural pass), counted as one audit run, and throws AuditError if
/// the report has errors.  `capacitors_conduct` selects the AC/transient
/// conduction model.
void enforce_boundary(const circuit::Netlist& netlist, Enforce enforce,
                      bool capacitors_conduct = false);

}  // namespace mayo::audit
