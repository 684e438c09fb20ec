// mayo/audit -- connectivity rules (union-find over the netlist graphs).
//
// Two graphs are built per audit:
//
//   full graph       -- every device joins all of its terminals (including
//                       MOS gate/bulk and VCVS control pins).  Detects
//                       subcircuits disconnected from ground (AUD-005),
//                       dangling and unused nodes (AUD-002).
//   DC conduction    -- only edges that put Jacobian entries on both node
//                       rows at DC: R, V(p-n), VCVS(p-n, not controls), L,
//                       diode, MOS drain-source.  Capacitors are open and
//                       current sources stamp only the RHS, so neither
//                       conducts.  Detects nodes with no DC path to ground
//                       (AUD-001, a structurally/numerically singular KCL
//                       row) and current sources bridging two conduction
//                       components (AUD-004, KCL cannot balance).
//
// Plus zero-impedance source loops (AUD-003: a V/E/L edge closing a cycle
// in the pure branch-device graph) and self-looped devices (AUD-006: the
// two nodes the stamp couples are one -- for a MOSFET, drain == source;
// drain == gate is the diode connection and sound).
#pragma once

#include "audit/diagnostic.hpp"
#include "circuit/netlist.hpp"

namespace mayo::audit {

/// Runs the connectivity rule family, appending findings to `report`.
/// `capacitors_conduct` treats capacitors as conduction edges: the AC and
/// transient systems stamp C as an admittance / companion conductance, so
/// a node reached only through capacitors is well-posed there; at DC it
/// is not.
void audit_connectivity(const circuit::Netlist& netlist, AuditReport& report,
                        bool capacitors_conduct = false);

}  // namespace mayo::audit
