// mayo/audit -- structural-rank prediction for the MNA system.
//
// Records the structural MNA pattern by stamping the netlist at x = 0
// into a pattern-mode SystemMatrix (every add is recorded, even
// value-zero ones, so the pattern is the full structural nonzero set).
// A maximum bipartite matching (Kuhn) over that pattern gives the exact
// structural rank.  An unmatched row is an equation with no assignable
// unknown (AUD-010); an unmatched column is an unknown no equation can
// determine (AUD-011).  Both name the node / branch via
// circuit::mna_names.
//
// A clean structural audit does NOT guarantee a nonsingular matrix
// (values can still cancel, e.g. a ring of voltage sources); combined
// with the connectivity family it predicts the factorization verdict for
// linear circuits -- the corpus test pins that agreement.
#pragma once

#include "audit/diagnostic.hpp"
#include "circuit/netlist.hpp"

namespace mayo::audit {

/// Runs the structural-rank rule family, appending findings to `report`.
void audit_structural(const circuit::Netlist& netlist, AuditReport& report);

}  // namespace mayo::audit
