// mayo/audit -- auditing a SPICE deck end to end.
//
// Lives in its own header so consumers that audit programmatic netlists
// (sim, core) never pull the spice parser into their include graph; only
// the deck-facing callers (the netlist_audit CLI, the corpus tests)
// include this.
//
// A deck that fails to parse is itself a diagnostic (AUD-050 carrying the
// parser's line number), not an exception: the CLI and the corpus treat
// "unparseable" as just another audit outcome.
#pragma once

#include <optional>
#include <string_view>

#include "audit/diagnostic.hpp"
#include "spice/parser.hpp"

namespace mayo::audit {

/// Audit outcome of one deck.
struct DeckAudit {
  AuditReport report;
  /// The parsed circuit when parsing succeeded (for callers that want to
  /// go on and simulate); empty after an AUD-050 parse failure.
  std::optional<spice::ParsedCircuit> circuit;
};

/// Parses `deck` and runs the full netlist audit (DC conduction model)
/// plus the model-card plausibility checks.  Never throws on bad input:
/// parse failures become AUD-050 diagnostics.
DeckAudit audit_deck(std::string_view deck);

}  // namespace mayo::audit
