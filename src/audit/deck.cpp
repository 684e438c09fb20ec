#include "audit/deck.hpp"

#include "audit/audit.hpp"

namespace mayo::audit {

DeckAudit audit_deck(std::string_view deck) {
  DeckAudit result;
  try {
    result.circuit = spice::parse_netlist(deck);
  } catch (const spice::ParseError& e) {
    result.report.add({
        "AUD-050",
        Severity::kError,
        std::string("deck does not parse: ") + e.what(),
        "deck",
        "line " + std::to_string(e.line()),
        "fix the deck syntax; nothing past the parse error was analyzed",
    });
    return result;
  }
  result.report = audit_netlist(*result.circuit->netlist);
  audit_models(result.circuit->models, result.report);
  return result;
}

}  // namespace mayo::audit
