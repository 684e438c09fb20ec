// mayo/audit -- plausibility rules: parameter values a real circuit could
// carry.  Device constructors and setters already reject the hard nonsense
// they can see: Resistor, Capacitor, Inductor, Diode and Mosfet guard
// their values with `!(x > 0)`, which rejects zero, negatives and NaN, so
// of the non-finite values only +Inf reaches AUD-020 / AUD-022 for them.
// The independent sources and the VCVS have no guard; a NaN or Inf value
// of theirs first shows here (AUD-024 / AUD-025).  These rules catch what
// slips past construction -- those non-finite values, physically absurd
// magnitudes (a 1e15-ohm "resistor" is a typo, not a resistor), and bad
// model cards -- and report them as diagnostics instead of letting them
// poison a factorization or a Newton loop.
#pragma once

#include <map>
#include <string>

#include "audit/diagnostic.hpp"
#include "circuit/mos_model.hpp"
#include "circuit/netlist.hpp"

namespace mayo::audit {

/// Runs the device-level plausibility rule family over every device in
/// the netlist (insertion order), appending findings to `report`.
void audit_plausibility(const circuit::Netlist& netlist, AuditReport& report);

/// Audits a named model-card collection (the parser's `.model` output);
/// also applied per-instance by audit_plausibility via Mosfet::process().
void audit_models(const std::map<std::string, circuit::MosProcess>& models,
                  AuditReport& report);

}  // namespace mayo::audit
