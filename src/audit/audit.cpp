#include "audit/audit.hpp"

#include "obs/obs.hpp"

namespace mayo::audit {
namespace {

void count_run(const AuditReport& report) {
  obs::registry().counters.audit_runs.add();
  obs::registry().counters.audit_findings.add(report.size());
}

}  // namespace

AuditReport audit_netlist(const circuit::Netlist& netlist,
                          bool capacitors_conduct) {
  AuditReport report;
  audit_connectivity(netlist, report, capacitors_conduct);
  audit_structural(netlist, report);
  audit_plausibility(netlist, report);
  count_run(report);
  return report;
}

bool enforce_active(Enforce enforce) {
  if (enforce == Enforce::kOn) return true;
  if (enforce == Enforce::kOff) return false;
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

void enforce_boundary(const circuit::Netlist& netlist, Enforce enforce,
                      bool capacitors_conduct) {
  if (!enforce_active(enforce)) return;
  // The cheap families only on hot boundaries: no structural stamp.
  AuditReport report;
  audit_connectivity(netlist, report, capacitors_conduct);
  audit_plausibility(netlist, report);
  count_run(report);
  if (report.has_errors()) {
    obs::registry().counters.audit_rejects.add();
    throw AuditError(report);
  }
}

}  // namespace mayo::audit
