#include "audit/structural.hpp"

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "circuit/devices.hpp"

namespace mayo::audit {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

AuditReport run(const Netlist& netlist) {
  AuditReport report;
  audit_structural(netlist, report);
  return report;
}

TEST(AuditStructural, EmptyNetlistIsClean) {
  Netlist netlist;
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditStructural, CleanDividerHasFullRank) {
  Netlist netlist;
  const NodeId in = netlist.add_node("in");
  const NodeId mid = netlist.add_node("mid");
  netlist.add<circuit::VoltageSource>("V1", in, kGround, 10.0);
  netlist.add<circuit::Resistor>("R1", in, mid, 1e3);
  netlist.add<circuit::Resistor>("R2", mid, kGround, 3e3);
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditStructural, CutOffMosStillHasStructuralRank) {
  // A transistor biased off at x = 0 must not be reported as
  // rank-deficient.  This cannot pin that the structural pass keeps
  // value-zero stamps: the model's drain-source gmin keeps the MOSFET's
  // stamps nonzero, and V1's branch alone already gives a perfect
  // matching.  SystemMatrix.PatternModeRecordsEveryAddInCallOrder pins
  // the value-zero recording directly.
  Netlist netlist;
  const NodeId d = netlist.add_node("d");
  netlist.add<circuit::VoltageSource>("V1", d, kGround, 1.0);
  netlist.add<circuit::Mosfet>("M1", circuit::MosType::kNmos, d, d, kGround,
                               kGround, circuit::MosProcess{},
                               circuit::MosGeometry{20e-6, 1e-6});
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditStructural, CapacitorCoupledNodeIsRankDeficient) {
  // Capacitors stamp nothing at DC: node b's KCL row and voltage column
  // are structurally empty.
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  netlist.add<circuit::VoltageSource>("V1", a, kGround, 1.0);
  netlist.add<circuit::Capacitor>("C1", a, b, 1e-9);
  netlist.add<circuit::Capacitor>("C2", b, kGround, 1e-9);

  const AuditReport report = run(netlist);
  ASSERT_TRUE(report.has_code("AUD-010"));
  ASSERT_TRUE(report.has_code("AUD-011"));
  bool named_row = false;
  bool named_col = false;
  for (const Diagnostic& diag : report.diagnostics()) {
    if (diag.code == "AUD-010" &&
        diag.subject.find("KCL at node 'b'") != std::string::npos)
      named_row = true;
    if (diag.code == "AUD-011" &&
        diag.subject.find("node 'b'") != std::string::npos)
      named_col = true;
  }
  EXPECT_TRUE(named_row);
  EXPECT_TRUE(named_col);
}

TEST(AuditStructural, ParallelSourcesAreRankDeficient) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::VoltageSource>("V1", a, kGround, 1.0);
  netlist.add<circuit::VoltageSource>("V2", a, kGround, 1.0);
  netlist.add<circuit::Resistor>("R1", a, kGround, 1.0);

  const AuditReport report = run(netlist);
  EXPECT_TRUE(report.has_code("AUD-010"));
  EXPECT_TRUE(report.has_code("AUD-011"));
  bool named_branch = false;
  for (const Diagnostic& diag : report.diagnostics())
    if (diag.subject.find("branch") != std::string::npos) named_branch = true;
  EXPECT_TRUE(named_branch);
}

TEST(AuditStructural, SourceRingPassesStructuralButFailsConnectivity) {
  // A ring of ideal sources is structurally full rank (every row/column
  // can be matched) yet numerically singular: the connectivity family's
  // AUD-003 is the rule that catches it, not the rank predictor.
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  const NodeId c = netlist.add_node("c");
  netlist.add<circuit::VoltageSource>("V1", a, b, 1.0);
  netlist.add<circuit::VoltageSource>("V2", b, c, 1.0);
  netlist.add<circuit::VoltageSource>("V3", c, a, 1.0);
  netlist.add<circuit::Resistor>("R1", a, kGround, 1.0);
  netlist.add<circuit::Resistor>("R2", b, kGround, 1.0);
  netlist.add<circuit::Resistor>("R3", c, kGround, 1.0);

  EXPECT_TRUE(run(netlist).empty());

  const AuditReport combined = audit_netlist(netlist);
  EXPECT_TRUE(combined.has_code("AUD-003"));
  EXPECT_FALSE(combined.has_code("AUD-010"));
}

}  // namespace
}  // namespace mayo::audit
