#include "audit/connectivity.hpp"

#include <gtest/gtest.h>

#include <string>

#include "circuit/devices.hpp"

namespace mayo::audit {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

AuditReport run(const Netlist& netlist, bool capacitors_conduct = false) {
  AuditReport report;
  audit_connectivity(netlist, report, capacitors_conduct);
  return report;
}

TEST(AuditConnectivity, CleanDividerIsClean) {
  Netlist netlist;
  const NodeId in = netlist.add_node("in");
  const NodeId mid = netlist.add_node("mid");
  netlist.add<circuit::VoltageSource>("V1", in, kGround, 10.0);
  netlist.add<circuit::Resistor>("R1", in, mid, 1e3);
  netlist.add<circuit::Resistor>("R2", mid, kGround, 3e3);
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditConnectivity, InductorConductsAtDc) {
  Netlist netlist;
  const NodeId in = netlist.add_node("in");
  const NodeId out = netlist.add_node("out");
  netlist.add<circuit::VoltageSource>("V1", in, kGround, 1.0);
  netlist.add<circuit::Inductor>("L1", in, out, 1e-3);
  netlist.add<circuit::Resistor>("R1", out, kGround, 50.0);
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditConnectivity, FloatingIslandIsAud005) {
  Netlist netlist;
  const NodeId in = netlist.add_node("in");
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  netlist.add<circuit::VoltageSource>("V1", in, kGround, 1.0);
  netlist.add<circuit::Resistor>("R1", in, kGround, 1e3);
  netlist.add<circuit::Resistor>("R2", a, b, 1e3);
  netlist.add<circuit::Resistor>("R3", b, a, 1e3);

  const AuditReport report = run(netlist);
  ASSERT_TRUE(report.has_code("AUD-005"));
  ASSERT_EQ(report.error_count(), 1u);  // one finding per component
  const Diagnostic& d = report.diagnostics().front();
  EXPECT_EQ(d.subject, "a");
  EXPECT_NE(d.message.find("'a'"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("'b'"), std::string::npos) << d.message;
}

TEST(AuditConnectivity, UnusedAndDanglingNodesWarn) {
  Netlist netlist;
  const NodeId in = netlist.add_node("in");
  const NodeId out = netlist.add_node("out");
  netlist.add_node("ghost");  // declared, never touched
  netlist.add<circuit::VoltageSource>("V1", in, kGround, 1.0);
  netlist.add<circuit::Resistor>("R1", in, out, 1e3);  // out dangles

  const AuditReport report = run(netlist);
  EXPECT_EQ(report.error_count(), 0u);
  ASSERT_EQ(report.warning_count(), 2u);
  EXPECT_TRUE(report.has_code("AUD-002"));
  EXPECT_EQ(report.diagnostics()[0].subject, "out");
  EXPECT_NE(report.diagnostics()[0].message.find("dangling"),
            std::string::npos);
  EXPECT_EQ(report.diagnostics()[1].subject, "ghost");
  EXPECT_NE(report.diagnostics()[1].message.find("no device connects"),
            std::string::npos);
}

TEST(AuditConnectivity, CapacitorCoupledNodeHasNoDcPath) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  netlist.add<circuit::VoltageSource>("V1", a, kGround, 1.0);
  netlist.add<circuit::Capacitor>("C1", a, b, 1e-9);
  netlist.add<circuit::Capacitor>("C2", b, kGround, 1e-9);

  const AuditReport dc = run(netlist, /*capacitors_conduct=*/false);
  ASSERT_TRUE(dc.has_code("AUD-001"));
  EXPECT_EQ(dc.error_count(), 1u);
  EXPECT_EQ(dc.diagnostics().front().subject, "b");

  // In the AC/transient conduction model the same node is fine.
  EXPECT_TRUE(run(netlist, /*capacitors_conduct=*/true).empty());
}

TEST(AuditConnectivity, ParallelSourcesCloseAud003Loop) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::VoltageSource>("V1", a, kGround, 1.0);
  netlist.add<circuit::VoltageSource>("V2", a, kGround, 2.0);
  netlist.add<circuit::Resistor>("R1", a, kGround, 1e3);

  const AuditReport report = run(netlist);
  ASSERT_TRUE(report.has_code("AUD-003"));
  // The closing device (insertion order) is blamed.
  EXPECT_EQ(report.diagnostics().front().subject, "V2");
}

TEST(AuditConnectivity, SourceRingClosesAud003Loop) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  const NodeId c = netlist.add_node("c");
  netlist.add<circuit::VoltageSource>("V1", a, b, 1.0);
  netlist.add<circuit::VoltageSource>("V2", b, c, 1.0);
  netlist.add<circuit::VoltageSource>("V3", c, a, 1.0);
  netlist.add<circuit::Resistor>("R1", a, kGround, 1e3);
  netlist.add<circuit::Resistor>("R2", b, kGround, 1e3);
  netlist.add<circuit::Resistor>("R3", c, kGround, 1e3);

  const AuditReport report = run(netlist);
  ASSERT_TRUE(report.has_code("AUD-003"));
  EXPECT_EQ(report.diagnostics().front().subject, "V3");
}

TEST(AuditConnectivity, IsolatedCurrentSourceIsAud004) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::CurrentSource>("I1", kGround, a, 1e-3);
  netlist.add<circuit::Capacitor>("C1", a, kGround, 1e-6);

  const AuditReport report = run(netlist);
  EXPECT_TRUE(report.has_code("AUD-001"));  // a has no DC path
  ASSERT_TRUE(report.has_code("AUD-004"));
  // A resistive return path clears both findings.
  netlist.add<circuit::Resistor>("R1", a, kGround, 1e3);
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditConnectivity, SelfLoopSeverityTracksBranchKind) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::VoltageSource>("Vdrive", a, kGround, 1.0);
  netlist.add<circuit::Resistor>("Rload", a, kGround, 1e3);
  netlist.add<circuit::Resistor>("Rself", a, a, 1e3);
  netlist.add<circuit::VoltageSource>("Vself", a, a, 1.0);

  const AuditReport report = run(netlist);
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report.diagnostics()[0].code, "AUD-006");
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics()[0].subject, "Rself");
  EXPECT_EQ(report.diagnostics()[1].code, "AUD-006");
  // A self-looped ideal branch row is identically zero: an error.
  EXPECT_EQ(report.diagnostics()[1].severity, Severity::kError);
  EXPECT_EQ(report.diagnostics()[1].subject, "Vself");
}

TEST(AuditConnectivity, MosGateCountsForConnectivityNotConduction) {
  Netlist netlist;
  const NodeId vdd = netlist.add_node("vdd");
  const NodeId in = netlist.add_node("in");
  const NodeId out = netlist.add_node("out");
  netlist.add<circuit::VoltageSource>("Vdd", vdd, kGround, 5.0);
  netlist.add<circuit::VoltageSource>("Vin", in, kGround, 1.2);
  netlist.add<circuit::Resistor>("RD", vdd, out, 1e4);
  netlist.add<circuit::Mosfet>("M1", circuit::MosType::kNmos, out, in,
                               kGround, kGround, circuit::MosProcess{},
                               circuit::MosGeometry{20e-6, 1e-6});
  EXPECT_TRUE(run(netlist).empty());
}

TEST(AuditConnectivity, DiodeConnectedMosIsNoSelfLoop) {
  // drain == gate: the diode connection of every current mirror.
  Netlist netlist;
  const NodeId vdd = netlist.add_node("vdd");
  const NodeId bias = netlist.add_node("bias");
  netlist.add<circuit::VoltageSource>("Vdd", vdd, kGround, 5.0);
  netlist.add<circuit::Resistor>("RB", vdd, bias, 1e4);
  netlist.add<circuit::Mosfet>("MB", circuit::MosType::kNmos, bias, bias,
                               kGround, kGround, circuit::MosProcess{},
                               circuit::MosGeometry{20e-6, 1e-6});
  EXPECT_TRUE(run(netlist).empty());
  EXPECT_TRUE(run(netlist, /*capacitors_conduct=*/true).empty());
}

TEST(AuditConnectivity, MosWithDrainOnSourceIsASelfLoopWarning) {
  // drain == source: the channel stamp couples the node to itself.
  Netlist netlist;
  const NodeId vdd = netlist.add_node("vdd");
  const NodeId in = netlist.add_node("in");
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::VoltageSource>("Vdd", vdd, kGround, 5.0);
  netlist.add<circuit::VoltageSource>("Vin", in, kGround, 1.2);
  netlist.add<circuit::Resistor>("RD", vdd, a, 1e4);
  netlist.add<circuit::Mosfet>("M1", circuit::MosType::kNmos, a, in, a,
                               kGround, circuit::MosProcess{},
                               circuit::MosGeometry{20e-6, 1e-6});
  const AuditReport report = run(netlist);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].code, "AUD-006");
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics()[0].subject, "M1");
  EXPECT_NE(report.diagnostics()[0].message.find("node 'a'"),
            std::string::npos);
}

}  // namespace
}  // namespace mayo::audit
