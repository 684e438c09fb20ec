// Regression tests for the MNA index -> name enrichment of
// SingularMatrixError: a solver that fails must say *which* node or
// branch is to blame, on the Newton and AC paths alike.
#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "circuit/devices.hpp"
#include "circuit/stamp.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/solver.hpp"

namespace mayo::sim {
namespace {

using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using linalg::Vector;

/// Two nodes joined by one resistor, nothing tied to ground: the classic
/// floating subcircuit whose MNA matrix is exactly singular.
Netlist make_floating_pair() {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  const NodeId b = netlist.add_node("b");
  netlist.add<circuit::Resistor>("R1", a, b, 1.0);
  return netlist;
}

std::string factor_failure_message(Netlist& netlist) {
  const std::size_t n = netlist.system_size();
  LinearSystem system;
  system.set_diagnostic_netlist(&netlist);
  linalg::SystemMatrix& jacobian = system.begin(n);
  Vector x(n);
  Vector residual(n);
  const circuit::Conditions conditions;
  circuit::DcStamp stamp(x, jacobian, residual, netlist.num_nodes(),
                         conditions);
  for (const auto& device : netlist) device->stamp_dc(stamp);
  try {
    system.factor();
  } catch (const linalg::SingularMatrixError& e) {
    return e.what();
  }
  return {};
}

TEST(SingularNames, DensePivotNamesTheFloatingNode) {
  Netlist netlist = make_floating_pair();
  const std::string message = factor_failure_message(netlist);
  ASSERT_FALSE(message.empty()) << "expected a singular system";
  EXPECT_NE(message.find("unknown: node 'b'"), std::string::npos) << message;
}

TEST(SingularNames, WithoutNetlistContextMessageIsUnchanged) {
  Netlist netlist = make_floating_pair();
  const std::size_t n = netlist.system_size();
  LinearSystem system;  // no set_diagnostic_netlist
  linalg::SystemMatrix& jacobian = system.begin(n);
  Vector x(n);
  Vector residual(n);
  const circuit::Conditions conditions;
  circuit::DcStamp stamp(x, jacobian, residual, netlist.num_nodes(),
                         conditions);
  for (const auto& device : netlist) device->stamp_dc(stamp);
  try {
    system.factor();
    FAIL() << "expected a singular system";
  } catch (const linalg::SingularMatrixError& e) {
    EXPECT_EQ(std::string(e.what()).find("node '"), std::string::npos);
  }
}

TEST(SingularNames, AcSolveNamesTheRedundantBranch) {
  Netlist netlist;
  const NodeId a = netlist.add_node("a");
  netlist.add<circuit::VoltageSource>("V1", a, kGround, 1.0);
  netlist.add<circuit::VoltageSource>("V2", a, kGround, 1.0);
  netlist.add<circuit::Resistor>("R1", a, kGround, 1e3);

  AcSession session;
  session.set_audit(audit::Enforce::kOff);  // reach the factorization
  const Vector x(netlist.system_size());
  session.stamp(netlist, x, circuit::Conditions{});
  try {
    session.solve(1e3);
    FAIL() << "expected a singular AC system";
  } catch (const linalg::SingularMatrixError& e) {
    EXPECT_NE(std::string(e.what()).find("branch current of device"),
              std::string::npos)
        << e.what();
  }
}

TEST(SingularNames, DcBoundaryRejectsFloatingNetlistWhenOn) {
  Netlist netlist = make_floating_pair();
  DcOptions options;
  options.audit = audit::Enforce::kOn;
  EXPECT_THROW(solve_dc(netlist, circuit::Conditions{}, options),
               audit::AuditError);

  // kOff reaches the solver (whose gmin shunt regularizes the floating
  // pair); the point is that no audit exception fires.
  options.audit = audit::Enforce::kOff;
  EXPECT_NO_THROW(solve_dc(netlist, circuit::Conditions{}, options));
}

TEST(SingularNames, AcBoundaryRejectsFloatingNetlistWhenOn) {
  Netlist netlist = make_floating_pair();
  AcSession session;
  session.set_audit(audit::Enforce::kOn);
  const Vector x(netlist.system_size());
  EXPECT_THROW(session.stamp(netlist, x, circuit::Conditions{}),
               audit::AuditError);
}

}  // namespace
}  // namespace mayo::sim
