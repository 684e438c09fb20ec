#include "sim/dc.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::CurrentSource;
using circuit::kGround;
using circuit::MosGeometry;
using circuit::Mosfet;
using circuit::MosProcess;
using circuit::MosType;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;
using linalg::Vector;

TEST(DcSolver, VoltageDivider) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  nl.add<VoltageSource>("V1", in, kGround, 10.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<Resistor>("R2", mid, kGround, 3e3);
  const DcResult result = solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[mid - 1], 7.5, 1e-6);
  // Branch current of V1: 10 V across 4 kOhm.
  EXPECT_NEAR(result.solution[nl.num_nodes() - 1 + 0], -2.5e-3, 1e-8);
}

TEST(DcSolver, CurrentSourceIntoResistor) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  // 1 mA pulled from ground, pushed into node a (SPICE convention:
  // current flows from p through the source to n).
  nl.add<CurrentSource>("I1", kGround, a, 1e-3);
  nl.add<Resistor>("R1", a, kGround, 2e3);
  const DcResult result = solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[a - 1], 2.0, 1e-6);
}

TEST(DcSolver, DiodeConnectedMosfet) {
  // Iref into a diode-connected NMOS: vgs = vth + sqrt(2 I / beta).
  Netlist nl;
  const NodeId d = nl.add_node("d");
  nl.add<CurrentSource>("I1", kGround, d, 100e-6);
  MosProcess proc;  // vth 0.7, kp 100u
  nl.add<Mosfet>("M1", MosType::kNmos, d, d, kGround, kGround, proc,
                 MosGeometry{20e-6, 1e-6});
  const DcResult result = solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  const double beta = 100e-6 * 20.0;
  const double vov = std::sqrt(2.0 * 100e-6 / beta);
  // Channel-length modulation shifts this slightly; 2% tolerance.
  EXPECT_NEAR(result.solution[d - 1], 0.7 + vov, 0.02);
}

TEST(DcSolver, NmosCurrentMirror) {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  const NodeId g = nl.add_node("g");
  const NodeId out = nl.add_node("out");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  nl.add<CurrentSource>("Iref", vdd, g, 50e-6);
  MosProcess proc;
  nl.add<Mosfet>("M1", MosType::kNmos, g, g, kGround, kGround, proc,
                 MosGeometry{20e-6, 1e-6});
  nl.add<Mosfet>("M2", MosType::kNmos, out, g, kGround, kGround, proc,
                 MosGeometry{40e-6, 1e-6});
  nl.add<Resistor>("RL", vdd, out, 10e3);
  const DcResult result = solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  // Mirror ratio 2 gives ~100 uA, scaled by the channel-length-modulation
  // ratio of the two drain voltages (lambda = 0.05/V at L = 1 um).
  const double i_out = (5.0 - result.solution[out - 1]) / 10e3;
  const double vds1 = result.solution[g - 1];
  const double vds2 = result.solution[out - 1];
  const double expected =
      100e-6 * (1.0 + 0.05 * vds2) / (1.0 + 0.05 * vds1);
  EXPECT_NEAR(i_out, expected, 2e-6);
  EXPECT_GT(i_out, 100e-6);  // CLM pushes the copy high at larger vds
}

TEST(DcSolver, WarmStartReducesIterations) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  nl.add<VoltageSource>("V1", in, kGround, 5.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  MosProcess proc;
  nl.add<Mosfet>("M1", MosType::kNmos, mid, mid, kGround, kGround, proc,
                 MosGeometry{10e-6, 1e-6});
  const DcResult cold = solve_dc(nl, Conditions{});
  ASSERT_TRUE(cold.converged);
  const DcResult warm = solve_dc(nl, Conditions{}, {}, &cold.solution);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.newton_iterations, cold.newton_iterations);
  EXPECT_NEAR(warm.solution[mid - 1], cold.solution[mid - 1], 1e-9);
}

TEST(DcSolver, CmosInverterTransferPoints) {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  VoltageSource& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  MosProcess proc_n;
  MosProcess proc_p = proc_n;
  proc_p.vth0 = 0.8;
  proc_p.kp = 35e-6;
  nl.add<Mosfet>("MN", MosType::kNmos, out, in, kGround, kGround, proc_n,
                 MosGeometry{10e-6, 1e-6});
  nl.add<Mosfet>("MP", MosType::kPmos, out, in, vdd, vdd, proc_p,
                 MosGeometry{30e-6, 1e-6});

  vin.set_dc_value(0.0);
  DcResult low = solve_dc(nl, Conditions{});
  ASSERT_TRUE(low.converged);
  EXPECT_GT(low.solution[out - 1], 4.9);  // output high

  vin.set_dc_value(5.0);
  DcResult high = solve_dc(nl, Conditions{}, {}, &low.solution);
  ASSERT_TRUE(high.converged);
  EXPECT_LT(high.solution[out - 1], 0.1);  // output low
}

TEST(DcSolver, TemperatureChangesOperatingPoint) {
  Netlist nl;
  const NodeId d = nl.add_node("d");
  nl.add<CurrentSource>("I1", kGround, d, 100e-6);
  MosProcess proc;
  nl.add<Mosfet>("M1", MosType::kNmos, d, d, kGround, kGround, proc,
                 MosGeometry{20e-6, 1e-6});
  const DcResult cold = solve_dc(nl, Conditions{273.15});
  const DcResult hot = solve_dc(nl, Conditions{373.15});
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(hot.converged);
  // Hot: lower vth but also lower mobility; vth drop (0.2 V) dominates the
  // vov increase here, so vgs decreases.
  EXPECT_LT(hot.solution[d - 1], cold.solution[d - 1]);
}

TEST(DcSolver, FloatingNodeHandledByGmin) {
  // A capacitor-only node has no DC path; the gmin shunt keeps the system
  // solvable and pins it near ground.
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<Capacitor>("C1", a, kGround, 1e-12);
  // Debug builds audit by default and reject the floating node (AUD-001)
  // before the solver runs; this test is about the solver.
  DcOptions options;
  options.audit = audit::Enforce::kOff;
  const DcResult result = solve_dc(nl, Conditions{}, options);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[a - 1], 0.0, 1e-6);
}

TEST(DcSolver, KclHoldsAtSolution) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  nl.add<VoltageSource>("V1", in, kGround, 3.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<Resistor>("R2", mid, kGround, 1e3);
  nl.add<Resistor>("R3", mid, kGround, 2e3);
  const DcResult result = solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  const double v = result.solution[mid - 1];
  const double kcl = (3.0 - v) / 1e3 - v / 1e3 - v / 2e3;
  EXPECT_NEAR(kcl, 0.0, 1e-9);
}

}  // namespace
}  // namespace mayo::sim
