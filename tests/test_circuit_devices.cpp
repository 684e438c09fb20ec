#include "circuit/devices.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "circuit/netlist.hpp"
#include "linalg/matrix.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::circuit {
namespace {

using linalg::Matrixc;
using linalg::Matrixd;
using linalg::Vector;
using linalg::VectorC;

struct StampFixture {
  explicit StampFixture(std::size_t num_nodes, std::size_t branches = 0)
      : n(num_nodes - 1 + branches),
        nodes(num_nodes),
        x(n),
        jacobian(n, n),
        residual(n) {
    system.bind_dense(jacobian);
  }

  DcStamp dc() { return DcStamp(x, system, residual, nodes, conditions); }

  std::size_t n;
  std::size_t nodes;
  Conditions conditions{};
  Vector x;
  Matrixd jacobian;
  linalg::SystemMatrix system;
  Vector residual;
};

TEST(Resistor, DcStamp) {
  StampFixture fx(3);  // nodes 0(gnd), 1, 2
  fx.x[0] = 2.0;       // v1
  fx.x[1] = 0.5;       // v2
  Resistor r("R1", 1, 2, 100.0);
  DcStamp stamp = fx.dc();
  r.stamp_dc(stamp);
  const double i = (2.0 - 0.5) / 100.0;
  EXPECT_NEAR(fx.residual[0], i, 1e-15);
  EXPECT_NEAR(fx.residual[1], -i, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 0), 0.01, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 1), -0.01, 1e-15);
  EXPECT_NEAR(fx.jacobian(1, 1), 0.01, 1e-15);
}

TEST(Resistor, GroundedStampSkipsGroundRow) {
  StampFixture fx(2);
  fx.x[0] = 3.0;
  Resistor r("R1", 1, kGround, 1000.0);
  DcStamp stamp = fx.dc();
  r.stamp_dc(stamp);
  EXPECT_NEAR(fx.residual[0], 3e-3, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 0), 1e-3, 1e-15);
}

TEST(Resistor, RejectsNonPositive) {
  EXPECT_THROW(Resistor("R", 1, 0, 0.0), std::invalid_argument);
  Resistor r("R", 1, 0, 1.0);
  EXPECT_THROW(r.set_resistance(-5.0), std::invalid_argument);
}

TEST(Resistor, AcStampIsConductance) {
  Matrixd g(1, 1);
  Matrixd c(1, 1);
  VectorC rhs(1);
  Vector op(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(g, &c);
  AcStamp stamp(op, system, rhs, 2, cond);
  Resistor r("R", 1, kGround, 50.0);
  r.stamp_ac(stamp);
  EXPECT_NEAR(g(0, 0), 0.02, 1e-15);
  EXPECT_EQ(c(0, 0), 0.0);
}

TEST(Capacitor, OpenAtDc) {
  StampFixture fx(2);
  fx.x[0] = 5.0;
  Capacitor c("C1", 1, kGround, 1e-9);
  DcStamp stamp = fx.dc();
  c.stamp_dc(stamp);
  EXPECT_EQ(fx.residual[0], 0.0);
  EXPECT_EQ(fx.jacobian(0, 0), 0.0);
}

TEST(Capacitor, AcAdmittance) {
  Matrixd g(1, 1);
  Matrixd c(1, 1);
  VectorC rhs(1);
  Vector op(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(g, &c);
  AcStamp stamp(op, system, rhs, 2, cond);
  Capacitor cap("C1", 1, kGround, 1e-9);
  cap.stamp_ac(stamp);
  EXPECT_EQ(g(0, 0), 0.0);
  EXPECT_NEAR(c(0, 0), 1e-9, 1e-24);
}

TEST(Capacitor, TransientCompanion) {
  // BE step: i = C/h * (v - v_prev).
  const std::size_t nodes = 2;
  Vector x(1);
  x[0] = 2.0;
  Vector x_prev(1);
  x_prev[0] = 1.0;
  Matrixd jac(1, 1);
  Vector res(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  TranStamp stamp(x, system, res, nodes, cond, x_prev, 1e-6, 1e-6);
  Capacitor c("C1", 1, kGround, 1e-9);
  c.stamp_tran(stamp);
  EXPECT_NEAR(res[0], 1e-9 / 1e-6 * 1.0, 1e-15);
  EXPECT_NEAR(jac(0, 0), 1e-3, 1e-15);
}

TEST(VoltageSource, DcStampEquations) {
  // Nodes 1, 2 + one branch variable.
  StampFixture fx(3, 1);
  fx.x[0] = 4.0;  // v1
  fx.x[1] = 1.0;  // v2
  fx.x[2] = 0.1;  // branch current
  VoltageSource v("V1", 1, 2, 2.5);
  v.set_first_branch(0);
  DcStamp stamp = fx.dc();
  v.stamp_dc(stamp);
  // KCL rows get the branch current.
  EXPECT_NEAR(fx.residual[0], 0.1, 1e-15);
  EXPECT_NEAR(fx.residual[1], -0.1, 1e-15);
  // Branch equation: v1 - v2 - V = 4 - 1 - 2.5 = 0.5.
  EXPECT_NEAR(fx.residual[2], 0.5, 1e-15);
  EXPECT_EQ(fx.jacobian(0, 2), 1.0);
  EXPECT_EQ(fx.jacobian(1, 2), -1.0);
  EXPECT_EQ(fx.jacobian(2, 0), 1.0);
  EXPECT_EQ(fx.jacobian(2, 1), -1.0);
}

TEST(VoltageSource, WaveformUsedInTransient) {
  Vector x(2);
  Vector x_prev(2);
  Matrixd jac(2, 2);
  Vector res(2);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  TranStamp stamp(x, system, res, 2, cond, x_prev, 1e-9, 5e-9);
  VoltageSource v("V1", 1, kGround, 1.0);
  v.set_first_branch(0);
  v.set_waveform([](double t) { return t > 1e-9 ? 3.0 : 1.0; });
  v.stamp_tran(stamp);
  // Branch residual: v1 - value(t=5ns) = 0 - 3.
  EXPECT_NEAR(res[1], -3.0, 1e-15);
  v.clear_waveform();
  res.fill(0.0);
  TranStamp stamp2(x, system, res, 2, cond, x_prev, 1e-9, 5e-9);
  v.stamp_tran(stamp2);
  EXPECT_NEAR(res[1], -1.0, 1e-15);
}

TEST(CurrentSource, DcStampSpiceConvention) {
  StampFixture fx(3);
  CurrentSource i("I1", 1, 2, 1e-3);
  DcStamp stamp = fx.dc();
  i.stamp_dc(stamp);
  // Current leaves node 1 (through the source) and enters node 2.
  EXPECT_NEAR(fx.residual[0], 1e-3, 1e-18);
  EXPECT_NEAR(fx.residual[1], -1e-3, 1e-18);
  EXPECT_EQ(fx.jacobian.max_abs(), 0.0);
}

TEST(Vcvs, DcStampRelations) {
  // v(1) - 0 = 2 * (v(2) - 0).
  StampFixture fx(3, 1);
  fx.x[0] = 4.0;  // v1
  fx.x[1] = 1.0;  // v2
  Vcvs e("E1", 1, kGround, 2, kGround, 2.0);
  e.set_first_branch(0);
  DcStamp stamp = fx.dc();
  e.stamp_dc(stamp);
  // Branch residual: v1 - gain*v2 = 4 - 2 = 2.
  EXPECT_NEAR(fx.residual[2], 2.0, 1e-15);
  EXPECT_EQ(fx.jacobian(2, 0), 1.0);
  EXPECT_EQ(fx.jacobian(2, 1), -2.0);
}

TEST(Mosfet, DcStampKclConsistency) {
  // Residual contributions at drain and source must be opposite.
  Netlist nl;
  const NodeId d = nl.add_node("d");
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  MosProcess proc;
  Mosfet& m = nl.add<Mosfet>("M1", MosType::kNmos, d, g, s, kGround, proc,
                             MosGeometry{10e-6, 1e-6});
  Vector x(nl.system_size());
  x[d - 1] = 2.0;
  x[g - 1] = 1.5;
  x[s - 1] = 0.2;
  Matrixd jac(nl.system_size(), nl.system_size());
  Vector res(nl.system_size());
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  DcStamp stamp(x, system, res, nl.num_nodes(), cond);
  m.stamp_dc(stamp);
  EXPECT_NEAR(res[d - 1], -res[s - 1], 1e-18);
  EXPECT_GT(res[d - 1], 0.0);  // NMOS conducting
  // Jacobian rows are opposite as well.
  for (std::size_t c = 0; c < nl.system_size(); ++c)
    EXPECT_NEAR(jac(d - 1, c), -jac(s - 1, c), 1e-18);
}

TEST(Mosfet, PmosCurrentDirection) {
  Netlist nl;
  const NodeId d = nl.add_node("d");
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  MosProcess proc;
  proc.vth0 = 0.8;
  Mosfet& m = nl.add<Mosfet>("M1", MosType::kPmos, d, g, s, s, proc,
                             MosGeometry{10e-6, 1e-6});
  // Source at 5 V, gate at 3.5 V (vsg = 1.5), drain at 2 V.
  const MosEval e = m.evaluate_at(2.0, 3.5, 5.0, 5.0, 300.15);
  // Current flows INTO the source and OUT of the drain terminal: id < 0 in
  // polarity frame is mapped; the physical current into the drain is
  // p * id = -id_frame... For a conducting PMOS the drain current is
  // negative (conventional current flows out of the drain into the node).
  EXPECT_GT(e.id, 0.0);  // polarity-frame current is positive
  EXPECT_EQ(e.region, MosRegion::kSaturation);
}

TEST(Mosfet, GeometryValidation) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  MosProcess proc;
  EXPECT_THROW(nl.add<Mosfet>("M1", MosType::kNmos, a, a, kGround, kGround,
                              proc, MosGeometry{0.0, 1e-6}),
               std::invalid_argument);
  Mosfet& m = nl.add<Mosfet>("M2", MosType::kNmos, a, a, kGround, kGround,
                             proc, MosGeometry{1e-6, 1e-6});
  EXPECT_THROW(m.set_width(-1.0), std::invalid_argument);
  m.set_width(5e-6);
  EXPECT_EQ(m.geometry().w, 5e-6);
  m.set_length(2e-6);
  EXPECT_EQ(m.geometry().l, 2e-6);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Stamps the device at `temperature_k` and checks the stamped current and
// conductances against the pure model, bit for bit.
void expect_stamp_matches_pure_model(const Mosfet& m, std::size_t n,
                                     double temperature_k,
                                     const std::string& label) {
  const NodeId d = m.drain();
  const NodeId g = m.gate();
  const NodeId s = m.source();
  const NodeId b = m.bulk();
  // Mirrored bias for PMOS, so both flavours conduct in saturation.
  const double p = m.type() == MosType::kNmos ? 1.0 : -1.0;
  Vector x(n);
  x[d - 1] = p * 1.3;
  x[g - 1] = p * 1.45;
  x[s - 1] = p * 0.15;
  x[b - 1] = p * -0.2;
  const MosEval ref =
      mos_eval(m.process(), m.geometry(), m.variation(),
               {p * (x[g - 1] - x[s - 1]), p * (x[d - 1] - x[s - 1]),
                p * (x[b - 1] - x[s - 1])},
               temperature_k);

  const MosEval direct =
      m.evaluate_at(x[d - 1], x[g - 1], x[s - 1], x[b - 1], temperature_k);
  EXPECT_EQ(bits(direct.id), bits(ref.id)) << label;
  EXPECT_EQ(bits(direct.gm), bits(ref.gm)) << label;
  EXPECT_EQ(bits(direct.gds), bits(ref.gds)) << label;
  EXPECT_EQ(bits(direct.gmb), bits(ref.gmb)) << label;

  Matrixd jac(n, n);
  Vector res(n);
  Conditions cond;
  cond.temperature_k = temperature_k;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  DcStamp stamp(x, system, res, n + 1, cond);
  m.stamp_dc(stamp);
  // Each entry is a single addition onto zero, so it holds the model value.
  EXPECT_EQ(bits(res[d - 1]), bits(p * ref.id)) << label;
  EXPECT_EQ(bits(jac(d - 1, g - 1)), bits(ref.gm)) << label;
  EXPECT_EQ(bits(jac(d - 1, d - 1)), bits(ref.gds)) << label;
  EXPECT_EQ(bits(jac(d - 1, b - 1)), bits(ref.gmb)) << label;
}

TEST(Mosfet, MobilityMemoMatchesPureModelBitwise) {
  for (MosType type : {MosType::kNmos, MosType::kPmos}) {
    Netlist nl;
    const NodeId d = nl.add_node("d");
    const NodeId g = nl.add_node("g");
    const NodeId s = nl.add_node("s");
    const NodeId b = nl.add_node("b");
    MosProcess proc;
    proc.mu_exp = 1.7;
    proc.tnom = 298.15;
    Mosfet& m = nl.add<Mosfet>("M1", type, d, g, s, b, proc,
                               MosGeometry{12e-6, 0.8e-6});
    const std::size_t n = nl.system_size();
    const std::string kind = type == MosType::kNmos ? "nmos" : "pmos";
    // T1 -> T2 -> T1 (and a repeat): a memo that is not refreshed, or not
    // keyed on T, would serve a stale mobility factor.
    for (double t : {300.15, 233.15, 300.15, 398.15, 398.15, 233.15})
      expect_stamp_matches_pure_model(m, n, t, kind + " T=" + std::to_string(t));

    // Geometry and variation edits with the memo warm.
    m.set_geometry({20e-6, 1.5e-6});
    expect_stamp_matches_pure_model(m, n, 233.15, kind + " after set_geometry");
    m.set_variation({0.03, 1.08});
    expect_stamp_matches_pure_model(m, n, 233.15, kind + " after set_variation");
    m.set_width(7e-6);
    expect_stamp_matches_pure_model(m, n, 300.15, kind + " after set_width");
    expect_stamp_matches_pure_model(m, n, 233.15, kind + " back to 233.15");
  }
}

}  // namespace
}  // namespace mayo::circuit
