#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/devices.hpp"
#include "circuit/netlist.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "spice/parser.hpp"

namespace mayo::circuit {
namespace {

constexpr double kVt300 = 8.617333262e-5 * 300.15;

TEST(Diode, ShockleyForwardCurrent) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  Diode& d = nl.add<Diode>("D1", a, kGround, 1e-14);
  const auto e = d.evaluate(0.6, 300.15);
  const double expected = 1e-14 * (std::exp(0.6 / kVt300) - 1.0);
  EXPECT_NEAR(e.id, expected, expected * 1e-9);
  EXPECT_NEAR(e.gd, expected / kVt300, expected / kVt300 * 1e-6);
}

TEST(Diode, ReverseSaturation) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  Diode& d = nl.add<Diode>("D1", a, kGround, 2e-14);
  const auto e = d.evaluate(-5.0, 300.15);
  EXPECT_NEAR(e.id, -2e-14, 1e-20);
  EXPECT_GT(e.gd, 0.0);
}

TEST(Diode, EmissionCoefficientScalesVt) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  Diode& d1 = nl.add<Diode>("D1", a, kGround, 1e-14, 1.0);
  Diode& d2 = nl.add<Diode>("D2", a, kGround, 1e-14, 2.0);
  EXPECT_GT(d1.evaluate(0.6, 300.15).id, d2.evaluate(0.6, 300.15).id * 100.0);
}

TEST(Diode, OverflowSafeAtLargeBias) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  Diode& d = nl.add<Diode>("D1", a, kGround, 1e-14);
  const auto e = d.evaluate(50.0, 300.15);
  EXPECT_TRUE(std::isfinite(e.id));
  EXPECT_TRUE(std::isfinite(e.gd));
  EXPECT_GT(e.id, 0.0);
}

TEST(Diode, DerivativeMatchesFiniteDifference) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  Diode& d = nl.add<Diode>("D1", a, kGround, 1e-14);
  const double h = 1e-7;
  for (double v : {-1.0, 0.0, 0.45, 0.65}) {
    const double fd =
        (d.evaluate(v + h, 300.15).id - d.evaluate(v - h, 300.15).id) /
        (2.0 * h);
    EXPECT_NEAR(d.evaluate(v, 300.15).gd, fd, std::abs(fd) * 1e-4 + 1e-12);
  }
}

TEST(Diode, RejectsBadParameters) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  EXPECT_THROW(nl.add<Diode>("D1", a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add<Diode>("D2", a, kGround, 1e-14, -1.0),
               std::invalid_argument);
  Diode& d = nl.add<Diode>("D3", a, kGround, 1e-14);
  EXPECT_THROW(d.set_saturation_current(-1.0), std::invalid_argument);
}

TEST(Diode, DcSolveResistorDiode) {
  // 5 V -> 1 kOhm -> diode: v_d ~ Vt ln(I/IS), I ~ (5 - v_d)/1k.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId a = nl.add_node("a");
  nl.add<VoltageSource>("V1", in, kGround, 5.0);
  nl.add<Resistor>("R1", in, a, 1e3);
  nl.add<Diode>("D1", a, kGround, 1e-14);
  const auto result = sim::solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  const double vd = result.solution[a - 1];
  const double i = (5.0 - vd) / 1e3;
  // Self-consistency with the Shockley equation.
  EXPECT_NEAR(vd, kVt300 * std::log(i / 1e-14 + 1.0), 1e-5);
  EXPECT_GT(vd, 0.55);
  EXPECT_LT(vd, 0.8);
}

TEST(Diode, TemperatureLowersForwardDrop) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId a = nl.add_node("a");
  nl.add<VoltageSource>("V1", in, kGround, 5.0);
  nl.add<Resistor>("R1", in, a, 1e3);
  nl.add<Diode>("D1", a, kGround, 1e-14);
  const auto cold = sim::solve_dc(nl, Conditions{273.15});
  const auto hot = sim::solve_dc(nl, Conditions{350.15});
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(hot.converged);
  // IS(T) grows steeply (bandgap law), so the forward drop is CTAT: about
  // -1..-2.5 mV/K for a silicon-like junction.
  const double slope =
      (hot.solution[a - 1] - cold.solution[a - 1]) / (350.15 - 273.15);
  EXPECT_LT(slope, -1e-3);
  EXPECT_GT(slope, -3e-3);
}

TEST(Diode, AcConductanceAtOperatingPoint) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId a = nl.add_node("a");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 5.0);
  v.set_ac_value({1.0, 0.0});
  nl.add<Resistor>("R1", in, a, 1e3);
  Diode& d = nl.add<Diode>("D1", a, kGround, 1e-14);
  const auto op = sim::solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  const double vd = op.solution[a - 1];
  const double gd = d.evaluate(vd, 300.15).gd;
  const auto h = sim::ac_node_voltage(nl, op.solution, Conditions{}, 10.0, a);
  // Divider: v_a = gd^-1 / (1k + gd^-1).
  const double expected = (1.0 / gd) / (1e3 + 1.0 / gd);
  EXPECT_NEAR(std::abs(h), expected, expected * 1e-3);
}

// Closed form of the junction model with IS(T) recomputed on every call:
// the reference the per-device temperature memo must reproduce.
Diode::Eval diode_reference(double is, double n, double eg, double xti,
                            double tnom, double v, double t) {
  constexpr double kBoltzmannOverQ = 8.617333262e-5;
  const double vt = n * kBoltzmannOverQ * t;
  const double ratio = t / tnom;
  const double vt_nom = n * kBoltzmannOverQ * tnom;
  const double is_t =
      is * std::pow(ratio, xti / n) * std::exp(eg / vt_nom * (ratio - 1.0) / ratio);
  const double x = v / vt;
  Diode::Eval out;
  if (x <= 40.0) {
    const double e = std::exp(x);
    out.id = is_t * (e - 1.0);
    out.gd = is_t * e / vt;
  } else {
    const double e = std::exp(40.0);
    out.id = is_t * (e * (1.0 + (x - 40.0)) - 1.0);
    out.gd = is_t * e / vt;
  }
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Diode, TemperatureMemoMatchesClosedFormBitwise) {
  Diode d("D1", 1, kGround, 2e-14, 1.3, 1.12, 3.2, 298.0);
  // T1 -> T2 -> T1 and back again: a memo keyed on the wrong thing, or
  // not refreshed, would serve a stale IS(T) here.
  for (double t : {300.15, 233.15, 300.15, 398.15, 398.15, 233.15}) {
    for (double v : {-0.3, 0.0, 0.45, 0.7, 4.0}) {
      const Diode::Eval ref = diode_reference(2e-14, 1.3, 1.12, 3.2, 298.0, v, t);
      const Diode::Eval got = d.evaluate(v, t);
      EXPECT_EQ(bits(got.id), bits(ref.id)) << "T=" << t << " v=" << v;
      EXPECT_EQ(bits(got.gd), bits(ref.gd)) << "T=" << t << " v=" << v;
    }
  }
  // Changing IS after the memo is warm must take effect immediately.
  d.set_saturation_current(5e-15);
  for (double t : {233.15, 300.15}) {
    const Diode::Eval ref = diode_reference(5e-15, 1.3, 1.12, 3.2, 298.0, 0.6, t);
    const Diode::Eval got = d.evaluate(0.6, t);
    EXPECT_EQ(bits(got.id), bits(ref.id)) << "T=" << t;
    EXPECT_EQ(bits(got.gd), bits(ref.gd)) << "T=" << t;
  }
}

TEST(Diode, ParsedFromSpice) {
  const auto parsed = spice::parse_netlist(R"(
V1 in 0 5
R1 in a 1k
D1 a 0 is=1e-14 n=1.5
)");
  const auto* d =
      dynamic_cast<const Diode*>(&parsed.netlist->device("D1"));
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->saturation_current(), 1e-14);
  EXPECT_DOUBLE_EQ(d->emission_coefficient(), 1.5);
  const auto result = sim::solve_dc(*parsed.netlist, Conditions{});
  EXPECT_TRUE(result.converged);
}

}  // namespace
}  // namespace mayo::circuit
