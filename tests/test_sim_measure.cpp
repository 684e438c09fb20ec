#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "sim/dc.hpp"
#include "sim/transient.hpp"

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::MosGeometry;
using circuit::Mosfet;
using circuit::MosProcess;
using circuit::MosType;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::Vcvs;
using circuit::VoltageSource;
using linalg::Vector;

TEST(Measure, DbAndPhaseHelpers) {
  EXPECT_NEAR(to_db({10.0, 0.0}), 20.0, 1e-12);
  EXPECT_NEAR(to_db({0.1, 0.0}), -20.0, 1e-12);
  EXPECT_NEAR(phase_deg({0.0, 1.0}), 90.0, 1e-12);
  EXPECT_NEAR(phase_deg({-1.0, 0.0}), 180.0, 1e-12);
}

/// Samples of a ramp step from v0 to v1: flat until t = 1, linear to t = 3,
/// flat until t = 5, sampled every 0.1.
void ramp_step(double v0, double v1, std::vector<double>& time,
               std::vector<double>& v) {
  for (int k = 0; k <= 50; ++k) {
    const double t = 0.1 * k;
    const double x = std::clamp((t - 1.0) / 2.0, 0.0, 1.0);
    time.push_back(t);
    v.push_back(v0 + (v1 - v0) * x);
  }
}

TEST(Measure, SlewRateOfRisingAndFallingRamps) {
  // 10% and 90% of a 2 V swing are crossed 1.6 time units apart on the
  // 1 V/unit ramp: 0.8 * 2 / 1.6 = 1 V/unit, whatever the direction.
  std::vector<double> time, rise, fall_time, fall;
  ramp_step(1.0, 3.0, time, rise);
  ramp_step(3.0, 1.0, fall_time, fall);
  EXPECT_NEAR(measure_slew_rate(time, rise, rise.back()), 1.0, 1e-12);
  EXPECT_NEAR(measure_slew_rate(fall_time, fall, fall.back()), 1.0, 1e-12);
}

TEST(Measure, SlewRateInterpolatesBetweenSamples) {
  // The 10% and 90% levels of a 0 -> 1 step fall between samples; linear
  // interpolation places them at t = 0.1 and t = 0.9 exactly.
  const std::vector<double> time = {0.0, 1.0, 2.0};
  const std::vector<double> v = {0.0, 1.0, 1.0};
  EXPECT_NEAR(measure_slew_rate(time, v, v.back()), 0.8 / 0.8, 1e-12);
}

TEST(Measure, SlewRateLevelsFollowTheExplicitEnd) {
  // Two slopes: 1 V/unit up to 0.5 V at t = 0.5, then 0.25 V/unit up to
  // 1 V at t = 2.5, flat until t = 4, sampled every 0.1.
  std::vector<double> time, v;
  for (int k = 0; k <= 40; ++k) {
    const double t = 0.1 * k;
    time.push_back(t);
    v.push_back(t < 0.5 ? t : std::min(1.0, 0.5 + 0.25 * (t - 0.5)));
  }
  // End 1 V: levels 0.1 V (t = 0.1) and 0.9 V (t = 2.1).
  EXPECT_NEAR(measure_slew_rate(time, v, 1.0), 0.8 / 2.0, 1e-9);
  // End 0.5 V: both levels move onto the first slope, 0.05 V (t = 0.05)
  // and 0.45 V (t = 0.45).
  EXPECT_NEAR(measure_slew_rate(time, v, 0.5), 0.8 * 0.5 / 0.4, 1e-9);

  // The waveform cut at its first point past the 90% level reads the
  // same with the explicit end, but not against its own last point.
  const double level = swing_level(v.front(), 1.0, 0.9);
  std::size_t last = 0;
  while (v[last] < level) ++last;
  const std::vector<double> cut_time(time.begin(), time.begin() + last + 1);
  const std::vector<double> cut(v.begin(), v.begin() + last + 1);
  EXPECT_EQ(measure_slew_rate(cut_time, cut, 1.0),
            measure_slew_rate(time, v, 1.0));
  EXPECT_GT(measure_slew_rate(cut_time, cut, cut.back()),
            1.05 * measure_slew_rate(time, v, 1.0));
}

TEST(Measure, ARunStoppedInsideItsFirstStepReadsTheFullRunSlewRate) {
  // R = 1k, C = 1p (tau = 1 ns) under a 0 -> 1 V step on a 10 ns grid:
  // the first step lands at 10/11 V, past the 90% level.  The run stopped
  // there keeps three points and reads the full run's slew rate, not 0.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-12);
  const DcResult op = solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  vin.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 200e-9;
  const TranResult full = solve_transient(nl, op.solution, Conditions{},
                                          options);
  ASSERT_TRUE(full.converged);
  const std::vector<double> v_full = full.node_voltage(out);
  const double sr_full = measure_slew_rate(full.time, v_full, v_full.back());
  EXPECT_GT(sr_full, 0.0);

  options.stop_node = out;
  options.stop_level = swing_level(0.0, 1.0, 0.9);
  const TranResult stopped = solve_transient(nl, op.solution, Conditions{},
                                             options);
  ASSERT_TRUE(stopped.stopped);
  ASSERT_EQ(stopped.time.size(), 3u);
  EXPECT_DOUBLE_EQ(
      measure_slew_rate(stopped.time, stopped.node_voltage(out), 1.0),
      sr_full);
}

TEST(Measure, SlewRateIsZeroWithoutAUsableEdge) {
  std::vector<double> time, v;
  ramp_step(2.0, 2.0 + 5e-7, time, v);  // swing below 1 uV
  EXPECT_EQ(measure_slew_rate(time, v, v.back()), 0.0);
  std::vector<double> flat_time, flat;
  ramp_step(1.5, 1.5, flat_time, flat);
  EXPECT_EQ(measure_slew_rate(flat_time, flat, flat.back()), 0.0);
  // An end the waveform never gets near: no 90% crossing.
  std::vector<double> ramp_time, ramp;
  ramp_step(0.0, 1.0, ramp_time, ramp);
  EXPECT_EQ(measure_slew_rate(ramp_time, ramp, 2.0), 0.0);
  // Two samples carry no crossing to interpolate between.
  EXPECT_EQ(measure_slew_rate({0.0, 1.0}, {0.0, 1.0}, 1.0), 0.0);
  // Time and voltage of different lengths.
  EXPECT_EQ(measure_slew_rate({0.0, 1.0}, {0.0, 0.5, 1.0}, 1.0), 0.0);
}

/// Ideal single-pole amplifier: VCVS gain A, then R-C pole.
struct OnePoleAmp {
  OnePoleAmp(double gain, double r, double c) {
    in = nl.add_node("in");
    mid = nl.add_node("mid");
    out = nl.add_node("out");
    auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    vin.set_ac_value({1.0, 0.0});
    nl.add<Vcvs>("E1", mid, kGround, in, kGround, gain);
    nl.add<Resistor>("R1", mid, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);
    op = Vector(nl.system_size());
  }
  Netlist nl;
  NodeId in{};
  NodeId mid{};
  NodeId out{};
  Vector op;
};

TEST(Measure, GainBandwidthSinglePole) {
  // A = 1000 (60 dB), pole at 1/(2 pi RC) = 159 Hz -> ft ~ A * fp ~ 159 kHz.
  OnePoleAmp amp(1000.0, 1e6, 1e-9);
  const GainBandwidth gb = measure_gain_bandwidth(
      amp.nl, amp.op, Conditions{}, amp.out, 1.0, 1e9);
  EXPECT_NEAR(gb.a0_db, 60.0, 0.01);
  ASSERT_TRUE(gb.ft_found);
  const double fp = 1.0 / (2.0 * std::numbers::pi * 1e6 * 1e-9);
  // |H| = A / sqrt(1 + (f/fp)^2) = 1 -> f = fp * sqrt(A^2 - 1).
  const double expected_ft = fp * std::sqrt(1000.0 * 1000.0 - 1.0);
  EXPECT_NEAR(gb.ft_hz / expected_ft, 1.0, 0.01);
  // Single pole: phase margin ~ 90 deg.
  EXPECT_NEAR(gb.phase_margin_deg, 90.0, 1.0);
}

TEST(Measure, GainBandwidthNoCrossing) {
  // Gain below unity everywhere: no ft.
  OnePoleAmp amp(0.5, 1e3, 1e-12);
  const GainBandwidth gb = measure_gain_bandwidth(
      amp.nl, amp.op, Conditions{}, amp.out, 1.0, 1e6);
  EXPECT_FALSE(gb.ft_found);
  EXPECT_EQ(gb.ft_hz, 0.0);
  EXPECT_NEAR(gb.a0_db, to_db({0.5, 0.0}), 1e-6);
}

TEST(Measure, TwoPolePhaseMargin) {
  // Two coincident poles at fp; at ft the phase margin is
  // 180 - 2*atan(ft/fp) -- check against the analytic value.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId m1 = nl.add_node("m1");
  const NodeId p1 = nl.add_node("p1");
  const NodeId m2 = nl.add_node("m2");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  vin.set_ac_value({1.0, 0.0});
  nl.add<Vcvs>("E1", m1, kGround, in, kGround, 100.0);
  nl.add<Resistor>("R1", m1, p1, 1e3);
  nl.add<Capacitor>("C1", p1, kGround, 1e-9);  // fp ~ 159 kHz
  nl.add<Vcvs>("E2", m2, kGround, p1, kGround, 1.0);
  nl.add<Resistor>("R2", m2, out, 1e3);
  nl.add<Capacitor>("C2", out, kGround, 1e-9);
  Vector op(nl.system_size());
  const GainBandwidth gb =
      measure_gain_bandwidth(nl, op, Conditions{}, out, 10.0, 1e9);
  ASSERT_TRUE(gb.ft_found);
  const double fp = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  const double expected_pm =
      180.0 - 2.0 * std::atan(gb.ft_hz / fp) * 180.0 / std::numbers::pi;
  EXPECT_NEAR(gb.phase_margin_deg, expected_pm, 1.0);
  EXPECT_LT(gb.phase_margin_deg, 90.0);
}

TEST(Measure, ThreePolePhaseMarginIsNegative) {
  // Gain 100 over three coincident poles at fp ~ 159 kHz: |H| = 1 at
  // ft = fp * sqrt(100^(2/3) - 1), where the phase is -3 * atan(ft/fp)
  // = -232.7 deg, i.e. 52.7 deg past -180.  The margin is -52.7 deg; a
  // wrap that only corrects values above 360 reported +307.3 and passed
  // any phase-margin lower bound.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  vin.set_ac_value({1.0, 0.0});
  NodeId stage_in = in;
  double gain = 100.0;
  for (int k = 1; k <= 3; ++k) {
    const std::string tag = std::to_string(k);
    const NodeId buffered = nl.add_node("m" + tag);
    const NodeId pole = nl.add_node("p" + tag);
    nl.add<Vcvs>("E" + tag, buffered, kGround, stage_in, kGround, gain);
    nl.add<Resistor>("R" + tag, buffered, pole, 1e3);
    nl.add<Capacitor>("C" + tag, pole, kGround, 1e-9);
    stage_in = pole;
    gain = 1.0;
  }
  Vector op(nl.system_size());
  const GainBandwidth gb =
      measure_gain_bandwidth(nl, op, Conditions{}, stage_in, 10.0, 1e9);
  ASSERT_TRUE(gb.ft_found);
  const double fp = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  EXPECT_NEAR(gb.ft_hz, fp * std::sqrt(std::pow(100.0, 2.0 / 3.0) - 1.0),
              0.01 * gb.ft_hz);
  const double expected_pm =
      180.0 - 3.0 * std::atan(gb.ft_hz / fp) * 180.0 / std::numbers::pi;
  EXPECT_NEAR(expected_pm, -52.7, 0.1);
  EXPECT_NEAR(gb.phase_margin_deg, expected_pm, 0.1);
}

TEST(Measure, SupplyPower) {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  auto& supply = nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  nl.add<Resistor>("R1", vdd, kGround, 1e3);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  const double power = measure_supply_power(nl, op.solution, {&supply});
  EXPECT_NEAR(power, 25e-3, 1e-6);  // 5V * 5mA
}

TEST(Measure, SupplyPowerIgnoresNull) {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  nl.add<Resistor>("R1", vdd, kGround, 1e3);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  EXPECT_EQ(measure_supply_power(nl, op.solution, {nullptr}), 0.0);
}

TEST(Measure, MosOperatingPoints) {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  const NodeId g = nl.add_node("g");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  nl.add<circuit::CurrentSource>("I1", vdd, g, 50e-6);
  MosProcess proc;
  nl.add<Mosfet>("M1", MosType::kNmos, g, g, kGround, kGround, proc,
                 MosGeometry{20e-6, 1e-6});
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  const auto points = mos_operating_points(nl, op.solution, cond);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].name, "M1");
  EXPECT_NEAR(points[0].id, 50e-6, 1e-6);
  EXPECT_EQ(points[0].region, circuit::MosRegion::kSaturation);
  // Diode-connected: vds = vgs > vdsat, positive saturation margin.
  EXPECT_GT(points[0].sat_margin, 0.0);
  EXPECT_NEAR(points[0].vds, op.solution[g - 1], 1e-9);
}

}  // namespace
}  // namespace mayo::sim
