// AcSession contract tests: the stamped state is a pure function of
// (netlist state, operating point, conditions), so a session reused across
// stamps/solves must reproduce a fresh session bit for bit — workspace
// reuse may only ever change cost, never a result.  That covers the kept
// factors too: a solve at the frequency factored last after the excitation
// was updated equals a fresh session's.  The free solve_ac / sweep_ac
// helpers are thin wrappers over a session and must agree the same way.
#include "sim/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"

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
using linalg::VectorC;

/// Ideal single-pole amplifier: Vcvs gain A into an RC pole.  Analytic
/// transfer H(f) = A / (1 + j f / fc), so A0, the unity crossing and the
/// phase there are all known in closed form.
struct SinglePoleAmp {
  SinglePoleAmp(double gain, double r, double c) : fc(1.0 / (2.0 * std::numbers::pi * r * c)) {
    in = nl.add_node("in");
    mid = nl.add_node("mid");
    out = nl.add_node("out");
    vin = &nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    vin->set_ac_value({1.0, 0.0});
    nl.add<Vcvs>("E1", mid, kGround, in, kGround, gain);
    nl.add<Resistor>("R1", mid, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);
    op = Vector(nl.system_size());
  }
  Netlist nl;
  VoltageSource* vin = nullptr;
  NodeId in{};
  NodeId mid{};
  NodeId out{};
  Vector op;
  double fc;
};

/// Common-source stage whose small-signal matrices depend on the operating
/// point, exercising the (operating point, conditions) axis of the stamp.
struct CommonSource {
  CommonSource() {
    const NodeId vdd = nl.add_node("vdd");
    const NodeId in = nl.add_node("in");
    out = nl.add_node("out");
    vsupply = &nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
    vin = &nl.add<VoltageSource>("Vin", in, kGround, 1.0);
    vin->set_ac_value({1.0, 0.0});
    nl.add<Resistor>("RL", vdd, out, 10e3);
    nl.add<Capacitor>("CL", out, kGround, 1e-12);
    nl.add<Mosfet>("M1", MosType::kNmos, out, in, kGround, kGround,
                   MosProcess{}, MosGeometry{20e-6, 1e-6});
  }
  Netlist nl;
  VoltageSource* vsupply = nullptr;
  VoltageSource* vin = nullptr;
  NodeId out{};
};

/// Complex LU factorizations so far (0 under MAYO_OBS=OFF).
std::uint64_t factorizations() {
  return obs::registry().counters.ac_factorizations.value();
}

void expect_bitwise_equal(const VectorC& got, const VectorC& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

TEST(AcSession, ReusedSessionBitwiseMatchesFreshAcrossFrequencies) {
  SinglePoleAmp amp(100.0, 1e3, 1e-9);
  const Conditions cond;
  AcSession reused(amp.nl, amp.op, cond);
  for (double f : {1.0, 10.0, 1e3, amp.fc, 3.7 * amp.fc, 1e8}) {
    AcSession fresh(amp.nl, amp.op, cond);
    const VectorC& x_fresh = fresh.solve(f);
    const VectorC& x_reused = reused.solve(f);
    ASSERT_EQ(x_fresh.size(), x_reused.size());
    for (std::size_t i = 0; i < x_fresh.size(); ++i)
      EXPECT_EQ(x_fresh[i], x_reused[i]) << "f=" << f << " i=" << i;
  }
}

TEST(AcSession, RestampAcrossOperatingPointsMatchesFreshSession) {
  CommonSource ckt;
  const Conditions cond;
  AcSession reused;
  // Sweep the gate bias: every operating point changes gm/gds and hence
  // the stamped matrices; the re-stamped session must still match a fresh
  // one bit for bit at every point.
  for (double vg : {0.9, 1.0, 1.1, 1.3}) {
    ckt.vin->set_dc_value(vg);
    const DcResult dc = solve_dc(ckt.nl, cond);
    ASSERT_TRUE(dc.converged) << "vg=" << vg;
    reused.stamp(ckt.nl, dc.solution, cond);
    AcSession fresh(ckt.nl, dc.solution, cond);
    for (double f : {10.0, 1e5, 1e8}) {
      const std::complex<double> h_fresh = fresh.node_voltage(f, ckt.out);
      const std::complex<double> h_reused = reused.node_voltage(f, ckt.out);
      EXPECT_EQ(h_fresh, h_reused) << "vg=" << vg << " f=" << f;
    }
  }
}

TEST(AcSession, UpdatedExcitationSolvesOnTheKeptFactorsBitwise) {
  CommonSource ckt;
  const Conditions cond;
  const DcResult dc = solve_dc(ckt.nl, cond);
  ASSERT_TRUE(dc.converged);
  const double f = 2e5;
  AcSession session(ckt.nl, dc.solution, cond);
  session.solve(f);
  // Drive the gate and the supply; -0.0 checks the branch row is rebuilt
  // as a stamp builds it (zeroed, then the source's value added).
  ckt.vin->set_ac_value({0.25, -0.5});
  ckt.vsupply->set_ac_value({-0.0, 1e-3});
  const std::uint64_t before = factorizations();
  session.update_excitation(*ckt.vin);
  session.update_excitation(*ckt.vsupply);
  const VectorC kept = session.solve(f);
  if (obs::kEnabled) {
    EXPECT_EQ(factorizations(), before);
  }
  AcSession fresh(ckt.nl, dc.solution, cond);
  expect_bitwise_equal(kept, fresh.solve(f));
  // At another frequency the updated excitation is solved on new factors.
  expect_bitwise_equal(session.solve(3.0 * f), fresh.solve(3.0 * f));
}

TEST(AcSession, StampOrAnotherFrequencyRefactors) {
  CommonSource ckt;
  const Conditions cond;
  const DcResult low = solve_dc(ckt.nl, cond);
  ASSERT_TRUE(low.converged);
  ckt.vin->set_dc_value(1.2);
  const DcResult high = solve_dc(ckt.nl, cond);
  ASSERT_TRUE(high.converged);
  const double f = 1e5;

  AcSession session(ckt.nl, low.solution, cond);
  session.solve(f);
  std::uint64_t before = factorizations();
  const VectorC repeated = session.solve(f);  // same frequency: kept
  if (obs::kEnabled) {
    EXPECT_EQ(factorizations(), before);
  }
  expect_bitwise_equal(repeated, AcSession(ckt.nl, low.solution, cond).solve(f));

  // A new stamp drops the factors even at the same frequency.
  session.stamp(ckt.nl, high.solution, cond);
  before = factorizations();
  const VectorC restamped = session.solve(f);
  if (obs::kEnabled) {
    EXPECT_EQ(factorizations(), before + 1);
  }
  AcSession fresh(ckt.nl, high.solution, cond);
  expect_bitwise_equal(restamped, fresh.solve(f));

  // Only the last frequency's factors are kept: going to 10 f and back
  // refactors twice in each session.
  before = factorizations();
  expect_bitwise_equal(session.solve(10.0 * f), fresh.solve(10.0 * f));
  expect_bitwise_equal(session.solve(f), fresh.solve(f));
  if (obs::kEnabled) {
    EXPECT_EQ(factorizations(), before + 4);
  }
}

TEST(AcSession, UpdateExcitationNeedsAStampedSourceOfTheSystem) {
  SinglePoleAmp amp(10.0, 1e3, 1e-9);
  AcSession session;
  EXPECT_THROW(session.update_excitation(*amp.vin), std::logic_error);
  session.stamp(amp.nl, amp.op, Conditions{});
  EXPECT_NO_THROW(session.update_excitation(*amp.vin));
  // A source whose branch lies past the stamped system's last row.
  Netlist wide;
  const NodeId a = wide.add_node("a");
  VoltageSource* last = nullptr;
  for (const char* name : {"V1", "V2", "V3", "V4", "V5"})
    last = &wide.add<VoltageSource>(name, a, kGround, 0.0);
  EXPECT_THROW(session.update_excitation(*last), std::invalid_argument);
}

TEST(AcSession, FreeFunctionsAreSessionBackedBitwise) {
  SinglePoleAmp amp(50.0, 2e3, 0.5e-9);
  const Conditions cond;
  AcSession session(amp.nl, amp.op, cond);
  const FrequencyResponse fr =
      sweep_ac(amp.nl, amp.op, cond, amp.out, 10.0, 1e7, 5);
  for (std::size_t i = 0; i < fr.frequency_hz.size(); ++i) {
    const double f = fr.frequency_hz[i];
    EXPECT_EQ(fr.response[i], session.node_voltage(f, amp.out)) << "f=" << f;
    const VectorC x = solve_ac(amp.nl, amp.op, cond, f);
    const VectorC& x_session = session.solve(f);
    for (std::size_t k = 0; k < x.size(); ++k) EXPECT_EQ(x[k], x_session[k]);
  }
}

TEST(AcSession, StampValidatesOperatingPointSize) {
  SinglePoleAmp amp(10.0, 1e3, 1e-9);
  AcSession session;
  EXPECT_FALSE(session.stamped());
  EXPECT_THROW(session.stamp(amp.nl, Vector(1), Conditions{}),
               std::invalid_argument);
  EXPECT_THROW(session.solve(1e3), std::logic_error);
  session.stamp(amp.nl, amp.op, Conditions{});
  EXPECT_TRUE(session.stamped());
  EXPECT_EQ(session.size(), amp.nl.system_size());
  EXPECT_EQ(session.node_voltage(1e3, kGround), std::complex<double>(0.0, 0.0));
}

TEST(MeasureGainBandwidth, PinsSinglePoleAnalyticValues) {
  // H(f) = A / (1 + j f/fc): A0 = 20 log10 A, |H| = 1 at
  // f = fc sqrt(A^2 - 1), phase there is -atan(f/fc).
  const double gain = 100.0;
  SinglePoleAmp amp(gain, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  ASSERT_TRUE(gb.ft_found);
  EXPECT_NEAR(gb.a0_db, 20.0 * std::log10(gain), 1e-6);
  const double ft_exact = amp.fc * std::sqrt(gain * gain - 1.0);
  // The refinement terminates at a 0.05% bracket, so 0.1% is a real bound.
  EXPECT_NEAR(gb.ft_hz, ft_exact, 1e-3 * ft_exact);
  const double pm_exact =
      180.0 - std::atan(gb.ft_hz / amp.fc) * 180.0 / std::numbers::pi;
  EXPECT_NEAR(gb.phase_margin_deg, pm_exact, 0.05);
}

TEST(MeasureGainBandwidth, SeededBracketAgreesWithColdScan) {
  const double gain = 320.0;
  SinglePoleAmp amp(gain, 5e3, 0.2e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth cold =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  ASSERT_TRUE(cold.ft_found);
  FtBracket bracket{cold.ft_hz / 1.6, cold.ft_hz * 1.6};
  const GainBandwidth seeded =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9, &bracket);
  ASSERT_TRUE(seeded.ft_found);
  // Different bracketing paths: both land within the refinement tolerance.
  EXPECT_NEAR(seeded.ft_hz, cold.ft_hz, 2e-3 * cold.ft_hz);
  EXPECT_EQ(seeded.a0_db, cold.a0_db);
  EXPECT_NEAR(seeded.phase_margin_deg, cold.phase_margin_deg, 0.1);
}

TEST(MeasureGainBandwidth, StaleSeedFallsBackToScan) {
  const double gain = 100.0;
  SinglePoleAmp amp(gain, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  // A bracket that no longer contains the crossing (both ends below it).
  FtBracket stale{10.0, 100.0};
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9, &stale);
  ASSERT_TRUE(gb.ft_found);
  const double ft_exact = amp.fc * std::sqrt(gain * gain - 1.0);
  EXPECT_NEAR(gb.ft_hz, ft_exact, 1e-3 * ft_exact);
}

TEST(MeasureGainBandwidth, NetlistOverloadMatchesSessionBitwise) {
  CommonSource ckt;
  const Conditions cond;
  const DcResult dc = solve_dc(ckt.nl, cond);
  ASSERT_TRUE(dc.converged);
  AcSession session(ckt.nl, dc.solution, cond);
  const GainBandwidth via_session =
      measure_gain_bandwidth(session, ckt.out, 1.0, 10e9);
  const GainBandwidth via_netlist =
      measure_gain_bandwidth(ckt.nl, dc.solution, cond, ckt.out, 1.0, 10e9);
  EXPECT_EQ(via_session.a0_db, via_netlist.a0_db);
  EXPECT_EQ(via_session.ft_found, via_netlist.ft_found);
  EXPECT_EQ(via_session.ft_hz, via_netlist.ft_hz);
  EXPECT_EQ(via_session.phase_margin_deg, via_netlist.phase_margin_deg);
}

TEST(MeasureGainBandwidth, BelowUnityGainReportsNoCrossing) {
  SinglePoleAmp amp(0.5, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  EXPECT_FALSE(gb.ft_found);
  EXPECT_EQ(gb.ft_hz, 0.0);
  EXPECT_NEAR(gb.a0_db, 20.0 * std::log10(0.5), 1e-6);
}

}  // namespace
}  // namespace mayo::sim
