#include "sim/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "sim/dc.hpp"

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;
using linalg::Vector;

TEST(Transient, RcStepResponse) {
  // R = 1k, C = 1n, tau = 1 us; step 0 -> 1 V at t = 0.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);

  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);

  vin.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.t_stop = 5e-6;
  options.dt = 5e-9;  // tau/200 keeps BE's first-order error ~ 0.25%
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);

  const std::vector<double> v = result.node_voltage(out);
  // Compare with 1 - exp(-t/tau) at a few times.
  for (std::size_t k = 0; k < result.time.size(); k += 100) {
    const double expected = 1.0 - std::exp(-result.time[k] / 1e-6);
    EXPECT_NEAR(v[k], expected, 0.01) << "t=" << result.time[k];
  }
  // Fully settled at 5 tau.
  EXPECT_NEAR(v.back(), 1.0, 0.01);
}

TEST(Transient, InitialStateIsFirstSample) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<VoltageSource>("V1", a, kGround, 2.0);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  TranOptions options;
  options.t_stop = 1e-8;
  options.dt = 1e-9;
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.time.front(), 0.0);
  EXPECT_NEAR(result.node_voltage(a).front(), 2.0, 1e-9);
}

TEST(Transient, ValidatesArguments) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<Resistor>("R1", a, kGround, 1.0);
  Vector wrong(5);
  TranOptions options;
  EXPECT_THROW(solve_transient(nl, wrong, Conditions{}, options),
               std::invalid_argument);
  Vector ok(nl.system_size());
  options.dt = 0.0;
  EXPECT_THROW(solve_transient(nl, ok, Conditions{}, options),
               std::invalid_argument);
  options.dt = 1e-9;
  for (const double max_dt : {-1e-9, std::nan("")}) {
    options.max_dt = max_dt;
    EXPECT_THROW(solve_transient(nl, ok, Conditions{}, options),
                 std::invalid_argument);
  }
}

TEST(Transient, RcDischargeConservesMonotonicity) {
  // Start charged via DC, then source drops to 0: v decays monotonically.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 1.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  vin.set_waveform([](double) { return 0.0; });
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = 10e-9;
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);
  const std::vector<double> v = result.node_voltage(out);
  for (std::size_t k = 1; k < v.size(); ++k) EXPECT_LE(v[k], v[k - 1] + 1e-12);
}

TEST(Transient, GoodSeedTrajectoryLeavesSolutionUnchanged) {
  // A delta-seeded warm start from the run's own trajectory must not
  // change a single bit: the seed only moves the Newton starting point.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  const DcResult op = solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  vin.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.t_stop = 1e-6;
  options.dt = 10e-9;
  const TranResult reference =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(reference.converged);

  options.seed = &reference;
  const TranResult seeded =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(seeded.converged);
  ASSERT_EQ(seeded.solutions.size(), reference.solutions.size());
  for (std::size_t k = 0; k < reference.solutions.size(); ++k)
    for (std::size_t i = 0; i < reference.solutions[k].size(); ++i)
      EXPECT_EQ(seeded.solutions[k][i], reference.solutions[k][i]);
}

TEST(Transient, BadSeedTrajectoryIsDroppedAfterFirstFailure) {
  // Regression: a seed trajectory whose increments throw Newton far off
  // course used to be re-applied at *every* step -- each one burned
  // max_iterations and fell into the half-step retry, so the "warm
  // started" run integrated a different (half-stepped) trajectory than
  // the unseeded run, or died outright.  A seed that bad once stays bad:
  // the fix drops it at the first seeded non-convergence and re-runs the
  // step cold, which makes the whole run bitwise identical to a
  // never-seeded one.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  const DcResult op = solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  vin.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });

  TranOptions options;
  options.t_stop = 1e-6;
  options.dt = 10e-9;
  // Few Newton iterations: the damping clamp (max_step_v per iteration)
  // then cannot walk back a grossly wrong start within one step.
  options.newton.max_iterations = 8;
  const TranResult reference =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(reference.converged);

  // Poisonous seed on the run's own grid: +100 V increment per step on
  // every unknown.
  TranResult bad_seed;
  bad_seed.time = reference.time;
  bad_seed.solutions.resize(reference.solutions.size());
  for (std::size_t k = 0; k < bad_seed.solutions.size(); ++k) {
    bad_seed.solutions[k] = Vector(nl.system_size());
    bad_seed.solutions[k].fill(100.0 * static_cast<double>(k));
  }
  options.seed = &bad_seed;
  const TranResult seeded =
      solve_transient(nl, op.solution, Conditions{}, options);

  // The run recovers and reproduces the unseeded trajectory exactly.
  ASSERT_TRUE(seeded.converged);
  ASSERT_EQ(seeded.solutions.size(), reference.solutions.size());
  for (std::size_t k = 0; k < reference.solutions.size(); ++k)
    for (std::size_t i = 0; i < reference.solutions[k].size(); ++i)
      EXPECT_EQ(seeded.solutions[k][i], reference.solutions[k][i])
          << "step " << k << " unknown " << i;
  // Exactly one seeded attempt was wasted (it burned max_iterations)
  // before the seed was dropped; every later step ran cold.
  EXPECT_EQ(seeded.newton_iterations,
            reference.newton_iterations + options.newton.max_iterations);
}

/// R = 1k, C = 1n (tau = 1 us) driven by a source whose waveform the test
/// sets; the step-growth tests integrate it well past its settling.
struct RcCircuit {
  explicit RcCircuit(std::function<double(double)> waveform) {
    const NodeId in = nl.add_node("in");
    out = nl.add_node("out");
    auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    nl.add<Resistor>("R1", in, out, 1e3);
    nl.add<Capacitor>("C1", out, kGround, 1e-9);
    const DcResult dc = solve_dc(nl, Conditions{});
    EXPECT_TRUE(dc.converged);
    op = dc.solution;
    vin.set_waveform(std::move(waveform));
  }
  TranResult run(const TranOptions& options) {
    return solve_transient(nl, op, Conditions{}, options);
  }
  Netlist nl;
  NodeId out = kGround;
  Vector op;
};

/// 0 -> 1 V step at t = 0+.
double unit_step(double t) { return t > 0.0 ? 1.0 : 0.0; }

/// Base steps of dt between accepted times: every time must be exactly
/// k * dt, except a last one clipped at t_stop.
std::vector<long long> strides(const TranResult& r, const TranOptions& o) {
  std::vector<long long> out;
  long long k_prev = 0;
  for (std::size_t i = 1; i < r.time.size(); ++i) {
    const long long k = std::llround(r.time[i] / o.dt);
    if (!(i + 1 == r.time.size() && r.time[i] == o.t_stop)) {
      EXPECT_EQ(r.time[i], static_cast<double>(k) * o.dt) << "point " << i;
    }
    out.push_back(k - k_prev);
    k_prev = k;
  }
  return out;
}

TEST(TransientStepGrowth, TimesStayOnTheBaseGridAndNeverBelowDt) {
  // At rest until a 1 V step at 2 us: the flat start doubles the step up
  // to max_dt, the edge sends it back to dt, and the settling tail grows
  // it again as the truncation estimate allows.
  RcCircuit rc([](double t) { return t > 2e-6 ? 1.0 : 0.0; });
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 20.003e-6;  // not a multiple of dt: the last step clips
  options.max_dt = 1e-6;
  const TranResult r = rc.run(options);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.time.back(), options.t_stop);
  const std::vector<long long> k = strides(r, options);
  long long longest = 0;
  for (std::size_t i = 0; i + 1 < k.size(); ++i) {  // the last one clips
    EXPECT_GE(k[i], 1) << "step " << i;
    EXPECT_EQ(k[i] & (k[i] - 1), 0) << "step " << i << " is " << k[i];
    if (i > 0) {
      EXPECT_LE(k[i], 2 * k[i - 1]) << "step " << i;
    }
    EXPECT_LE(static_cast<double>(k[i]) * options.dt, options.max_dt);
    longest = std::max(longest, k[i]);
  }
  EXPECT_GE(k.back(), 1);
  EXPECT_GT(longest, 8);  // the settled tail did grow
}

TEST(TransientStepGrowth, MatchesTheFixedGridUntilItsFirstLongerStep) {
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 20e-6;
  const TranResult fixed = rc.run(options);
  options.max_dt = 1e-6;
  const TranResult grown = rc.run(options);
  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(grown.converged);
  std::size_t first_long = 1;
  while (first_long < grown.time.size() &&
         grown.time[first_long] == fixed.time[first_long])
    ++first_long;
  ASSERT_LT(first_long, grown.time.size()) << "the run never grew its step";
  EXPECT_GT(grown.time[first_long], fixed.time[first_long]);
  for (std::size_t k = 0; k < first_long; ++k)
    for (std::size_t i = 0; i < fixed.solutions[k].size(); ++i)
      EXPECT_EQ(grown.solutions[k][i], fixed.solutions[k][i])
          << "point " << k << " unknown " << i;
}

TEST(TransientStepGrowth, RcStepEndsWithinTheNewtonToleranceInFewerSteps) {
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 20e-6;
  const TranResult fixed = rc.run(options);
  options.max_dt = options.t_stop;
  const TranResult grown = rc.run(options);
  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(grown.converged);
  EXPECT_EQ(grown.time.back(), fixed.time.back());
  EXPECT_NEAR(grown.node_voltage(rc.out).back(),
              fixed.node_voltage(rc.out).back(), 10.0 * options.newton.vntol);
  EXPECT_LT(grown.time.size(), fixed.time.size());
}

TEST(TransientStepGrowth, SeedOnAnotherGridLeavesTheRunUnseeded) {
  // The seed shares every other time point with the run but never both
  // ends of a step, so no step may seed.  Its solutions are poisoned
  // (+100 V per point) so that any use would show.
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 1e-6;
  options.newton.max_iterations = 8;
  const TranResult unseeded = rc.run(options);
  ASSERT_TRUE(unseeded.converged);

  TranOptions coarse = options;
  coarse.dt = 2.0 * options.dt;
  TranResult seed = rc.run(coarse);
  ASSERT_TRUE(seed.converged);
  for (std::size_t k = 0; k < seed.solutions.size(); ++k)
    seed.solutions[k].fill(100.0 * static_cast<double>(k));
  options.seed = &seed;
  const TranResult seeded = rc.run(options);

  ASSERT_TRUE(seeded.converged);
  EXPECT_EQ(seeded.newton_iterations, unseeded.newton_iterations);
  ASSERT_EQ(seeded.time, unseeded.time);
  for (std::size_t k = 0; k < unseeded.solutions.size(); ++k)
    for (std::size_t i = 0; i < unseeded.solutions[k].size(); ++i)
      EXPECT_EQ(seeded.solutions[k][i], unseeded.solutions[k][i])
          << "point " << k << " unknown " << i;
}

TEST(TransientStepGrowth, FailedLongerStepRetriesAtTheBaseStep) {
  // At rest until a 5 V ramp over 1.5..1.6 us: the step grows to 64 dt
  // (640 ns) on the flat start, and the step from 1.28 us to 1.92 us
  // meets the whole 5 V edge, which the 0.4 V damping clamp cannot walk
  // in 8 Newton iterations.  Halving that step still meets the whole
  // edge; only the retry at dt (1.28 -> 1.29 us, still flat) converges.
  RcCircuit rc([](double t) {
    return std::clamp((t - 1.5e-6) / 100e-9, 0.0, 1.0) * 5.0;
  });
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 3e-6;
  options.newton.max_iterations = 8;
  ASSERT_TRUE(rc.run(options).converged);  // the fixed grid manages too
  options.max_dt = 640e-9;
  const TranResult r = rc.run(options);
  ASSERT_TRUE(r.converged);
  strides(r, options);  // every time on the k * dt grid
  const auto before =
      std::find(r.time.begin(), r.time.end(), 128.0 * options.dt);
  ASSERT_NE(before, r.time.end());
  ASSERT_NE(before + 1, r.time.end());
  EXPECT_EQ(*(before + 1), 129.0 * options.dt);
}

TEST(TransientStepGrowth, Bdf2RejectsStepGrowth) {
  // The growth rule estimates backward Euler's truncation error.
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 100e-9;
  options.method = TranMethod::kBdf2;
  options.max_dt = 2.0 * options.dt;
  EXPECT_THROW(rc.run(options), std::invalid_argument);
  options.max_dt = options.dt;  // no growth possible
  EXPECT_TRUE(rc.run(options).converged);
}

TEST(SlopeHelpers, MaxSlope) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, 2.0, 3.0, 2.5};
  EXPECT_DOUBLE_EQ(max_slope(t, v), 2.0);
  EXPECT_DOUBLE_EQ(max_negative_slope(t, v), 0.5);
}

TEST(SlopeHelpers, SizeMismatchThrows) {
  EXPECT_THROW(max_slope({0.0, 1.0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(max_negative_slope({0.0}, {0.0, 1.0}), std::invalid_argument);
}

TEST(SlopeHelpers, EmptyIsZero) {
  EXPECT_EQ(max_slope({}, {}), 0.0);
  EXPECT_EQ(max_negative_slope({0.0}, {1.0}), 0.0);
}

}  // namespace
}  // namespace mayo::sim

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;

/// Max |v(t) - analytic| over an RC step response for a given method/step.
double rc_step_error(TranMethod method, double dt) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);  // tau = 1 us
  const DcResult op = solve_dc(nl, Conditions{});
  vin.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = dt;
  options.method = method;
  const TranResult result = solve_transient(nl, op.solution, Conditions{}, options);
  if (!result.converged) return 1e9;
  const auto v = result.node_voltage(out);
  double worst = 0.0;
  // Skip the first few samples: the startup BE step dominates there.
  for (std::size_t k = 5; k < v.size(); ++k) {
    const double expected = 1.0 - std::exp(-result.time[k] / 1e-6);
    worst = std::max(worst, std::abs(v[k] - expected));
  }
  return worst;
}

TEST(TransientBdf2, MoreAccurateThanBackwardEuler) {
  const double be = rc_step_error(TranMethod::kBackwardEuler, 20e-9);
  const double bdf2 = rc_step_error(TranMethod::kBdf2, 20e-9);
  EXPECT_LT(bdf2, be / 3.0);
}

TEST(TransientBdf2, SecondOrderConvergence) {
  // Halving dt should cut the BDF2 error by ~4 (2nd order); BE by ~2.
  const double coarse = rc_step_error(TranMethod::kBdf2, 40e-9);
  const double fine = rc_step_error(TranMethod::kBdf2, 20e-9);
  EXPECT_GT(coarse / fine, 3.0);
  EXPECT_LT(coarse / fine, 6.0);
  const double be_coarse = rc_step_error(TranMethod::kBackwardEuler, 40e-9);
  const double be_fine = rc_step_error(TranMethod::kBackwardEuler, 20e-9);
  EXPECT_GT(be_coarse / be_fine, 1.6);
  EXPECT_LT(be_coarse / be_fine, 2.6);
}

TEST(TransientBdf2, InductorRlMatchesAnalytic) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<circuit::Inductor>("L1", mid, kGround, 1e-3);  // tau = 1 us
  const auto op = solve_dc(nl, Conditions{});
  v.set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.t_stop = 4e-6;
  options.dt = 20e-9;
  options.method = TranMethod::kBdf2;
  const auto result = solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(result.converged);
  const auto v_mid = result.node_voltage(mid);
  for (std::size_t k = 10; k < v_mid.size(); k += 40) {
    const double expected = std::exp(-result.time[k] / 1e-6);
    EXPECT_NEAR(v_mid[k], expected, 5e-3) << result.time[k];
  }
}

}  // namespace
}  // namespace mayo::sim
