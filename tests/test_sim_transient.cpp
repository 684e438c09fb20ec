#include "sim/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
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
  // A stop node outside the netlist, or a stop level that is not finite.
  for (const NodeId node : {NodeId{-1}, NodeId{a + 1}}) {
    options.stop_node = node;
    EXPECT_THROW(solve_transient(nl, ok, Conditions{}, options),
                 std::invalid_argument);
  }
  options.stop_node = a;
  options.stop_level = std::nan("");
  EXPECT_THROW(solve_transient(nl, ok, Conditions{}, options),
               std::invalid_argument);
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

/// R = 1k and C (1 nF: tau = 1 us) driven by a source at v0 until t = 0,
/// then by the waveform the test sets.
struct RcCircuit {
  explicit RcCircuit(std::function<double(double)> waveform, double v0 = 0.0,
                     double c = 1e-9) {
    const NodeId in = nl.add_node("in");
    out = nl.add_node("out");
    auto& vin = nl.add<VoltageSource>("Vin", in, kGround, v0);
    nl.add<Resistor>("R1", in, out, 1e3);
    nl.add<Capacitor>("C1", out, kGround, c);
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

/// The first `count` points of `full`, bit for bit.
void expect_prefix(const TranResult& run, const TranResult& full,
                   std::size_t count) {
  ASSERT_EQ(run.time.size(), count);
  ASSERT_LE(count, full.time.size());
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ(run.time[k], full.time[k]) << "point " << k;
    for (std::size_t i = 0; i < full.solutions[k].size(); ++i)
      EXPECT_EQ(run.solutions[k][i], full.solutions[k][i])
          << "point " << k << " unknown " << i;
  }
}

/// Index of the first point of `v`, from the second step on, that has
/// reached `level` (>= rising, <= falling); v.size() when none has.
std::size_t first_past(const std::vector<double>& v, double level,
                       bool rising) {
  for (std::size_t k = 2; k < v.size(); ++k)
    if (rising ? v[k] >= level : v[k] <= level) return k;
  return v.size();
}

TEST(TransientStop, EndsAtTheFirstPointPastTheLevelAsAPrefixOfTheFullRun) {
  // Rising: 0 -> 1 V.  Falling: 1 -> 0 V from a charged start.
  for (const bool rising : {true, false}) {
    RcCircuit rc(rising ? unit_step : +[](double) { return 0.0; },
                 rising ? 0.0 : 1.0);
    TranOptions options;
    options.dt = 10e-9;
    options.t_stop = 5e-6;
    const TranResult full = rc.run(options);
    ASSERT_TRUE(full.converged);
    EXPECT_FALSE(full.stopped);
    const double level = rising ? 0.9 : 0.1;
    const std::size_t last =
        first_past(full.node_voltage(rc.out), level, rising);
    ASSERT_LT(last, full.time.size() - 1) << "the full run never got there";

    options.stop_node = rc.out;
    options.stop_level = level;
    const TranResult stopped = rc.run(options);
    ASSERT_TRUE(stopped.converged);
    EXPECT_TRUE(stopped.stopped);
    expect_prefix(stopped, full, last + 1);
  }
}

TEST(TransientStop, NeverStopsBeforeTheSecondStep) {
  // tau = 1 ns against a 10 ns step: the first step already lands at
  // 10/11 of the swing, past the 0.5 V level.
  RcCircuit rc(unit_step, 0.0, 1e-12);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 1e-6;
  options.stop_node = rc.out;
  options.stop_level = 0.5;
  const TranResult r = rc.run(options);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.stopped);
  ASSERT_EQ(r.time.size(), 3u);
  EXPECT_GT(r.node_voltage(rc.out)[1], options.stop_level);
}

TEST(TransientStop, ALevelNeverReachedRunsToTStop) {
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 1e-6;
  const TranResult full = rc.run(options);
  options.stop_node = rc.out;
  options.stop_level = 1.5;  // beyond the 1 V swing
  const TranResult r = rc.run(options);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.time.back(), options.t_stop);
  expect_prefix(r, full, full.time.size());
}

TEST(TransientSeed, SeedOnAnotherGridLeavesTheRunUnseeded) {
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

TEST(TransientSeed, ASeedShorterThanTheRunSeedsExactlyItsPrefix) {
  // The seed is the same run stopped at 0.5 V, so it covers the first m
  // steps.  On the linear RC a step seeded from its own trajectory starts
  // at its solution and converges in one Newton iteration instead of two
  // or more, so the iteration counts show which steps were seeded.
  RcCircuit rc(unit_step);
  TranOptions options;
  options.dt = 10e-9;
  options.t_stop = 1e-6;
  const TranResult unseeded = rc.run(options);
  ASSERT_TRUE(unseeded.converged);
  TranOptions to_half = options;
  to_half.stop_node = rc.out;
  to_half.stop_level = 0.5;
  const TranResult prefix = rc.run(to_half);
  ASSERT_TRUE(prefix.stopped);
  const int prefix_steps = static_cast<int>(prefix.time.size()) - 1;
  const int all_steps = static_cast<int>(unseeded.time.size()) - 1;
  ASSERT_LT(prefix_steps, all_steps);

  options.seed = &unseeded;
  EXPECT_EQ(rc.run(options).newton_iterations, all_steps);

  const obs::Counters& c = obs::registry().counters;
  const std::uint64_t resets = c.tran_seed_resets.value();
  options.seed = &prefix;
  const TranResult seeded = rc.run(options);
  ASSERT_TRUE(seeded.converged);
  // One iteration per seeded step, then the unseeded run's own tail.
  EXPECT_EQ(seeded.newton_iterations,
            prefix_steps +
                (unseeded.newton_iterations - prefix.newton_iterations));
  EXPECT_EQ(c.tran_seed_resets.value(), resets);  // no reset, none counted
  expect_prefix(seeded, unseeded, unseeded.time.size());
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
