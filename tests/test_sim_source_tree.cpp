// The source-tree elimination of the MNA solves (sim/source_tree.hpp)
// against dense solves of the whole stamped system: LinearSystem (the DC
// and transient Newton steps), solve_dc with its continuation ladder,
// solve_transient and AcSession, on netlists with grounded sources, a
// source chained off a fixed node, a floating source, a VCVS, an
// inductor, AC drive on an eliminated source, and no sources at all.
#include "sim/source_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "circuit/devices.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stamp.hpp"
#include "linalg/lu.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/solver.hpp"
#include "sim/transient.hpp"

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::CurrentSource;
using circuit::DcStamp;
using circuit::Diode;
using circuit::Inductor;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::Vcvs;
using circuit::VoltageSource;
using linalg::Matrixc;
using linalg::Matrixd;
using linalg::Vector;
using linalg::VectorC;

/// Every kind of unknown the tree treats differently: Vbp2 is declared
/// before the Vdd it hangs off (the tree is built over several passes),
/// Vinp is grounded and AC-driven, Vinn floats between inn and fb, E1 and
/// L1 keep their branches free, and D1 makes the DC solve nonlinear.
Netlist make_rich() {
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  const NodeId bp2 = nl.add_node("bp2");
  const NodeId inp = nl.add_node("inp");
  const NodeId inn = nl.add_node("inn");
  const NodeId fb = nl.add_node("fb");
  const NodeId a = nl.add_node("a");
  const NodeId amp = nl.add_node("amp");
  const NodeId lx = nl.add_node("lx");
  nl.add<VoltageSource>("Vbp2", vdd, bp2, 0.8);
  nl.add<VoltageSource>("Vdd", vdd, kGround, 3.0);
  nl.add<VoltageSource>("Vinp", inp, kGround, 1.2).set_ac_value({1.0, 0.0});
  nl.add<VoltageSource>("Vinn", inn, fb, 0.1).set_ac_value({-0.5, 0.0});
  nl.add<Resistor>("Rfb", fb, kGround, 2e3);
  nl.add<Resistor>("Rin", inp, inn, 1e3);
  nl.add<Resistor>("Rbp", bp2, a, 5e3);
  nl.add<Diode>("D1", a, kGround, 1e-14);
  nl.add<CurrentSource>("I1", vdd, a, 20e-6);
  nl.add<Capacitor>("Ca", a, inn, 1e-12);
  nl.add<Capacitor>("Cdd", vdd, a, 2e-12);
  nl.add<Vcvs>("E1", amp, kGround, inp, inn, 4.0);
  nl.add<Inductor>("L1", amp, lx, 1e-6);
  nl.add<Resistor>("Rl", lx, kGround, 100.0);
  nl.add<Capacitor>("Cl", lx, kGround, 5e-12);
  return nl;
}

/// No voltage source: the tree is empty and the free block is the whole
/// system.
Netlist make_sourceless() {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  nl.add<CurrentSource>("I1", kGround, a, 1e-3);
  nl.add<Resistor>("R1", a, b, 1e3);
  nl.add<Diode>("D1", b, kGround, 1e-14);
  nl.add<Capacitor>("C1", a, kGround, 1e-12);
  nl.add<Inductor>("L1", b, kGround, 1e-6);
  return nl;
}

/// A 1 V step into an RC-LC ladder off a grounded source, for the
/// transient.
Netlist make_ladder(VoltageSource*& drive) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  const NodeId out = nl.add_node("out");
  const NodeId vdd = nl.add_node("vdd");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 2.0);
  drive = &nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<Capacitor>("C1", mid, kGround, 1e-9);
  nl.add<Inductor>("L1", mid, out, 1e-4);
  nl.add<Resistor>("R2", out, vdd, 2e3);
  nl.add<Capacitor>("C2", out, kGround, 5e-10);
  nl.add<Diode>("D1", out, kGround, 1e-14);
  return nl;
}

/// |x_i - ref_i| <= 1e-12 * max(|ref_i|, 1e-3 * (largest |ref| of its
/// kind)), node voltages and branch currents taken as separate kinds, so
/// every entry agrees to 1e-12 of its own size unless it is a thousand
/// times below the largest of its kind.
template <typename V>
void expect_agree(const V& x, const V& ref, std::size_t num_nodes,
                  const std::string& what) {
  ASSERT_EQ(x.size(), ref.size()) << what;
  const std::size_t node_unknowns = num_nodes - 1;
  double largest[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < ref.size(); ++i) {
    double& l = largest[i < node_unknowns ? 0 : 1];
    l = std::max(l, std::abs(ref[i]));
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale =
        std::max(std::abs(ref[i]), 1e-3 * largest[i < node_unknowns ? 0 : 1]);
    EXPECT_LE(std::abs(x[i] - ref[i]), 1e-12 * scale)
        << what << ": unknown " << i << " reads " << x[i] << " against "
        << ref[i];
  }
}

/// Stamps the DC Jacobian of `nl` at `x`, with a gmin shunt on every node,
/// into `target` and returns the residual.
Vector stamp_dc_into(const Netlist& nl, const Vector& x, double gmin,
                     linalg::SystemMatrix& target) {
  Vector residual(nl.system_size());
  const Conditions conditions;
  DcStamp stamp(x, target, residual, nl.num_nodes(), conditions);
  for (const auto& device : nl) device->stamp_dc(stamp);
  for (std::size_t k = 0; k + 1 < nl.num_nodes(); ++k) {
    target.add(static_cast<int>(k), static_cast<int>(k), gmin);
    residual[k] += gmin * x[k];
  }
  return residual;
}

/// An iterate with every unknown nonzero, so every coupling is exercised.
Vector probe_point(std::size_t n) {
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.3 + 0.17 * static_cast<double>(i % 7) - 0.05 * static_cast<double>(i);
  return x;
}

/// Solves one stamped DC Newton system through `system` and densely; a
/// null netlist leaves `system` without one.
void compare_linear_solve(const Netlist& nl, const Netlist* attached,
                          const std::string& what, bool expect_bitwise) {
  const std::size_t n = nl.system_size();
  const Vector x = probe_point(n);
  LinearSystem system;
  system.set_netlist(attached);
  const Vector residual = stamp_dc_into(nl, x, 1e-12, system.begin(n));
  Matrixd dense(n, n);
  linalg::SystemMatrix dense_target;
  dense_target.bind_dense(dense);
  stamp_dc_into(nl, x, 1e-12, dense_target);
  system.factor();
  Vector reduced(n);
  system.solve_into(residual.data(), reduced.data());
  Vector full(n);
  linalg::Lud(dense).solve_into(residual.data(), full.data());
  if (expect_bitwise) {
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(reduced[i], full[i]) << what << ": unknown " << i;
  } else {
    expect_agree(reduced, full, nl.num_nodes(), what);
  }
}

TEST(SourceTree, PartitionsTheOpampStyleSources) {
  const Netlist nl = make_rich();
  SourceTree tree;
  tree.build(nl);
  // 8 nodes and 6 branches; Vdd, Vbp2 and Vinp fix vdd, bp2 and inp and
  // leave with their currents.
  EXPECT_EQ(tree.size(), 14u);
  EXPECT_EQ(tree.free_size(), 14u - 2u * 3u);

  const Netlist sourceless = make_sourceless();
  tree.build(sourceless);
  EXPECT_EQ(tree.free_size(), sourceless.system_size());
}

TEST(SourceTree, LinearSolveMatchesTheWholeDenseSystem) {
  const Netlist nl = make_rich();
  compare_linear_solve(nl, &nl, "rich", false);
}

TEST(SourceTree, NoEliminableSourceSolvesBitwiseAsTheWholeSystem) {
  const Netlist sourceless = make_sourceless();
  compare_linear_solve(sourceless, &sourceless, "sourceless", true);
  // Without a netlist the whole system is free as well.
  const Netlist rich = make_rich();
  compare_linear_solve(rich, nullptr, "rich without its netlist", true);
}

// -- solve_dc against a dense Newton with the same continuation ladder --

/// dc.cpp's damped Newton loop on the whole matrix.
bool dense_newton(Netlist& nl, const DcOptions& options, double gmin,
                  Vector& x, int& iterations) {
  const std::size_t n = nl.system_size();
  Vector step(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++iterations;
    Matrixd jacobian(n, n);
    linalg::SystemMatrix target;
    target.bind_dense(jacobian);
    const Vector residual = stamp_dc_into(nl, x, gmin, target);
    linalg::Lud lu;
    try {
      lu = linalg::Lud(jacobian);
    } catch (const linalg::SingularMatrixError&) {
      return false;
    }
    lu.solve_into(residual.data(), step.data());
    double scale = 1.0;
    for (std::size_t k = 0; k + 1 < nl.num_nodes(); ++k) {
      const double mag = std::abs(step[k]);
      if (mag > options.max_step_v) scale = std::min(scale, options.max_step_v / mag);
    }
    double max_dv = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double delta = -scale * step[k];
      x[k] += delta;
      if (k + 1 < nl.num_nodes()) max_dv = std::max(max_dv, std::abs(delta));
    }
    if (max_dv < kVntol && residual.max_abs() < kAbstol &&
        scale == 1.0)
      return true;
  }
  return false;
}

/// dc.cpp's ladder (plain Newton, gmin stepping, source stepping) on
/// dense_newton.
DcResult dense_solve_dc(Netlist& nl, const DcOptions& options,
                        const Vector* initial) {
  DcResult result;
  result.solution = initial != nullptr ? *initial : Vector(nl.system_size());
  if (dense_newton(nl, options, kGminFloor, result.solution,
                   result.newton_iterations)) {
    result.converged = true;
    return result;
  }
  if (options.allow_gmin_stepping) {
    Vector x(nl.system_size());
    bool ok = true;
    for (double gmin = 1e-2; gmin >= kGminFloor / 2.0; gmin *= 0.01) {
      ++result.continuation_steps;
      if (!dense_newton(nl, options, std::max(gmin, kGminFloor), x,
                        result.newton_iterations)) {
        ok = false;
        break;
      }
    }
    if (ok && dense_newton(nl, options, kGminFloor, x,
                           result.newton_iterations)) {
      result.solution = x;
      result.converged = true;
      return result;
    }
  }
  if (options.allow_source_stepping) {
    std::vector<std::pair<VoltageSource*, double>> vs;
    std::vector<std::pair<CurrentSource*, double>> is;
    for (std::size_t i = 0; i < nl.num_devices(); ++i) {
      if (auto* v = dynamic_cast<VoltageSource*>(&nl.device(i)))
        vs.emplace_back(v, v->dc_value());
      else if (auto* c = dynamic_cast<CurrentSource*>(&nl.device(i)))
        is.emplace_back(c, c->dc_value());
    }
    const auto apply = [&](double factor) {
      for (auto& [v, value] : vs) v->set_dc_value(factor * value);
      for (auto& [c, value] : is) c->set_dc_value(factor * value);
    };
    Vector x(nl.system_size());
    bool ok = true;
    for (double factor : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      ++result.continuation_steps;
      apply(factor);
      if (!dense_newton(nl, options, kGminFloor, x,
                        result.newton_iterations)) {
        ok = false;
        break;
      }
    }
    apply(1.0);
    if (ok) {
      result.solution = x;
      result.converged = true;
    }
  }
  return result;
}

void compare_solve_dc(Netlist& nl, const DcOptions& options,
                      const Vector* initial, const std::string& what,
                      bool expect_continuation) {
  const DcResult reduced = solve_dc(nl, Conditions{}, options, initial);
  const DcResult dense = dense_solve_dc(nl, options, initial);
  ASSERT_TRUE(dense.converged) << what;
  ASSERT_TRUE(reduced.converged) << what;
  EXPECT_EQ(reduced.continuation_steps, dense.continuation_steps) << what;
  EXPECT_EQ(reduced.continuation_steps > 0, expect_continuation) << what;
  EXPECT_EQ(reduced.newton_iterations, dense.newton_iterations) << what;
  expect_agree(reduced.solution, dense.solution, nl.num_nodes(), what);
}

TEST(SourceTree, SolveDcMatchesADenseNewtonOnEveryRung) {
  for (const bool sourceless : {false, true}) {
    Netlist nl = sourceless ? make_sourceless() : make_rich();
    const std::string name = sourceless ? "sourceless" : "rich";
    DcOptions options;
    options.audit = audit::Enforce::kOff;
    compare_solve_dc(nl, options, nullptr, name + " plain", false);

    // A seed 100 V away cannot converge in 20 damped iterations, so the
    // gmin ladder (from zero) takes over.
    options.max_iterations = 20;
    const Vector far(nl.system_size(), 100.0);
    compare_solve_dc(nl, options, &far, name + " gmin stepping", true);

    // Without gmin stepping, source stepping takes over.
    options.allow_gmin_stepping = false;
    compare_solve_dc(nl, options, &far, name + " source stepping", true);
  }
}

// -- solve_transient against a dense backward-Euler run --

TEST(SourceTree, SolveTransientMatchesADenseBackwardEulerRun) {
  VoltageSource* drive = nullptr;
  Netlist nl = make_ladder(drive);
  DcOptions dc;
  dc.audit = audit::Enforce::kOff;
  const DcResult op = solve_dc(nl, Conditions{}, dc);
  ASSERT_TRUE(op.converged);
  drive->set_waveform([](double t) { return t > 0.0 ? 1.0 : 0.0; });
  TranOptions options;
  options.t_stop = 2e-6;
  options.dt = 2e-8;
  options.newton = dc;
  const TranResult reduced =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(reduced.converged);

  // The same grid, each step a damped Newton solve on the whole matrix
  // (transient.cpp's loop: no retries are needed on this ladder).
  const std::size_t n = nl.system_size();
  Vector x_prev = op.solution;
  ASSERT_EQ(reduced.solutions.size(), 101u);
  for (std::size_t k = 1; k < reduced.solutions.size(); ++k) {
    const double t = reduced.time[k];
    const double h = t - reduced.time[k - 1];
    Vector x = x_prev;
    Vector step(n);
    bool converged = false;
    for (int iter = 0; iter < dc.max_iterations && !converged; ++iter) {
      Matrixd jacobian(n, n);
      linalg::SystemMatrix target;
      target.bind_dense(jacobian);
      Vector residual(n);
      const Conditions conditions;
      circuit::TranStamp stamp(x, target, residual, nl.num_nodes(), conditions,
                               x_prev, h, t);
      for (const auto& device : nl) device->stamp_tran(stamp);
      for (std::size_t i = 0; i + 1 < nl.num_nodes(); ++i) {
        target.add(static_cast<int>(i), static_cast<int>(i), kGminFloor);
        residual[i] += kGminFloor * x[i];
      }
      linalg::Lud(jacobian).solve_into(residual.data(), step.data());
      double scale = 1.0;
      for (std::size_t i = 0; i + 1 < nl.num_nodes(); ++i) {
        const double mag = std::abs(step[i]);
        if (mag > dc.max_step_v) scale = std::min(scale, dc.max_step_v / mag);
      }
      double max_dv = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = -scale * step[i];
        x[i] += delta;
        if (i + 1 < nl.num_nodes()) max_dv = std::max(max_dv, std::abs(delta));
      }
      converged = max_dv < kVntol * 10.0 && residual.max_abs() < kAbstol * 10.0;
    }
    ASSERT_TRUE(converged) << "step " << k;
    expect_agree(reduced.solutions[k], x, nl.num_nodes(),
                 "step " + std::to_string(k));
    x_prev = x;
  }
}

// -- AcSession against the whole complex system --

VectorC dense_ac(const Netlist& nl, const Vector& op, double frequency_hz) {
  const std::size_t n = nl.system_size();
  Matrixd g(n, n);
  Matrixd c(n, n);
  linalg::SystemMatrix target;
  target.bind_dense(g, &c);
  VectorC rhs(n);
  const Conditions conditions;
  circuit::AcStamp stamp(op, target, rhs, nl.num_nodes(), conditions);
  for (const auto& device : nl) device->stamp_ac(stamp);
  for (std::size_t k = 0; k + 1 < nl.num_nodes(); ++k)
    target.add(static_cast<int>(k), static_cast<int>(k), 1e-12);
  const double omega = 2.0 * std::numbers::pi * frequency_hz;
  Matrixc a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = std::complex<double>(g(i, j), omega * c(i, j));
  VectorC x(n);
  linalg::Luc(a).solve_into(rhs.data(), x.data());
  return x;
}

void compare_ac(const Netlist& nl, const Vector& op, const std::string& what,
                bool expect_bitwise) {
  AcSession session;
  session.set_audit(audit::Enforce::kOff);
  session.stamp(nl, op, Conditions{});
  for (const double f : {1.0, 1e3, 1e6, 3e8}) {
    const VectorC reduced = session.solve(f);
    const VectorC dense = dense_ac(nl, op, f);
    const std::string at = what + " at " + std::to_string(f) + " Hz";
    if (expect_bitwise) {
      for (std::size_t i = 0; i < dense.size(); ++i)
        EXPECT_EQ(reduced[i], dense[i]) << at << ": unknown " << i;
    } else {
      expect_agree(reduced, dense, nl.num_nodes(), at);
    }
  }
}

TEST(SourceTree, AcSolveMatchesTheWholeComplexSystem) {
  Netlist nl = make_rich();
  DcOptions dc;
  dc.audit = audit::Enforce::kOff;
  const DcResult op = solve_dc(nl, Conditions{}, dc);
  ASSERT_TRUE(op.converged);
  // Vinp, an eliminated source, and Vinn, a free one, both drive.
  compare_ac(nl, op.solution, "rich", false);

  Netlist sourceless = make_sourceless();
  const DcResult op2 = solve_dc(sourceless, Conditions{}, dc);
  ASSERT_TRUE(op2.converged);
  auto& is = dynamic_cast<CurrentSource&>(sourceless.device("I1"));
  is.set_ac_value({1e-3, 0.0});
  compare_ac(sourceless, op2.solution, "sourceless", true);
}

TEST(SourceTree, ExcitationOfAnEliminatedSourceReusesTheFactors) {
  Netlist nl = make_rich();
  DcOptions dc;
  dc.audit = audit::Enforce::kOff;
  const DcResult op = solve_dc(nl, Conditions{}, dc);
  ASSERT_TRUE(op.converged);
  AcSession session;
  session.set_audit(audit::Enforce::kOff);
  session.stamp(nl, op.solution, Conditions{});
  session.solve(1e3);
  auto& vinp = dynamic_cast<VoltageSource&>(nl.device("Vinp"));
  vinp.set_ac_value({0.25, -0.5});
  session.update_excitation(vinp);
  const VectorC reused = session.solve(1e3);
  expect_agree(reused, dense_ac(nl, op.solution, 1e3), nl.num_nodes(),
               "updated Vinp drive");
}

// -- singular systems and reuse --

TEST(SourceTree, RedundantSourceLoopStillNamesABranch) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<VoltageSource>("V1", a, kGround, 1.0);
  nl.add<Resistor>("R1", a, kGround, 1e3);
  nl.add<VoltageSource>("V2", a, kGround, 1.0);
  LinearSystem system;
  system.set_netlist(&nl);
  stamp_dc_into(nl, Vector(nl.system_size()), 1e-12,
                system.begin(nl.system_size()));
  try {
    system.factor();
    FAIL() << "expected a singular system";
  } catch (const linalg::SingularMatrixError& e) {
    EXPECT_NE(std::string(e.what()).find("branch current of device 'V2'"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.pivot_index(), 2u);  // V2's branch: [a, V1, V2]
  }
}

TEST(SourceTree, ReusedWorkspacesRepartitionEachNetlist) {
  // Two netlists of one size built at the same address: in the first
  // Vs fixes node a, in the second it floats between a and b.
  std::optional<Netlist> slot;
  const auto build = [&slot](bool grounded) {
    slot.reset();
    Netlist& nl = slot.emplace();
    const NodeId a = nl.add_node("a");
    const NodeId b = nl.add_node("b");
    nl.add<VoltageSource>("Vs", a, grounded ? kGround : b, 1.5)
        .set_ac_value({1.0, 0.0});
    nl.add<Resistor>("R1", a, b, 1e3);
    nl.add<Resistor>("R2", b, kGround, 2e3);
    nl.add<Diode>("D1", a, kGround, 1e-14);
    nl.add<Capacitor>("C1", b, kGround, 1e-9);
    return &nl;
  };
  LinearSystem workspace;
  AcSession session;
  session.set_audit(audit::Enforce::kOff);
  DcOptions options;
  options.audit = audit::Enforce::kOff;
  options.workspace = &workspace;
  for (const bool grounded : {true, false, true}) {
    Netlist& nl = *build(grounded);
    const std::string what = grounded ? "grounded" : "floating";
    const DcResult reduced = solve_dc(nl, Conditions{}, options);
    DcOptions fresh = options;
    fresh.workspace = nullptr;
    const DcResult dense = dense_solve_dc(nl, fresh, nullptr);
    ASSERT_TRUE(reduced.converged && dense.converged) << what;
    expect_agree(reduced.solution, dense.solution, nl.num_nodes(), what);
    session.stamp(nl, reduced.solution, Conditions{});
    expect_agree(session.solve(1e4), dense_ac(nl, reduced.solution, 1e4),
                 nl.num_nodes(), what + " AC");
  }
}

}  // namespace
}  // namespace mayo::sim
