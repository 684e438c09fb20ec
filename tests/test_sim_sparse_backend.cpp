// Dense/sparse solver-boundary equivalence and determinism, through the
// public engine APIs: forced-kSparse results must match forced-kDense
// within pinned tolerances on every engine (DC Newton, AC session,
// transient) and on the full opamp measurement chain; sparse results
// must be bitwise-identical run-to-run and across thread counts; and
// the symbolic analysis must run once per topology while probes grow
// (the sparse.symbolic / sparse.refactor / sparse.solve counters).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <thread>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "linalg/system_matrix.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/solver.hpp"
#include "sim/transient.hpp"
#include "spice/synthetic.hpp"

namespace mayo {
namespace {

linalg::SolverOptions dense_backend() {
  linalg::SolverOptions o;
  o.backend = linalg::SolverBackend::kDense;
  return o;
}

linalg::SolverOptions sparse_backend() {
  linalg::SolverOptions o;
  o.backend = linalg::SolverBackend::kSparse;
  return o;
}

sim::DcResult solve_mesh(const linalg::SolverOptions& solver) {
  circuit::Netlist mesh = spice::make_mos_mesh(8, 8);
  sim::DcOptions dc;
  dc.solver = solver;
  return sim::solve_dc(mesh, circuit::Conditions{}, dc);
}

TEST(SparseBackend, DcNewtonMatchesDenseOnMesh) {
  const sim::DcResult dense = solve_mesh(dense_backend());
  const sim::DcResult sparse = solve_mesh(sparse_backend());
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(sparse.converged);
  ASSERT_EQ(dense.solution.size(), sparse.solution.size());
  for (std::size_t i = 0; i < dense.solution.size(); ++i)
    EXPECT_NEAR(dense.solution[i], sparse.solution[i], 1e-8) << "entry " << i;
}

TEST(SparseBackend, DcNewtonMatchesDenseOnLadder) {
  circuit::Netlist ladder = spice::make_rc_ladder(100);
  sim::DcOptions dc;
  dc.solver = dense_backend();
  const sim::DcResult dense = sim::solve_dc(ladder, circuit::Conditions{}, dc);
  dc.solver = sparse_backend();
  const sim::DcResult sparse = sim::solve_dc(ladder, circuit::Conditions{}, dc);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(sparse.converged);
  for (std::size_t i = 0; i < dense.solution.size(); ++i)
    EXPECT_NEAR(dense.solution[i], sparse.solution[i], 1e-9) << "entry " << i;
}

TEST(SparseBackend, AcSweepMatchesDense) {
  circuit::Netlist ladder = spice::make_rc_ladder(100);
  const linalg::Vector op(ladder.system_size());
  sim::AcSession dense, sparse;
  dense.set_solver(dense_backend());
  sparse.set_solver(sparse_backend());
  dense.stamp(ladder, op, circuit::Conditions{});
  sparse.stamp(ladder, op, circuit::Conditions{});
  EXPECT_FALSE(dense.sparse_active());
  EXPECT_TRUE(sparse.sparse_active());
  for (double f = 1e2; f < 1e9; f *= 10.0) {
    const linalg::VectorC& xd = dense.solve(f);
    const linalg::VectorC& xs = sparse.solve(f);
    ASSERT_EQ(xd.size(), xs.size());
    for (std::size_t i = 0; i < xd.size(); ++i) {
      EXPECT_NEAR(xd[i].real(), xs[i].real(), 1e-9)
          << "f=" << f << " entry " << i;
      EXPECT_NEAR(xd[i].imag(), xs[i].imag(), 1e-9)
          << "f=" << f << " entry " << i;
    }
  }
}

TEST(SparseBackend, TransientMatchesDense) {
  circuit::Netlist ladder = spice::make_rc_ladder(80);
  sim::DcOptions dc;
  dc.solver = dense_backend();
  const sim::DcResult op = sim::solve_dc(ladder, circuit::Conditions{}, dc);
  ASSERT_TRUE(op.converged);
  sim::TranOptions tran;
  tran.t_stop = 2e-6;
  tran.dt = 1e-7;
  tran.newton.solver = dense_backend();
  const sim::TranResult dense =
      sim::solve_transient(ladder, op.solution, circuit::Conditions{}, tran);
  tran.newton.solver = sparse_backend();
  const sim::TranResult sparse =
      sim::solve_transient(ladder, op.solution, circuit::Conditions{}, tran);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(sparse.converged);
  ASSERT_EQ(dense.solutions.size(), sparse.solutions.size());
  for (std::size_t k = 0; k < dense.solutions.size(); ++k)
    for (std::size_t i = 0; i < dense.solutions[k].size(); ++i)
      EXPECT_NEAR(dense.solutions[k][i], sparse.solutions[k][i], 1e-8)
          << "step " << k << " entry " << i;
}

TEST(SparseBackend, FoldedCascodeMeasureMatchesDense) {
  // The full opamp measurement chain (DC + AC + transient benches) with
  // the sparse backend forced at opamp scale (n ~ 25, normally dense).
  // ft goes through the Ridders refinement with its 0.05% bracket
  // tolerance, so it gets a relative bound; everything else is pinned
  // tightly.
  circuits::FoldedCascode::Options dense_opts;
  dense_opts.solver = dense_backend();
  circuits::FoldedCascode dense_model(dense_opts);
  circuits::FoldedCascode::Options sparse_opts;
  sparse_opts.solver = sparse_backend();
  circuits::FoldedCascode sparse_model(sparse_opts);

  const linalg::Vector d = circuits::FoldedCascode::initial_design();
  const linalg::Vector s(circuits::FoldedCascodeStats::kCount);
  const linalg::Vector theta(
      circuits::FoldedCascode::make_problem().operating.nominal);
  const auto md = dense_model.measure(d, s, theta);
  const auto ms = sparse_model.measure(d, s, theta);
  ASSERT_TRUE(md.ac_valid && md.sr_valid);
  ASSERT_TRUE(ms.ac_valid && ms.sr_valid);
  EXPECT_NEAR(ms.a0_db, md.a0_db, 1e-6);
  EXPECT_NEAR(ms.cmrr_db, md.cmrr_db, 1e-5);
  EXPECT_NEAR(ms.power_mw, md.power_mw, 1e-9 * std::abs(md.power_mw));
  EXPECT_NEAR(ms.ft_mhz, md.ft_mhz, 2e-3 * md.ft_mhz);
  EXPECT_NEAR(ms.sr_v_per_us, md.sr_v_per_us, 1e-4 * std::abs(md.sr_v_per_us));
}

TEST(SparseBackend, SparseSolveIsBitwiseDeterministicRunToRun) {
  const sim::DcResult first = solve_mesh(sparse_backend());
  const sim::DcResult second = solve_mesh(sparse_backend());
  ASSERT_TRUE(first.converged);
  ASSERT_TRUE(second.converged);
  ASSERT_EQ(first.solution.size(), second.solution.size());
  for (std::size_t i = 0; i < first.solution.size(); ++i)
    EXPECT_EQ(first.solution[i], second.solution[i]) << "entry " << i;
  EXPECT_EQ(first.newton_iterations, second.newton_iterations);
}

TEST(SparseBackend, SparseSolveIsBitwiseDeterministicAcrossThreadCounts) {
  // Each worker owns its netlist and workspace (the boundary is not
  // thread-safe per instance, by contract); every thread count must
  // reproduce the serial result bit for bit.
  const sim::DcResult serial = solve_mesh(sparse_backend());
  ASSERT_TRUE(serial.converged);
  for (unsigned num_threads : {2u, 4u}) {
    std::vector<sim::DcResult> results(num_threads);
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t)
      workers.emplace_back(
          [&results, t] { results[t] = solve_mesh(sparse_backend()); });
    for (std::thread& w : workers) w.join();
    for (unsigned t = 0; t < num_threads; ++t) {
      ASSERT_TRUE(results[t].converged);
      ASSERT_EQ(results[t].solution.size(), serial.solution.size());
      for (std::size_t i = 0; i < serial.solution.size(); ++i)
        EXPECT_EQ(results[t].solution[i], serial.solution[i])
            << num_threads << " threads, worker " << t << ", entry " << i;
    }
  }
}

#if MAYO_OBS_ENABLED
TEST(SparseBackend, AcSymbolicRunsOncePerTopologyWhileProbesGrow) {
  obs::registry().counters.reset();
  circuit::Netlist ladder = spice::make_rc_ladder(100);
  const linalg::Vector op(ladder.system_size());
  sim::AcSession session;
  session.set_solver(sparse_backend());
  session.stamp(ladder, op, circuit::Conditions{});
  obs::Counters& tallies = obs::registry().counters;
  EXPECT_EQ(tallies.sparse_symbolic.value(), 1u);
  for (double f = 1e3; f < 1e8; f *= 10.0) session.solve(f);
  // Re-stamp the same topology (a new operating point / sample): the
  // pattern is unchanged, so the symbolic analysis must NOT rerun.
  session.stamp(ladder, op, circuit::Conditions{});
  for (double f = 1e3; f < 1e6; f *= 10.0) session.solve(f);
  EXPECT_EQ(tallies.sparse_symbolic.value(), 1u);
  EXPECT_EQ(tallies.sparse_refactor.value(), 8u);  // 5 + 3 probes
  EXPECT_EQ(tallies.sparse_solve.value(), 8u);
}

TEST(SparseBackend, DcWorkspaceSymbolicRunsOnceAcrossSolves) {
  obs::registry().counters.reset();
  circuit::Netlist mesh = spice::make_mos_mesh(8, 8);
  sim::DcOptions dc;
  dc.solver = sparse_backend();
  sim::LinearSystem workspace;
  dc.workspace = &workspace;
  const sim::DcResult first = sim::solve_dc(mesh, circuit::Conditions{}, dc);
  const sim::DcResult second = sim::solve_dc(mesh, circuit::Conditions{}, dc);
  ASSERT_TRUE(first.converged);
  ASSERT_TRUE(second.converged);
  obs::Counters& tallies = obs::registry().counters;
  // One topology, many Newton iterations: the analysis amortizes while
  // the numeric work scales with the iteration count.
  EXPECT_EQ(tallies.sparse_symbolic.value(), 1u);
  EXPECT_GE(tallies.sparse_refactor.value(),
            static_cast<std::uint64_t>(first.newton_iterations +
                                       second.newton_iterations));
  EXPECT_GE(tallies.sparse_solve.value(), tallies.sparse_refactor.value());
}
#endif  // MAYO_OBS_ENABLED

}  // namespace
}  // namespace mayo
