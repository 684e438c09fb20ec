// Google-benchmark microbenchmarks of the computational kernels:
//   * dense LU / Cholesky factorizations (simulator + covariance factors),
//   * DC / AC / transient solves of the folded-cascode netlist,
//   * a full performance evaluation f(d, s, theta),
//   * the slew-rate transient alone, and each opamp analysis alone,
//   * factor plus solve of the stamped slew and AC systems,
//   * the Monte-Carlo yield estimate: full re-evaluation vs. the O(1)
//     incremental coordinate update of paper eq. (20),
//   * the exact 1-D coordinate maximization (best_alpha) on both opamps,
//   * the worst-case-distance search on an analytic problem.
#include <benchmark/benchmark.h>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/linearization.hpp"
#include "core/verification.hpp"
#include "core/wc_distance.hpp"
#include "core/wc_operating.hpp"
#include "core/yield_model.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/solver.hpp"
#include "sim/source_tree.hpp"
#include "stats/rng.hpp"
#include "stats/sampler.hpp"

namespace {

using namespace mayo;

linalg::Matrixd random_spd(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrixd g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1.0, 1.0);
  linalg::Matrixd a = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrixd a = random_spd(n, 1);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    linalg::Lud lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuFactorSolve)->Arg(8)->Arg(20)->Arg(50);

void BM_Cholesky(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrixd a = random_spd(n, 2);
  for (auto _ : state) {
    linalg::Cholesky chol(a);
    benchmark::DoNotOptimize(chol.factor());
  }
}
BENCHMARK(BM_Cholesky)->Arg(8)->Arg(20)->Arg(50);

/// Synthetic ~20-node small-signal bench: an ideal gain stage into a
/// dominant RC pole plus a parasitic RC ladder, mirroring the system size
/// and pole structure of the opamp AC benches without their DC solve.
struct AcLadderFixture {
  AcLadderFixture() {
    using namespace circuit;
    const NodeId in = nl.add_node("in");
    auto& v = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    v.set_ac_value({1.0, 0.0});
    const NodeId amp = nl.add_node("amp");
    nl.add<Vcvs>("E1", amp, kGround, in, kGround, 1000.0);
    // Dominant pole ~1.6 kHz -> unity crossing ~1.6 MHz at gain 1000.
    const NodeId pole = nl.add_node("pole");
    nl.add<Resistor>("Rdom", amp, pole, 1e5);
    nl.add<Capacitor>("Cdom", pole, kGround, 1e-9);
    NodeId prev = pole;
    for (int i = 0; i < 15; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      const NodeId node = nl.add_node(name);
      nl.add<Resistor>("R" + name, prev, node, 50.0 + 10.0 * i);
      nl.add<Capacitor>("C" + name, node, kGround, 1e-13);
      prev = node;
    }
    out = prev;
    op = linalg::Vector(nl.system_size());
  }
  circuit::Netlist nl;
  circuit::NodeId out{};
  linalg::Vector op;
};

void BM_AcProbe(benchmark::State& state) {
  // One frequency probe on a stamped session: assemble G + j omega C into
  // the complex workspace, refactor in place, substitute.  The frequency
  // walks a log grid so every probe refactors a genuinely new system.
  AcLadderFixture fx;
  sim::AcSession session(fx.nl, fx.op, circuit::Conditions{});
  double f = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.solve(f));
    f = f < 1e9 ? f * 1.7 : 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcProbe);

void BM_MeasureFt(benchmark::State& state) {
  // Full A0/ft/phase-margin measurement on a stamped session: arg 0 scans
  // the log grid from scratch, arg 1 starts from a seeded bracket around
  // the known crossing (the mismatch-sample path of the opamp models).
  AcLadderFixture fx;
  sim::AcSession session(fx.nl, fx.op, circuit::Conditions{});
  const sim::GainBandwidth nominal =
      sim::measure_gain_bandwidth(session, fx.out);
  sim::FtBracket bracket{nominal.ft_hz / 1.6, nominal.ft_hz * 1.6};
  const sim::FtBracket* seed = state.range(0) != 0 ? &bracket : nullptr;
  for (auto _ : state) {
    sim::GainBandwidth gb =
        sim::measure_gain_bandwidth(session, fx.out, 1.0, 10e9, seed);
    benchmark::DoNotOptimize(gb);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasureFt)->Arg(0)->Arg(1);

struct FoldedCascodeFixture {
  FoldedCascodeFixture()
      : problem(circuits::FoldedCascode::make_problem()),
        model(dynamic_cast<circuits::FoldedCascode*>(problem.model.get())),
        d(linalg::DesignVec(circuits::FoldedCascode::initial_design())),
        s(circuits::FoldedCascodeStats::kCount),
        theta(problem.operating.nominal) {}
  core::YieldProblem problem;
  circuits::FoldedCascode* model;
  linalg::DesignVec d;
  linalg::StatPhysVec s;
  linalg::OperatingVec theta;
};

void BM_FoldedCascodeEvaluate(benchmark::State& state) {
  FoldedCascodeFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model->evaluate(fx.d, fx.s, fx.theta));
  }
}
BENCHMARK(BM_FoldedCascodeEvaluate);

void BM_FoldedCascodeConstraints(benchmark::State& state) {
  FoldedCascodeFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model->constraints(fx.d));
  }
}
BENCHMARK(BM_FoldedCascodeConstraints);

/// Slew-only evaluation of one opamp at fresh samples: each iteration
/// measures SR+ at the next of 256 mismatch samples of the initial design,
/// so only the per-(d, theta) design context (the nominal step response
/// that seeds the samples, built before timing) is reused.  Counters give
/// the transient time steps and Newton iterations per evaluation (zero
/// under MAYO_OBS=OFF).
template <class Model>
void slew_bench(benchmark::State& state) {
  const core::YieldProblem problem = Model::make_problem();
  core::PerformanceModel& model = *problem.model;
  const linalg::DesignVec d(Model::initial_design());
  const linalg::OperatingVec theta(problem.operating.nominal);
  const stats::SampleSet unit(256, problem.statistical.dimension(), 11);
  std::vector<linalg::StatPhysVec> samples;
  for (std::size_t j = 0; j < unit.count(); ++j) {
    linalg::StatUnitVec s_hat(problem.statistical.dimension());
    for (std::size_t i = 0; i < s_hat.size(); ++i) s_hat[i] = unit.sample(j)[i];
    samples.push_back(problem.statistical.to_physical(s_hat, d));
  }
  const core::AnalysisMask slew =
      core::analysis_bit(circuits::OpampModel::kSlewAnalysis);
  model.evaluate_analyses(d, samples.back(), theta, slew);  // builds context
  const obs::Counters& c = obs::registry().counters;
  const std::uint64_t steps = c.tran_steps.value();
  const std::uint64_t newton = c.tran_newton_iterations.value();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate_analyses(d, samples[next], theta, slew));
    next = (next + 1) % samples.size();
  }
  const double evals = static_cast<double>(state.iterations());
  state.counters["tran_steps"] =
      static_cast<double>(c.tran_steps.value() - steps) / evals;
  state.counters["newton_iterations"] =
      static_cast<double>(c.tran_newton_iterations.value() - newton) / evals;
  state.SetItemsProcessed(state.iterations());
}

void BM_SlewBench(benchmark::State& state) {
  // Arg: opamp (0 folded cascode, 1 Miller).
  if (state.range(0) == 0)
    slew_bench<circuits::FoldedCascode>(state);
  else
    slew_bench<circuits::Miller>(state);
}
BENCHMARK(BM_SlewBench)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("miller")
    ->Unit(benchmark::kMillisecond);

/// The folded cascode optimized at Table-7 options (seed 42; the design
/// the end-to-end benchmark's verification workload pins).
linalg::Vector pinned_fc_design() {
  return linalg::Vector{7.9969771444780079e-05, 2.6006396264899676e-05,
                        3.8154545795207499e-05, 1.9622502321068214e-05,
                        1.9101235641826773e-05, 4.0000000000000003e-05,
                        5.0000000000000002e-05};
}

/// One analysis of the pinned folded cascode at fresh samples: each
/// iteration evaluates the next of 256 mismatch samples at the nominal
/// operating point, requesting the analysis that measures `performance`
/// (power, A0, f_t, SR+), or every analysis for a negative index.  Only
/// the design context, built before timing, is reused.  Counters give the
/// DC and AC solves per evaluation (zero under MAYO_OBS=OFF).
void BM_OpampAnalyses(benchmark::State& state, int performance) {
  const core::YieldProblem problem = circuits::FoldedCascode::make_problem();
  core::PerformanceModel& model = *problem.model;
  const linalg::DesignVec d(pinned_fc_design());
  const linalg::OperatingVec theta(problem.operating.nominal);
  const stats::SampleSet unit(256, problem.statistical.dimension(), 13);
  std::vector<linalg::StatPhysVec> samples;
  for (std::size_t j = 0; j < unit.count(); ++j) {
    linalg::StatUnitVec s_hat(problem.statistical.dimension());
    for (std::size_t i = 0; i < s_hat.size(); ++i) s_hat[i] = unit.sample(j)[i];
    samples.push_back(problem.statistical.to_physical(s_hat, d));
  }
  core::AnalysisMask analyses = 0;
  for (std::size_t i = 0; i < model.num_performances(); ++i) {
    if (performance < 0 || static_cast<std::size_t>(performance) == i)
      analyses |= core::analysis_bit(model.analysis_of(i));
  }
  model.evaluate_analyses(d, samples.back(), theta, analyses);  // context
  const obs::Counters& c = obs::registry().counters;
  const std::uint64_t dc = c.dc_solves.value();
  const std::uint64_t ac = c.ac_probes.value();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate_analyses(d, samples[next], theta, analyses));
    next = (next + 1) % samples.size();
  }
  const double evals = static_cast<double>(state.iterations());
  state.counters["dc_solves"] =
      static_cast<double>(c.dc_solves.value() - dc) / evals;
  state.counters["ac_solves"] =
      static_cast<double>(c.ac_probes.value() - ac) / evals;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_OpampAnalyses, operating_point, 4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OpampAnalyses, gain, 0)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OpampAnalyses, crossing, 1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OpampAnalyses, slew, 3)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OpampAnalyses, all, -1)->Unit(benchmark::kMicrosecond);

/// Factor plus solve of one stamped MNA system of the pinned folded
/// cascode at nominal statistics and operating point, on the bench of
/// `analysis`: the slew bench's backward-Euler Newton system of one step
/// from its operating point, or the AC bench's small-signal system, probed
/// at a new frequency each iteration so every solve refactors.  Counters
/// give the MNA unknowns and the free ones the LU factors.
void BM_MnaSolve(benchmark::State& state, std::size_t analysis) {
  const core::YieldProblem problem = circuits::FoldedCascode::make_problem();
  auto& model = dynamic_cast<circuits::FoldedCascode&>(*problem.model);
  const linalg::Vector& theta = problem.operating.nominal;
  circuit::Netlist& netlist = model.bench_netlist(
      analysis, pinned_fc_design(),
      linalg::Vector(circuits::FoldedCascodeStats::kCount), theta);
  const circuit::Conditions conditions{theta[0]};
  const sim::DcResult op = sim::solve_dc(netlist, conditions);
  if (!op.converged) {
    state.SkipWithError("operating point did not converge");
    return;
  }
  const std::size_t n = netlist.system_size();
  if (analysis == circuits::OpampModel::kSlewAnalysis) {
    const double dt = model.options().sr_dt;
    const double gmin = sim::kGminFloor;
    sim::LinearSystem system;
    system.set_netlist(&netlist);
    linalg::Vector residual(n);
    circuit::TranStamp stamp(op.solution, system.begin(n), residual,
                             netlist.num_nodes(), conditions, op.solution, dt,
                             dt);
    for (const auto& device : netlist) device->stamp_tran(stamp);
    for (std::size_t k = 0; k + 1 < netlist.num_nodes(); ++k)
      stamp.add_jacobian(static_cast<int>(k), static_cast<int>(k), gmin);
    linalg::Vector x(n);
    for (auto _ : state) {
      system.factor();
      system.solve_into(residual.data(), x.data());
      benchmark::DoNotOptimize(x.data());
    }
  } else {
    sim::AcSession session(netlist, op.solution, conditions);
    double f = 1.0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(session.solve(f).data());
      f = f < 1e9 ? f * 1.7 : 1.0;
    }
  }
  sim::SourceTree tree;
  tree.build(netlist);
  state.counters["full"] = static_cast<double>(n);
  state.counters["free"] = static_cast<double>(tree.free_size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MnaSolve, slew, circuits::OpampModel::kSlewAnalysis);
BENCHMARK_CAPTURE(BM_MnaSolve, ac, circuits::OpampModel::kGainAnalysis);

void BM_BatchEvalFoldedCascode(benchmark::State& state) {
  // Batch-vs-scalar throughput of the evaluation spine.  Every iteration
  // evaluates one block at a FRESH design (d[0] bumped, as in
  // BM_YieldFullEvaluation), so the per-(d, theta) setup -- bias solve,
  // f_t bracket, nominal slew trajectory -- cannot be cached across
  // blocks.  Block size 1 therefore pays the setup per sample (the old
  // scalar path); larger blocks amortize it.  Compare items_per_second.
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  FoldedCascodeFixture fx;
  // Every probe is distinct; bound the memory.
  core::Evaluator ev(fx.problem, /*cache_capacity=*/1024);
  const stats::SampleSet samples(block_size, ev.num_statistical(), 7);
  core::EvalWorkspace ws;
  linalg::Matrixd out(block_size, ev.num_specs());
  linalg::DesignVec d = fx.d;
  for (auto _ : state) {
    d[0] += 1e-9;  // fresh design per block
    ev.performances_batch(d, samples.block(0, block_size), fx.theta,
                          linalg::PerfBlockView(linalg::MatrixView(out)), ws,
                          core::Budget::kVerification);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block_size));
}
BENCHMARK(BM_BatchEvalFoldedCascode)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_YieldFullEvaluation(benchmark::State& state) {
  FoldedCascodeFixture fx;
  core::Evaluator ev(fx.problem);
  const auto linearized = core::build_linearizations(ev, fx.d);
  const stats::SampleSet samples(static_cast<std::size_t>(state.range(0)),
                                 ev.num_statistical(), 7);
  core::LinearYieldModel yield_model(linearized.models, samples);
  linalg::DesignVec d = fx.d;
  for (auto _ : state) {
    d[0] += 1e-9;  // force a fresh offset computation
    yield_model.set_design(d);
    benchmark::DoNotOptimize(yield_model.passing());
  }
}
BENCHMARK(BM_YieldFullEvaluation)->Arg(1000)->Arg(10000);

void BM_YieldIncrementalUpdate(benchmark::State& state) {
  // The eq.-(20) path: only one coordinate moves.
  FoldedCascodeFixture fx;
  core::Evaluator ev(fx.problem);
  const auto linearized = core::build_linearizations(ev, fx.d);
  const stats::SampleSet samples(static_cast<std::size_t>(state.range(0)),
                                 ev.num_statistical(), 7);
  core::LinearYieldModel yield_model(linearized.models, samples);
  for (auto _ : state) {
    yield_model.apply_coordinate(0, 1e-9);
    benchmark::DoNotOptimize(yield_model.passing());
  }
}
BENCHMARK(BM_YieldIncrementalUpdate)->Arg(1000)->Arg(10000);

/// One exact scan of design coordinate 0 on the linear models built at an
/// opamp's initial design, with N samples (the Arg).  The interval ends
/// strictly inside the scan interval are the ones the scan sorts.
template <class Model>
void best_alpha_scan(benchmark::State& state, double alpha_lo,
                     double alpha_hi) {
  core::YieldProblem problem = Model::make_problem();
  core::Evaluator ev(problem);
  const linalg::DesignVec d(Model::initial_design());
  const auto linearized = core::build_linearizations(ev, d);
  const stats::SampleSet samples(static_cast<std::size_t>(state.range(0)),
                                 ev.num_statistical(), 7);
  core::LinearYieldModel yield_model(linearized.models, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(yield_model.best_alpha(0, alpha_lo, alpha_hi));
  }
}

void BM_BestAlphaScan(benchmark::State& state) {
  // Folded cascode over +-20 um: at 10,000 samples all 9,824 feasible
  // samples open inside the interval and none closes inside it.
  best_alpha_scan<circuits::FoldedCascode>(state, -20e-6, 20e-6);
}
BENCHMARK(BM_BestAlphaScan)->Arg(1000)->Arg(10000);

void BM_BestAlphaScanMiller(benchmark::State& state) {
  // Miller over +-37.5 um, the first trust region of w_in (0.75 x its
  // initial 50 um): at 10,000 samples both ends of all 7,368 feasible
  // samples lie inside the interval.
  best_alpha_scan<circuits::Miller>(state, -37.5e-6, 37.5e-6);
}
BENCHMARK(BM_BestAlphaScanMiller)->Arg(10000);

void BM_DcSolve(benchmark::State& state) {
  FoldedCascodeFixture fx;
  // Use the model's public measurement path once to warm caches, then
  // benchmark raw DC solves on a standalone netlist equivalent: simplest
  // is to benchmark evaluate() minus AC/tran via constraints(), so here we
  // time the constraint path (one DC solve per call).
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model->constraints(fx.d));
  }
}
BENCHMARK(BM_DcSolve);

void BM_WorstCaseDistanceAnalytic(benchmark::State& state) {
  // Analytic linear margin in 14 statistical dimensions.
  class LinearModel final : public core::PerformanceModel {
   public:
    std::size_t num_performances() const override { return 1; }
    std::size_t num_constraints() const override { return 1; }
    linalg::PerfVec evaluate(const linalg::DesignVec&,
                             const linalg::StatPhysVec& s,
                             const linalg::OperatingVec&) override {
      double acc = 2.0;
      for (std::size_t i = 0; i < s.size(); ++i)
        acc -= (i % 3 == 0 ? 1.0 : 0.3) * s[i];
      return linalg::PerfVec{acc};
    }
    linalg::Vector constraints(const linalg::DesignVec&) override {
      return linalg::Vector(1, 1.0);
    }
  };
  core::YieldProblem problem;
  problem.model = std::make_shared<LinearModel>();
  problem.specs = {{"f", core::SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.design.names = {"d"};
  problem.design.lower = linalg::Vector{0.0};
  problem.design.upper = linalg::Vector{1.0};
  problem.design.nominal = linalg::Vector{0.5};
  problem.operating.names = {"t"};
  problem.operating.lower = linalg::Vector{0.0};
  problem.operating.upper = linalg::Vector{1.0};
  problem.operating.nominal = linalg::Vector{0.5};
  for (int i = 0; i < 14; ++i) {
    // Built via += : operator+(const char*, string&&) trips GCC 12's
    // bogus -Wrestrict on the inlined memcpy (PR 105651).
    std::string name = "s";
    name += std::to_string(i);
    problem.statistical.add(stats::StatParam::global(std::move(name), 0.0, 1.0));
  }
  core::Evaluator ev(problem);
  for (auto _ : state) {
    ev.clear_cache();
    benchmark::DoNotOptimize(core::find_worst_case_point(
        ev, 0, linalg::DesignVec(problem.design.nominal),
        linalg::OperatingVec(problem.operating.nominal)));
  }
}
BENCHMARK(BM_WorstCaseDistanceAnalytic);

// 160 samples = 5 blocks of the default 32, so 2 and 5 workers both have
// blocks to split (the pool runs min(blocks, threads) workers).
constexpr std::size_t kVerifySamples = 160;

void BM_VerifySerial(benchmark::State& state) {
  FoldedCascodeFixture fx;
  core::Evaluator ev(fx.problem);
  const auto corners = core::find_worst_case_operating(ev, fx.d);
  core::VerificationOptions options;
  options.num_samples = kVerifySamples;
  for (auto _ : state) {
    ev.clear_cache();
    benchmark::DoNotOptimize(
        core::monte_carlo_verify(ev, fx.d, corners.theta_wc, options));
  }
}
BENCHMARK(BM_VerifySerial)->Unit(benchmark::kMillisecond);

void BM_VerifyParallel(benchmark::State& state) {
  // The paper's 5-machine parallelism, as threads (Table 7).
  FoldedCascodeFixture fx;
  core::Evaluator ev(fx.problem);
  const auto corners = core::find_worst_case_operating(ev, fx.d);
  core::VerificationOptions options;
  options.num_samples = kVerifySamples;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    ev.clear_cache();
    benchmark::DoNotOptimize(
        core::monte_carlo_verify(ev, fx.d, corners.theta_wc, options));
  }
}
BENCHMARK(BM_VerifyParallel)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
