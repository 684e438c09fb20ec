// Contract of the shared opamp testbench (circuits/opamp.hpp), typed over
// both paper opamps: problem shape, input checks, the saturation-margin
// constraints and their names, robustness on extreme sizings, and the
// design-context cache behind every evaluation.  Model-specific
// thresholds live in test_circuits_folded_cascode.cpp and
// test_circuits_miller.cpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "obs/obs.hpp"
#include "sim/source_tree.hpp"

namespace mayo::circuits {
namespace {

using linalg::Vector;

template <class Model>
struct Traits;

template <>
struct Traits<FoldedCascode> {
  using Design = FoldedCascodeDesign;
  using Stats = FoldedCascodeStats;
  static constexpr std::size_t kStatistical = 14;  // 4 globals + 10 locals
  /// SR+ [V/us] at the initial design on the fixed 0.5 ns grid: nominal,
  /// then -3 and +3 sigma along dkpn_g and along dvth_M3.
  static constexpr std::array<std::size_t, 2> kSlewAxes{2, 6};
  static constexpr std::array<double, 5> kFixedGridSlewRate{
      31.3255849960, 30.6682359858, 31.8321860626, 29.9387040101,
      32.6246884946};
  /// MNA unknowns and free ones of the slew and AC benches: Vdd, Vinp,
  /// Vbn2 and Vbp2 (through vdd) fix four nodes; the AC bench's Vinn
  /// floats.
  static constexpr std::array<std::size_t, 4> kUnknowns{17, 9, 20, 12};
  static std::vector<std::string> constraint_names() {
    return {"sat(M0)", "sat(M1)", "sat(M2)", "sat(M3)", "sat(M4)", "sat(M5)",
            "sat(M6)", "sat(M7)", "sat(M8)", "sat(M9)", "sat(M10)"};
  }
};

template <>
struct Traits<Miller> {
  using Design = MillerDesign;
  using Stats = MillerStats;
  static constexpr std::size_t kStatistical = 4;  // globals only
  /// SR+ [V/us] at the initial design on the fixed 4 ns grid: nominal,
  /// then -3 and +3 sigma along dkpn_g and along dkpp_g.
  static constexpr std::array<std::size_t, 2> kSlewAxes{2, 3};
  static constexpr std::array<double, 5> kFixedGridSlewRate{
      2.56912268096, 2.51723613437, 2.61082100136, 2.58629309760,
      2.55352886851};
  /// As for the folded cascode; Vdd and Vinp fix two nodes.
  static constexpr std::array<std::size_t, 4> kUnknowns{10, 6, 13, 9};
  static std::vector<std::string> constraint_names() {
    return {"sat(M1)", "sat(M2)", "sat(M3)", "sat(M4)",
            "sat(M5)", "sat(M6)", "sat(M7)"};
  }
};

/// Same length and the same bit pattern in every entry.
void expect_bitwise(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i << ": " << got[i] << " vs " << want[i];
}

template <class Model>
class OpampContract : public ::testing::Test {
 protected:
  using Design = typename Traits<Model>::Design;
  using Stats = typename Traits<Model>::Stats;

  OpampContract()
      : problem(Model::make_problem()),
        model(dynamic_cast<Model*>(problem.model.get())),
        d0(Model::initial_design()),
        s0(Stats::kCount),
        theta0(problem.operating.nominal) {}

  /// `count` distinct sizings: the initial one with every width and the
  /// reference current scaled by 1 + k/100.
  std::vector<Vector> distinct_designs(std::size_t count) const {
    std::vector<Vector> designs;
    for (std::size_t k = 1; k <= count; ++k)
      designs.push_back((1.0 + 0.01 * static_cast<double>(k)) * d0);
    return designs;
  }

  core::YieldProblem problem;
  Model* model;
  Vector d0;
  Vector s0;
  Vector theta0;
};

using Models = ::testing::Types<FoldedCascode, Miller>;
TYPED_TEST_SUITE(OpampContract, Models);

TYPED_TEST(OpampContract, ProblemIsConsistent) {
  constexpr std::size_t kStatistical = Traits<TypeParam>::kStatistical;
  EXPECT_NO_THROW(this->problem.validate());
  EXPECT_EQ(this->problem.num_specs(), 5u);
  EXPECT_EQ(this->problem.statistical.dimension(), kStatistical);
  EXPECT_EQ(TestFixture::Stats::kCount, kStatistical);
  EXPECT_EQ(this->problem.design.dimension(), TestFixture::Design::kCount);
}

TYPED_TEST(OpampContract, NamesAreConsistent) {
  EXPECT_EQ(TypeParam::performance_names().size(), 5u);
  EXPECT_EQ(TypeParam::statistical_names().size(), TestFixture::Stats::kCount);
  EXPECT_EQ(this->model->constraint_names().size(),
            this->model->num_constraints());
}

TYPED_TEST(OpampContract, ConstraintNamesAreTheSignalTransistors) {
  EXPECT_EQ(this->model->constraint_names(),
            Traits<TypeParam>::constraint_names());
}

TYPED_TEST(OpampContract, InitialDesignIsFeasible) {
  const Vector c = this->model->constraints(linalg::DesignVec(this->d0));
  ASSERT_EQ(c.size(), this->model->num_constraints());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_GT(c[i], 0.0) << this->model->constraint_names()[i];
}

TYPED_TEST(OpampContract, SaturationMarginsAreTheConstraints) {
  for (const Vector& d : this->distinct_designs(3))
    expect_bitwise(this->model->saturation_margins(d),
                   this->model->constraints(linalg::DesignVec(d)));
}

TYPED_TEST(OpampContract, ConstraintsIgnoreHistoryAndEviction) {
  // The constraint point is the nominal operating point cached in the
  // design context; whether that context was built cold, by a slew-only
  // evaluation (which leaves its AC section empty), or rebuilt after
  // eviction must not change a bit.
  TypeParam fresh;
  const Vector reference = fresh.constraints(linalg::DesignVec(this->d0));

  TypeParam model;
  model.evaluate_analyses(linalg::DesignVec(this->d0),
                          linalg::StatPhysVec(this->s0),
                          linalg::OperatingVec(this->theta0),
                          core::analysis_bit(TypeParam::kSlewAnalysis));
  expect_bitwise(model.constraints(linalg::DesignVec(this->d0)), reference);

  for (const Vector& d : this->distinct_designs(17))  // > 16 contexts
    model.constraints(linalg::DesignVec(d));
  expect_bitwise(model.constraints(linalg::DesignVec(this->d0)), reference);
}

#if MAYO_OBS_ENABLED  // the counters are no-op shells under MAYO_OBS=OFF
TYPED_TEST(OpampContract, DesignContextCacheIsABoundedFifo) {
  // 17 distinct designs against 16 slots: 17 misses, the last one evicts
  // the first design.  Revisiting the latest design hits; revisiting the
  // first misses again and evicts the second.
  const obs::CacheCounters& counters =
      obs::registry().counters.design_context;
  const std::uint64_t hits = counters.hits.value();
  const std::uint64_t misses = counters.misses.value();
  const std::uint64_t evictions = counters.evictions.value();
  TypeParam model;
  const std::vector<Vector> designs = this->distinct_designs(17);
  for (const Vector& d : designs) model.constraints(linalg::DesignVec(d));
  EXPECT_EQ(counters.misses.value() - misses, 17u);
  EXPECT_EQ(counters.evictions.value() - evictions, 1u);
  model.constraints(linalg::DesignVec(designs.back()));
  model.constraints(linalg::DesignVec(designs.front()));
  EXPECT_EQ(counters.hits.value() - hits, 1u);
  EXPECT_EQ(counters.misses.value() - misses, 18u);
  EXPECT_EQ(counters.evictions.value() - evictions, 2u);
}
#endif

TYPED_TEST(OpampContract, StoppedSlewRunKeepsTheFixedGridSlewRate) {
  // SR+ of slew runs that stop at their 90% crossing against the values
  // recorded from full runs on the fixed grid (every step at sr_dt, read
  // against the value at sr_t_stop), at the nominal point and at +-3
  // sigma along two axes.  The edge is the full run's, bit for bit up to
  // the stop; only the end of the swing, and with it the 10% and 90%
  // levels, moves from the value at sr_t_stop to the stepped DC point, by
  // about the Newton tolerance.
  using T = Traits<TypeParam>;
  TypeParam model;
  const Vector sigmas =
      this->problem.statistical.sigmas(linalg::DesignVec(this->d0));
  std::vector<Vector> points{this->s0};
  for (const std::size_t i : T::kSlewAxes)
    for (const double k : {-3.0, 3.0}) {
      Vector s = this->s0;
      s[i] += k * sigmas[i];
      points.push_back(s);
    }
  ASSERT_EQ(points.size(), T::kFixedGridSlewRate.size());
  const obs::Counters& c = obs::registry().counters;
  [[maybe_unused]] const std::uint64_t steps = c.tran_steps.value();
  [[maybe_unused]] const std::uint64_t solves = c.tran_solves.value();
  [[maybe_unused]] const std::uint64_t fallbacks =
      c.tran_slew_fallbacks.value();
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto m = model.measure(this->d0, points[p], this->theta0);
    ASSERT_TRUE(m.sr_valid);
    const double want = T::kFixedGridSlewRate[p];
    EXPECT_NEAR(m.sr_v_per_us, want, 1e-6 * want) << "s = " << points[p];
  }
#if MAYO_OBS_ENABLED  // the counters are no-op shells under MAYO_OBS=OFF
  // Every run stopped at its crossing, in under a third of the full grid.
  EXPECT_EQ(c.tran_slew_fallbacks.value(), fallbacks);
  const typename TypeParam::Options options;
  const auto fixed_steps = static_cast<std::uint64_t>(
      std::llround(options.sr_t_stop / options.sr_dt));
  EXPECT_LT(3 * (c.tran_steps.value() - steps),
            fixed_steps * (c.tran_solves.value() - solves));
#endif
}

TYPED_TEST(OpampContract, EvaluateStaysFiniteOnExtremeDesigns) {
  // Pathological sizings (minimum widths, the reference current at either
  // bound) either converge or produce the penalty values -- never throw.
  using Design = typename TestFixture::Design;
  const auto& box = this->problem.design;
  Vector d_hot = box.lower;
  d_hot[Design::kIref] = box.upper[Design::kIref];
  for (const Vector& d : {box.lower, d_hot}) {
    const linalg::PerfVec f = this->model->evaluate(
        linalg::DesignVec(d), linalg::StatPhysVec(this->s0),
        linalg::OperatingVec(this->theta0));
    ASSERT_EQ(f.size(), 5u);
    for (double v : f) EXPECT_TRUE(std::isfinite(v));
  }
}

TYPED_TEST(OpampContract, RejectsWrongVectorSizes) {
  auto* model = this->model;
  const linalg::StatPhysVec s_tag(this->s0);
  const linalg::OperatingVec theta_tag(this->theta0);
  EXPECT_THROW(model->evaluate(linalg::DesignVec{1.0}, s_tag, theta_tag),
               std::invalid_argument);
  EXPECT_THROW(model->evaluate(linalg::DesignVec(this->d0),
                               linalg::StatPhysVec{1.0}, theta_tag),
               std::invalid_argument);
  EXPECT_THROW(model->evaluate(linalg::DesignVec(this->d0), s_tag,
                               linalg::OperatingVec{1.0}),
               std::invalid_argument);
}

TYPED_TEST(OpampContract, EvaluateBatchRejectsWrongOutShape) {
  const linalg::Matrixd s_block(2, TestFixture::Stats::kCount);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 5},
                                   {2, 4}, {3, 5}}) {
    linalg::Matrixd out(rows, cols);
    EXPECT_THROW(
        this->model->evaluate_batch(
            linalg::DesignVec(this->d0),
            linalg::StatPhysBlock(linalg::ConstMatrixView(s_block)),
            linalg::OperatingVec(this->theta0),
            linalg::PerfBlockView(linalg::MatrixView(out))),
        std::invalid_argument)
        << rows << "x" << cols;
  }
}

TYPED_TEST(OpampContract, SolversFactorOnlyTheFreeUnknownsOfEachBench) {
  const std::array<std::size_t, 4>& unknowns = Traits<TypeParam>::kUnknowns;
  sim::SourceTree tree;
  const std::array<std::size_t, 2> analyses{OpampModel::kSlewAnalysis,
                                            OpampModel::kGainAnalysis};
  for (std::size_t k = 0; k < analyses.size(); ++k) {
    const circuit::Netlist& netlist = this->model->bench_netlist(
        analyses[k], this->d0, this->s0, this->theta0);
    tree.build(netlist);
    EXPECT_EQ(tree.size(), unknowns[2 * k]) << k;
    EXPECT_EQ(tree.free_size(), unknowns[2 * k + 1]) << k;
  }
}

TYPED_TEST(OpampContract, BenchesAuditClean) {
  // Every rule family, in the DC and in the AC/transient conduction model:
  // a paper circuit carries no finding, warnings included.  The bias
  // mirrors' diode-connected transistors (drain == gate) are not AUD-006
  // self-loops.
  for (const std::size_t analysis :
       {OpampModel::kSlewAnalysis, OpampModel::kGainAnalysis}) {
    const circuit::Netlist& netlist = this->model->bench_netlist(
        analysis, this->d0, this->s0, this->theta0);
    for (const bool capacitors_conduct : {false, true}) {
      const audit::AuditReport report =
          audit::audit_netlist(netlist, capacitors_conduct);
      EXPECT_TRUE(report.empty())
          << "analysis " << analysis << ", capacitors_conduct "
          << capacitors_conduct << ":\n" << audit::to_json(report);
    }
  }
}

TYPED_TEST(OpampContract, ModelFitsTheAllocatorsPerThreadCache) {
  // make_problem() allocates the model with std::make_shared: the object
  // plus a 16-byte control block in one chunk.  glibc's per-thread cache
  // (tcache) serves chunks of at most 1,032 bytes; a larger one takes
  // malloc's slower bins.  Set-up of the folded-cascode problem
  // (make_problem plus an Evaluator), which the end-to-end benchmark times
  // as setup_s on its optimizer workloads, read 10.6 us with the object at
  // 1,008 bytes and 16.2 us at 1,032 bytes (one std::vector member more):
  // medians of 20 interleaved processes on a 4-vCPU x86-64 VM, every
  // 1,032-byte run slower than every 1,008-byte run.  A new OpampModel
  // member fails here first.
#if defined(__GLIBC__)
  EXPECT_LE(sizeof(TypeParam) + 16, 1032u) << sizeof(TypeParam);
#else
  GTEST_SKIP() << "the bound is glibc's tcache limit";
#endif
}

}  // namespace
}  // namespace mayo::circuits
