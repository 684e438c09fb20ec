// Batch evaluation contract (the tentpole invariant of the batched spine):
// performances_batch / margins_batch produce bitwise the same values,
// cache contents and counters as evaluating the rows one by one through
// the scalar API -- for the default per-row fallback (SyntheticModel) and
// for the native batched circuit models (folded cascode, Miller).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/evaluator.hpp"
#include "linalg/block.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/sampler.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::ConstMatrixView;
using linalg::DesignVec;
using linalg::MarginVec;
using linalg::MatrixView;
using linalg::Matrixd;
using linalg::OperatingVec;
using linalg::PerfVec;
using linalg::StatUnitBlock;
using linalg::StatUnitVec;
using linalg::Vector;

StatUnitBlock unit_block(const Matrixd& m) {
  return StatUnitBlock(ConstMatrixView(m));
}

linalg::PerfBlockView perf_view(Matrixd& m) {
  return linalg::PerfBlockView(MatrixView(m));
}

Matrixd sample_block(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  const stats::SampleSet samples(rows, dim, seed);
  Matrixd block(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) block(r, c) = samples.matrix()(r, c);
  return block;
}

StatUnitVec row_vector(const Matrixd& m, std::size_t r) {
  StatUnitVec v(m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) v[c] = m(r, c);
  return v;
}

struct EvalCountsSnapshot {
  std::size_t optimization, verification, constraint, cache_hits;
  explicit EvalCountsSnapshot(const EvaluationCounts& c)
      : optimization(c.optimization),
        verification(c.verification),
        constraint(c.constraint),
        cache_hits(c.cache_hits) {}
  bool operator==(const EvalCountsSnapshot&) const = default;
};

TEST(EvaluatorBatch, FallbackModelBitwiseMatchesScalar) {
  // SyntheticModel has no evaluate_batch override: this exercises the
  // PerformanceModel default per-row fallback.
  auto scalar_problem = testing::make_synthetic_problem();
  auto batch_problem = testing::make_synthetic_problem();
  Evaluator scalar(scalar_problem);
  Evaluator batch(batch_problem);

  const DesignVec d(scalar_problem.design.nominal);
  const OperatingVec theta{0.25};
  const Matrixd block = sample_block(17, 3, 0xABCDu);

  Matrixd out(block.rows(), scalar.num_specs());
  EvalWorkspace ws;
  batch.performances_batch(d, unit_block(block), theta, perf_view(out), ws);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const PerfVec reference =
        scalar.performances(d, row_vector(block, r), theta);
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(out(r, i), reference[i]) << "row " << r << " perf " << i;
  }
  EXPECT_EQ(EvalCountsSnapshot(batch.counts()),
            EvalCountsSnapshot(scalar.counts()));
  EXPECT_EQ(batch.cache_size(), scalar.cache_size());
}

TEST(EvaluatorBatch, MarginsBatchMatchesScalarMargins) {
  auto problem = testing::make_synthetic_problem();
  auto problem2 = testing::make_synthetic_problem();
  Evaluator scalar(problem);
  Evaluator batch(problem2);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{-0.5};
  const Matrixd block = sample_block(9, 3, 0x1234u);

  Matrixd out(block.rows(), batch.num_specs());
  EvalWorkspace ws;
  batch.margins_batch(d, unit_block(block), theta,
                      linalg::MarginBlockView(MatrixView(out)), ws,
                      Budget::kVerification);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const MarginVec reference = scalar.margins(d, row_vector(block, r), theta,
                                               Budget::kVerification);
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(out(r, i), reference[i]);
  }
  EXPECT_EQ(batch.counts().verification, scalar.counts().verification);
  EXPECT_EQ(batch.counts().optimization, 0u);
}

TEST(EvaluatorBatch, DuplicateRowsSimulatedOnceAndCountedAsHits) {
  auto problem = testing::make_synthetic_problem();
  auto* model = static_cast<testing::SyntheticModel*>(problem.model.get());
  Evaluator evaluator(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};

  Matrixd block(4, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    block(0, c) = 0.5;
    block(1, c) = -1.0;
    block(2, c) = 0.5;   // duplicate of row 0
    block(3, c) = 0.5;   // duplicate of row 0
  }
  Matrixd out(4, 2);
  EvalWorkspace ws;
  evaluator.performances_batch(d, unit_block(block), theta, perf_view(out),
                               ws);
  EXPECT_EQ(model->evaluations, 2);  // two distinct rows
  EXPECT_EQ(evaluator.counts().optimization, 2u);
  EXPECT_EQ(evaluator.counts().cache_hits, 2u);  // the two duplicates
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out(2, i), out(0, i));
    EXPECT_EQ(out(3, i), out(0, i));
  }
}

TEST(EvaluatorBatch, WarmCacheServesBatchWithoutEvaluations) {
  auto problem = testing::make_synthetic_problem();
  auto* model = static_cast<testing::SyntheticModel*>(problem.model.get());
  Evaluator evaluator(problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const Matrixd block = sample_block(6, 3, 0x77u);

  for (std::size_t r = 0; r < block.rows(); ++r)
    evaluator.performances(d, row_vector(block, r), theta);
  const int evals_after_warmup = model->evaluations;

  Matrixd out(block.rows(), 2);
  EvalWorkspace ws;
  evaluator.performances_batch(d, unit_block(block), theta, perf_view(out),
                               ws);
  EXPECT_EQ(model->evaluations, evals_after_warmup);
  EXPECT_EQ(evaluator.counts().cache_hits, block.rows());
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const PerfVec reference = evaluator.performances(d, row_vector(block, r),
                                                     theta);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out(r, i), reference[i]);
  }
}

TEST(EvaluatorBatch, WorkspaceReuseAcrossShrinkingAndGrowingBlocks) {
  auto problem = testing::make_synthetic_problem();
  Evaluator evaluator(problem);
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator reference(reference_problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.1};
  EvalWorkspace ws;
  for (std::size_t rows : {8u, 2u, 16u, 1u}) {
    const Matrixd block = sample_block(rows, 3, 0x1000u + rows);
    Matrixd out(rows, 2);
    evaluator.performances_batch(d, unit_block(block), theta, perf_view(out),
                                 ws);
    for (std::size_t r = 0; r < rows; ++r) {
      const PerfVec expect = reference.performances(d, row_vector(block, r),
                                                    theta);
      for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out(r, i), expect[i]);
    }
  }
}

TEST(EvaluatorBatch, RejectsMisshapenOutput) {
  auto problem = testing::make_synthetic_problem();
  Evaluator evaluator(problem);
  const Matrixd block = sample_block(4, 3, 0x2u);
  EvalWorkspace ws;
  // std::logic_error covers both layers of the shape check: with
  // contracts live (Debug) MAYO_CHECK_DIM throws ContractViolation
  // first; under NDEBUG the always-on guard throws invalid_argument.
  Matrixd bad_rows(3, 2);
  EXPECT_THROW(evaluator.performances_batch(DesignVec(problem.design.nominal),
                                            unit_block(block),
                                            OperatingVec{0.0},
                                            perf_view(bad_rows), ws),
               std::logic_error);
  Matrixd bad_cols(4, 3);
  EXPECT_THROW(evaluator.performances_batch(DesignVec(problem.design.nominal),
                                            unit_block(block),
                                            OperatingVec{0.0},
                                            perf_view(bad_cols), ws),
               std::logic_error);
}

TEST(EvaluatorBatch, BoundedCacheStillBitwiseIdentical) {
  // A tiny FIFO cache forces evictions mid-stream; values must not change.
  auto problem = testing::make_synthetic_problem();
  auto reference_problem = testing::make_synthetic_problem();
  Evaluator evaluator(problem, /*cache_capacity=*/2);
  Evaluator reference(reference_problem);
  const DesignVec d(problem.design.nominal);
  const OperatingVec theta{0.0};
  const Matrixd block = sample_block(12, 3, 0x99u);
  Matrixd out(block.rows(), 2);
  EvalWorkspace ws;
  evaluator.performances_batch(d, unit_block(block), theta, perf_view(out),
                               ws);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const PerfVec expect = reference.performances(d, row_vector(block, r),
                                                  theta);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out(r, i), expect[i]);
  }
}

// Native batched circuit models: a small block must be bitwise what the
// scalar path yields for every row (the contexts make both paths share
// the exact same nominal solves).
template <typename MakeProblem>
void expect_circuit_batch_matches_scalar(MakeProblem make_problem,
                                         std::uint64_t seed) {
  auto scalar_problem = make_problem();
  auto batch_problem = make_problem();
  Evaluator scalar(scalar_problem);
  Evaluator batch(batch_problem);
  const DesignVec d(scalar_problem.design.nominal);
  const OperatingVec theta(scalar_problem.operating.nominal);
  const std::size_t dim = scalar_problem.statistical.dimension();
  // Quarter-sigma deviations: enough to move every performance, small
  // enough to stay on the nominal bias branch.
  Matrixd block = sample_block(3, dim, seed);
  for (std::size_t r = 0; r < block.rows(); ++r)
    for (std::size_t c = 0; c < dim; ++c) block(r, c) *= 0.25;

  Matrixd out(block.rows(), scalar.num_specs());
  EvalWorkspace ws;
  batch.performances_batch(d, unit_block(block), theta, perf_view(out), ws,
                           Budget::kVerification);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const PerfVec reference = scalar.performances(d, row_vector(block, r),
                                                  theta, Budget::kVerification);
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(out(r, i), reference[i]) << "row " << r << " perf " << i;
  }
  EXPECT_EQ(batch.counts().verification, scalar.counts().verification);
}

TEST(EvaluatorBatch, FoldedCascodeBitwiseMatchesScalar) {
  expect_circuit_batch_matches_scalar(
      [] { return circuits::FoldedCascode::make_problem(); }, 0xF01Du);
}

TEST(EvaluatorBatch, MillerBitwiseMatchesScalar) {
  expect_circuit_batch_matches_scalar(
      [] { return circuits::Miller::make_problem(); }, 0x3117u);
}

}  // namespace
}  // namespace mayo::core
