// Determinism contract of the Monte-Carlo verifier's worker fan-out: for
// every thread count and sample count, monte_carlo_verify produces the
// same pass count, the same per-spec failure counts, and (with
// record_decisions) bit-identical per-sample pass/fail decisions as the
// serial run.  Only floating-point accumulation order of the reported
// moments may differ.
#include "core/verification.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::Vector;

VerificationResult run_serial(std::size_t num_samples,
                              std::size_t block_size = 32) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  VerificationOptions opts;
  opts.num_samples = num_samples;
  opts.record_decisions = true;
  opts.block_size = block_size;
  return monte_carlo_verify(ev, DesignVec(problem.design.nominal),
                            {OperatingVec{1.0}, OperatingVec{0.0}}, opts);
}

VerificationResult run_parallel(std::size_t num_samples, unsigned threads,
                                std::size_t block_size = 32) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  VerificationOptions opts;
  opts.num_samples = num_samples;
  opts.record_decisions = true;
  opts.block_size = block_size;
  opts.threads = threads;
  return monte_carlo_verify(
      ev, DesignVec(problem.design.nominal),
      {OperatingVec{1.0}, OperatingVec{0.0}}, opts);
}

void expect_identical(const VerificationResult& serial,
                      const VerificationResult& parallel) {
  EXPECT_EQ(parallel.yield, serial.yield);
  EXPECT_EQ(parallel.fails_per_spec, serial.fails_per_spec);
  EXPECT_EQ(parallel.sample_pass, serial.sample_pass);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

TEST(ParallelDeterminism, ThreadCountSweep) {
  const VerificationResult serial = run_serial(301);  // odd on purpose
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_identical(serial, run_parallel(301, threads));
  }
}

TEST(ParallelDeterminism, SerialBlockSizeInvariance) {
  // Block size 1 is the scalar per-sample loop; every other block size
  // must reproduce it bit for bit (301 is not divisible by 7 or 64, so
  // the tail block is exercised too).  Moments are also identical in the
  // serial case: accumulation order is always ascending sample order.
  const VerificationResult scalar = run_serial(301, 1);
  for (std::size_t block_size : {std::size_t{7}, std::size_t{32},
                                 std::size_t{64}, std::size_t{400}}) {
    SCOPED_TRACE(block_size);
    const VerificationResult blocked = run_serial(301, block_size);
    expect_identical(scalar, blocked);
    EXPECT_EQ(blocked.performance_mean, scalar.performance_mean);
    EXPECT_EQ(blocked.performance_stddev, scalar.performance_stddev);
  }
}

TEST(ParallelDeterminism, ThreadAndBlockSizeGrid) {
  // Serial scalar reference vs every (threads, block size) combination,
  // including block sizes that do not divide the sample count.
  const VerificationResult scalar = run_serial(301, 1);
  for (unsigned threads : {1u, 2u, 8u}) {
    for (std::size_t block_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " block=" << block_size);
      expect_identical(scalar, run_parallel(301, threads, block_size));
    }
  }
}

TEST(ParallelDeterminism, SingleSample) {
  const VerificationResult serial = run_serial(1);
  EXPECT_EQ(serial.sample_pass.size(), 1u);
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_identical(serial, run_parallel(1, threads));
  }
}

TEST(ParallelDeterminism, FewerSamplesThanThreads) {
  const VerificationResult serial = run_serial(3);
  expect_identical(serial, run_parallel(3, 8));
  const VerificationResult serial5 = run_serial(5);
  expect_identical(serial5, run_parallel(5, 8));
}

TEST(ParallelDeterminism, ZeroSamplesThrowsConsistently) {
  // The sample set requires N > 0; serial and parallel agree on the error.
  EXPECT_THROW(run_serial(0), std::invalid_argument);
  for (unsigned threads : {1u, 2u, 8u})
    EXPECT_THROW(run_parallel(0, threads), std::invalid_argument);
}

TEST(ParallelDeterminism, DecisionsConsistentWithAggregates) {
  const VerificationResult result = run_parallel(301, 8);
  std::size_t passing = 0;
  for (std::uint8_t pass : result.sample_pass) passing += pass;
  EXPECT_EQ(result.yield,
            static_cast<double>(passing) / result.sample_pass.size());
}

TEST(ParallelDeterminism, DecisionsOffByDefault) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  VerificationOptions opts;
  opts.num_samples = 16;
  opts.threads = 2;
  const VerificationResult result = monte_carlo_verify(
      ev, DesignVec(problem.design.nominal),
      {OperatingVec{1.0}, OperatingVec{0.0}}, opts);
  EXPECT_TRUE(result.sample_pass.empty());
}

}  // namespace
}  // namespace mayo::core
