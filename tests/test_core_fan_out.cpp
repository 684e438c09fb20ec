// core::WorkerPool: the body runs inline on the caller when n <= 1 and on
// cloned workers otherwise, worker counts reach the caller exactly once,
// and a worker's exception is rethrown on the calling thread -- the
// lowest-index one -- for the pool itself and for each of its users.
#include "core/fan_out.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/is_verification.hpp"
#include "core/linearization.hpp"
#include "core/verification.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

TEST(WorkerPool, SingleWorkerRunsInlineOnTheCaller) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  WorkerPool pool(ev, 1);
  std::vector<std::pair<unsigned, unsigned>> calls;
  const Evaluator* seen = nullptr;
  std::thread::id thread;
  pool.run(5, [&](unsigned w, unsigned n, Evaluator& worker) {
    calls.emplace_back(w, n);
    seen = &worker;
    thread = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, (std::vector<std::pair<unsigned, unsigned>>{{0u, 1u}}));
  EXPECT_EQ(seen, &ev);
  EXPECT_EQ(thread, std::this_thread::get_id());
}

TEST(WorkerPool, RunsMinOfTasksAndThreadsOnClonedModels) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  WorkerPool pool(ev, 4);
  std::vector<unsigned> widths(4, 0);
  std::vector<const Evaluator*> evaluators(4, nullptr);
  pool.run(3, [&](unsigned w, unsigned n, Evaluator& worker) {
    widths[w] = n;
    evaluators[w] = &worker;
  });
  EXPECT_EQ(widths, (std::vector<unsigned>{3u, 3u, 3u, 0u}));
  for (std::size_t w = 0; w < 3; ++w) {
    SCOPED_TRACE(w);
    ASSERT_NE(evaluators[w], nullptr);
    EXPECT_NE(evaluators[w], &ev);
    EXPECT_NE(evaluators[w]->problem().model, problem.model);
    for (std::size_t v = 0; v < w; ++v)
      EXPECT_NE(evaluators[w]->problem().model,
                evaluators[v]->problem().model);
  }

  // One task needs no worker: it runs inline, whatever the pool's width.
  const Evaluator* seen = nullptr;
  pool.run(1, [&](unsigned, unsigned, Evaluator& worker) { seen = &worker; });
  EXPECT_EQ(seen, &ev);
}

TEST(WorkerPool, NonClonableModelRunsInline) {
  class NonClonable final : public PerformanceModel {
   public:
    std::size_t num_performances() const override { return 2; }
    std::size_t num_constraints() const override { return 2; }
    linalg::PerfVec evaluate(const DesignVec& d, const linalg::StatPhysVec& s,
                             const OperatingVec& theta) override {
      return linalg::PerfVec{testing::SyntheticModel::linear(d, s, theta),
                             testing::SyntheticModel::quadratic(d, s)};
    }
    linalg::Vector constraints(const DesignVec& d) override {
      return testing::SyntheticModel::constraint_values(d);
    }
    // clone() deliberately not overridden.
  };
  auto problem = testing::make_synthetic_problem();
  problem.model = std::make_shared<NonClonable>();
  Evaluator ev(problem);
  WorkerPool pool(ev, 4);
  std::vector<std::pair<unsigned, unsigned>> calls;
  for (int run = 0; run < 2; ++run)
    pool.run(8, [&](unsigned w, unsigned n, Evaluator& worker) {
      calls.emplace_back(w, n);
      EXPECT_EQ(&worker, &ev);
    });
  EXPECT_EQ(calls,
            (std::vector<std::pair<unsigned, unsigned>>{{0u, 1u}, {0u, 1u}}));
}

TEST(WorkerPool, WorkerCountsReachTheCallerOnceAndCachesPersist) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  WorkerPool pool(ev, 2);
  const auto body = [&](unsigned w, unsigned, Evaluator& worker) {
    StatUnitVec s = worker.nominal_s_hat();
    s[0] = 0.25 * (w + 1);
    (void)worker.performances(d, s, OperatingVec{0.0});
    (void)worker.performances(d, s, OperatingVec{0.0});
  };
  pool.run(2, body);
  EXPECT_EQ(ev.counts().optimization, 2u);
  EXPECT_EQ(ev.counts().cache_hits, 2u);
  // Workers outlive a run: the same probes are all cache hits now, and
  // the first run's evaluations are not counted again.
  pool.run(2, body);
  EXPECT_EQ(ev.counts().optimization, 2u);
  EXPECT_EQ(ev.counts().cache_hits, 6u);
  EXPECT_EQ(ev.cache_size(), 0u);
}

TEST(WorkerPool, RethrowsTheLowestIndexWorkersException) {
  auto problem = testing::make_synthetic_problem();
  Evaluator ev(problem);
  const DesignVec d(problem.design.nominal);
  WorkerPool pool(ev, 3);
  for (unsigned first_failing : {0u, 1u, 2u}) {
    SCOPED_TRACE(first_failing);
    try {
      pool.run(3, [&](unsigned w, unsigned, Evaluator& worker) {
        // Every worker evaluates a point of its own before failing, and
        // those evaluations still reach the caller.
        StatUnitVec s = worker.nominal_s_hat();
        s[1] = 0.1 * (w + 1) + first_failing;
        (void)worker.performances(d, s, OperatingVec{0.0});
        if (w >= first_failing)
          throw std::runtime_error("worker " + std::to_string(w));
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "worker " + std::to_string(first_failing));
    }
    EXPECT_EQ(ev.counts().optimization, 3u * (first_failing + 1));
  }
}

// The faulty model throws past |s| = 1: the operating-corner sweep at the
// nominal point is clean, worst-case searches and samples fail -- on pool
// workers when threads > 1.  Every user of the pool must hand the model's
// exception to its caller instead of terminating.
constexpr double kFaultRadius = 1.0;

TEST(FanOutFailure, MonteCarloVerifyRethrowsOnTheCaller) {
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    auto problem = testing::make_faulty_synthetic_problem(kFaultRadius);
    Evaluator ev(problem);
    VerificationOptions options;
    options.num_samples = 128;
    options.threads = threads;
    EXPECT_THROW(monte_carlo_verify(ev, DesignVec(problem.design.nominal),
                                    {OperatingVec{1.0}, OperatingVec{0.0}},
                                    options),
                 std::runtime_error);
  }
}

TEST(FanOutFailure, BuildLinearizationsRethrowsOnTheCaller) {
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    auto problem = testing::make_faulty_synthetic_problem(kFaultRadius);
    Evaluator ev(problem);
    EXPECT_THROW(build_linearizations(ev, DesignVec(problem.design.nominal),
                                      {}, threads),
                 std::runtime_error);
  }
}

TEST(FanOutFailure, ImportanceSampleVerifyRethrowsOnTheCaller) {
  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    auto problem = testing::make_faulty_synthetic_problem(kFaultRadius);
    Evaluator ev(problem);
    IsVerificationOptions options;
    options.initial_samples = 64;
    options.block_size = 16;
    options.threads = threads;
    EXPECT_THROW(
        importance_sample_verify(
            ev, DesignVec(problem.design.nominal),
            {OperatingVec{1.0}, OperatingVec{0.0}},
            {StatUnitVec{0.4, 0.8, 0.0}, StatUnitVec{0.0, 1.2, -1.2}},
            options),
        std::runtime_error);
  }
}

}  // namespace
}  // namespace mayo::core
