// obs contract: counters and spans are observation-only instrumentation
// -- monotonic, allocation-free, process-global -- and the registry's
// fixed enumeration is the RunReport schema.  The integration tests pin
// the claims the module doc makes: counter totals are deterministic for a
// deterministic workload (serial == parallel), and enabling them never
// changes a computed bit.  Everything that asserts actual counting is
// gated on MAYO_OBS_ENABLED, so this binary also passes in the obs-OFF
// CI leg, where it instead pins the no-op shells.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/probe_cache.hpp"
#include "core/verification.hpp"
#include "synthetic_problem.hpp"

namespace mayo::obs {
namespace {

TEST(ObsRegistry, EnumeratesTheFixedCounterSchema) {
  // The dotted names ARE the RunReport schema: fixed set, fixed order,
  // no duplicates, identical in obs-ON and obs-OFF builds.
  std::vector<std::string> names;
  registry().each_counter(
      [&](const char* name, std::uint64_t) { names.emplace_back(name); });
  EXPECT_EQ(names.size(), 35u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  EXPECT_EQ(names.front(), "probe_cache.hits");
  EXPECT_EQ(names.back(), "audit.rejects");
  // The Evaluator's analysis accounting follows the three cache groups.
  ASSERT_GT(names.size(), 10u);
  EXPECT_EQ(names[9], "eval.analyses");
  EXPECT_EQ(names[10], "eval.analyses_skipped");

  std::vector<std::string> phase_names;
  registry().each_phase([&](const char* name, const PhaseTimer&) {
    phase_names.emplace_back(name);
  });
  const std::vector<std::string> expected = {
      "feasibility",       "linearization", "worst_case_search",
      "coordinate_search", "line_search",   "verification",
      "is_verification"};
  EXPECT_EQ(phase_names, expected);
}

TEST(ObsRegistry, ResetClearsEverything) {
  Registry local;
  local.counters.mc_samples.add(7);
  local.phases.verification.record(100);
  local.reset();
  std::uint64_t total = 0;
  local.each_counter([&](const char*, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(local.phases.verification.calls(), 0u);
}

#if MAYO_OBS_ENABLED

TEST(ObsCounter, AddsAndResets) {
  EXPECT_TRUE(kEnabled);
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsPhaseTimer, AccumulatesCallsAndTime) {
  PhaseTimer timer;
  timer.record(1500);
  timer.record(500);
  EXPECT_EQ(timer.calls(), 2u);
  EXPECT_EQ(timer.total_ns(), 2000u);
  EXPECT_DOUBLE_EQ(timer.seconds(), 2000.0 * 1e-9);
  timer.reset();
  EXPECT_EQ(timer.calls(), 0u);
  EXPECT_EQ(timer.total_ns(), 0u);
}

TEST(ObsSpan, RecordsOncePerScopeAndStopIsIdempotent) {
  PhaseTimer timer;
  {
    Span span(timer);
    span.stop();
    span.stop();  // idempotent: a second stop must not record again
  }
  EXPECT_EQ(timer.calls(), 1u);
  {
    Span span(timer);  // destructor-only path
  }
  EXPECT_EQ(timer.calls(), 2u);
}

TEST(ObsProbeCache, CountsHitsMissesEvictions) {
  CacheCounters tallies;
  core::ProbeCache cache(/*capacity=*/2, /*hash=*/nullptr, &tallies);
  const auto key = [](double x) {
    core::ProbeCache::Key k;
    core::ProbeCache::append_bits(k, &x, 1);
    return k;
  };
  EXPECT_EQ(cache.find(key(1.0)), nullptr);
  cache.insert(key(1.0), linalg::Vector{1.0});
  EXPECT_NE(cache.find(key(1.0)), nullptr);
  cache.insert(key(2.0), linalg::Vector{2.0});
  cache.insert(key(3.0), linalg::Vector{3.0});  // evicts 1.0
  EXPECT_EQ(tallies.hits.value(), 1u);
  EXPECT_EQ(tallies.misses.value(), 1u);
  EXPECT_EQ(tallies.evictions.value(), 1u);
}

// Counter totals are a pure function of the workload: the serial and the
// parallel verifier account every sample and block exactly once, so both
// runs move the global tallies by the same amount -- while the computed
// decisions stay bitwise identical with instrumentation enabled.
TEST(ObsIntegration, SerialAndParallelVerifyMoveCountersEqually) {
  const std::vector<linalg::OperatingVec> theta_wc = {
      linalg::OperatingVec{1.0}, linalg::OperatingVec{0.0}};
  core::VerificationOptions vopts;
  vopts.num_samples = 300;
  vopts.block_size = 32;
  vopts.record_decisions = true;

  Counters& tallies = registry().counters;

  auto serial_problem = mayo::testing::make_synthetic_problem(2.0, 1.0);
  core::Evaluator serial_ev(serial_problem);
  const std::uint64_t samples_0 = tallies.mc_samples.value();
  const std::uint64_t blocks_0 = tallies.mc_blocks.value();
  const core::VerificationResult serial = core::monte_carlo_verify(
      serial_ev, linalg::DesignVec(serial_problem.design.nominal), theta_wc,
      vopts);
  const std::uint64_t serial_samples = tallies.mc_samples.value() - samples_0;
  const std::uint64_t serial_blocks = tallies.mc_blocks.value() - blocks_0;

  auto parallel_problem = mayo::testing::make_synthetic_problem(2.0, 1.0);
  core::Evaluator parallel_ev(parallel_problem);
  core::VerificationOptions popts = vopts;
  popts.threads = 4;
  const std::uint64_t samples_1 = tallies.mc_samples.value();
  const std::uint64_t blocks_1 = tallies.mc_blocks.value();
  const core::VerificationResult parallel = core::monte_carlo_verify(
      parallel_ev, linalg::DesignVec(parallel_problem.design.nominal),
      theta_wc, popts);

  EXPECT_EQ(serial_samples, vopts.num_samples);
  EXPECT_EQ(serial_blocks, (vopts.num_samples + vopts.block_size - 1) /
                               vopts.block_size);
  EXPECT_EQ(tallies.mc_samples.value() - samples_1, serial_samples);
  EXPECT_EQ(tallies.mc_blocks.value() - blocks_1, serial_blocks);

  // Observation only: instrumented runs decide identically.
  EXPECT_EQ(parallel.sample_pass, serial.sample_pass);
  EXPECT_EQ(parallel.yield, serial.yield);

  // The verification phase saw both runs.
  EXPECT_GE(registry().phases.verification.calls(), 2u);
}

#else  // !MAYO_OBS_ENABLED -- pin the compiled-out shells.

TEST(ObsBuildMode, ShellsNeverCountOrTime) {
  EXPECT_FALSE(kEnabled);
  Counter counter;
  counter.add(3);
  EXPECT_EQ(counter.value(), 0u);
  PhaseTimer timer;
  timer.record(1000);
  EXPECT_EQ(timer.calls(), 0u);
  EXPECT_EQ(timer.seconds(), 0.0);
  {
    Span span(timer);
    span.stop();
  }
  EXPECT_EQ(timer.total_ns(), 0u);
}

#endif  // MAYO_OBS_ENABLED

}  // namespace
}  // namespace mayo::obs
