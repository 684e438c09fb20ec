// RunReport contract: the "mayo.run_report/1" JSON schema is stable --
// fixed key set in fixed order, identical across obs-ON and obs-OFF
// builds -- and a real optimize_yield run populates the phase and counter
// sections the paper's Fig. 6 breakdown needs.  The golden test pins the
// exact serialized bytes for a hand-built report (every double chosen
// exactly representable), so any schema drift is a reviewed diff here.
#include "core/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

/// A fully hand-built report: two phases, four counters, fixed values.
RunReport golden_report() {
  RunReport report;
  report.label = "golden \"run\"";
  report.obs_enabled = true;
  report.phases.push_back({"feasibility", 0.25, 4});
  report.phases.push_back({"verification", 1.5, 1});
  report.counters.push_back({"probe_cache.hits", 12});
  report.counters.push_back({"eval.analyses", 15});
  report.counters.push_back({"eval.analyses_skipped", 5});
  report.counters.push_back({"mc.samples", 300});
  report.evaluations = {10, 300, 7, 2};
  report.optimizer.present = true;
  report.optimizer.iterations = 3;
  report.optimizer.feasible_start_found = true;
  report.optimizer.final_linear_yield = 0.875;
  report.optimizer.final_verified_yield = 0.75;
  report.optimizer.wall_seconds = 2.5;
  return report;
}

constexpr const char* kGoldenJson =
    "{\n"
    "  \"schema\": \"mayo.run_report/1\",\n"
    "  \"label\": \"golden \\\"run\\\"\",\n"
    "  \"obs_enabled\": true,\n"
    "  \"phases\": {\n"
    "    \"feasibility\": {\"seconds\": 0.25, \"calls\": 4},\n"
    "    \"verification\": {\"seconds\": 1.5, \"calls\": 1}\n"
    "  },\n"
    "  \"counters\": {\n"
    "    \"probe_cache.hits\": 12,\n"
    "    \"eval.analyses\": 15,\n"
    "    \"eval.analyses_skipped\": 5,\n"
    "    \"mc.samples\": 300\n"
    "  },\n"
    "  \"evaluations\": {\"optimization\": 10, \"verification\": 300, "
    "\"constraint\": 7, \"cache_hits\": 2},\n"
    "  \"optimizer\": {\"iterations\": 3, \"feasible_start_found\": true, "
    "\"final_linear_yield\": 0.875, \"final_verified_yield\": 0.75, "
    "\"wall_seconds\": 2.5}\n"
    "}\n";

TEST(RunReportJson, GoldenBytes) {
  EXPECT_EQ(to_json(golden_report()), kGoldenJson);
}

TEST(RunReportJson, AbsentOptimizerSectionIsNull) {
  RunReport report;
  report.label = "empty";
  report.obs_enabled = false;
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"optimizer\": null"), std::string::npos);
  EXPECT_NE(json.find("\"obs_enabled\": false"), std::string::npos);
  EXPECT_NE(json.find("\"phases\": {\n  }"), std::string::npos);
}

TEST(RunReportJson, EscapesControlCharacters) {
  RunReport report;
  report.label = std::string("a\nb\\c") + '\x01';
  const std::string json = to_json(report);
  EXPECT_NE(json.find("a\\u000ab\\\\c\\u0001"), std::string::npos);
}

TEST(RunReportSnapshot, CarriesTheFullRegistrySchema) {
  const RunReport report = snapshot_run_report("schema probe");
  EXPECT_EQ(report.label, "schema probe");
  EXPECT_EQ(report.obs_enabled, obs::kEnabled);
  ASSERT_EQ(report.phases.size(), 7u);
  ASSERT_EQ(report.counters.size(), 35u);
  EXPECT_EQ(report.phases.front().name, "feasibility");
  EXPECT_EQ(report.phases.back().name, "is_verification");
  EXPECT_EQ(report.counters.front().name, "probe_cache.hits");
  EXPECT_EQ(report.counters.back().name, "audit.rejects");

  // Every schema key serializes regardless of build mode.
  const std::string json = to_json(report);
  for (const char* key :
       {"\"schema\": \"mayo.run_report/1\"", "\"feasibility\"",
        "\"linearization\"", "\"worst_case_search\"", "\"coordinate_search\"",
        "\"line_search\"", "\"verification\"", "\"is_verification\"",
        "\"probe_cache.hits\"", "\"eval.analyses\"",
        "\"eval.analyses_skipped\"", "\"wc.iterations\"",
        "\"wc.out_of_reach\"", "\"wc.warm_starts\"",
        "\"wc.warm_fallbacks\"", "\"dc.newton_iterations\"",
        "\"tran.seed_resets\"", "\"mc.samples\"", "\"mc.is.samples\"",
        "\"mc.is.ess_fallbacks\"", "\"audit.runs\"", "\"audit.rejects\"",
        "\"evaluations\"", "\"optimizer\": null"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(RunReportIntegration, OptimizeRunPopulatesPhasesAndCounters) {
  auto problem = testing::make_synthetic_problem(0.2, 0.1);
  Evaluator ev(problem);
  YieldOptimizerOptions options;
  options.max_iterations = 2;
  options.linear_samples = 1000;
  options.verification.num_samples = 200;
  // Enable the IS final verification so its phase registers calls too
  // (the phase-coverage loop below requires every schema phase entered).
  options.run_is_verification = true;
  options.is_verification.initial_samples = 32;
  options.is_verification.max_rounds = 1;
  options.is_verification.round_samples = 16;
  const YieldOptimizationResult result = optimize_yield(ev, options);

  RunReport report = snapshot_run_report("synthetic optimize");
  attach_optimizer(report, result);

  EXPECT_TRUE(report.optimizer.present);
  EXPECT_TRUE(report.optimizer.feasible_start_found);
  EXPECT_TRUE(result.is_verification_run);
  EXPECT_EQ(result.is_verification.per_spec.size(), ev.num_specs());
  EXPECT_EQ(report.evaluations.optimization, result.counts.optimization);
  EXPECT_EQ(report.optimizer.iterations,
            static_cast<int>(result.trace.size()) - 1);

  if (obs::kEnabled) {
    // The run must have entered every Fig. 6 phase of the loop...
    for (const PhaseReport& phase : report.phases)
      EXPECT_GT(phase.calls, 0u) << phase.name;
    // ...and moved the cache / sampling counters.
    std::uint64_t probe_lookups = 0;
    std::uint64_t mc_samples = 0;
    std::uint64_t wc_iterations = 0;
    std::uint64_t wc_warm_starts = 0;
    for (const CounterReport& counter : report.counters) {
      if (counter.name == "probe_cache.hits" ||
          counter.name == "probe_cache.misses")
        probe_lookups += counter.value;
      if (counter.name == "mc.samples") mc_samples = counter.value;
      if (counter.name == "wc.iterations") wc_iterations = counter.value;
      if (counter.name == "wc.warm_starts") wc_warm_starts = counter.value;
    }
    EXPECT_GT(probe_lookups, 0u);
    EXPECT_GE(mc_samples, 200u);
    EXPECT_GT(wc_iterations, 0u);
    // The quadratic spec is mirrored, so every re-linearization follows
    // its worst-case point.
    EXPECT_GT(wc_warm_starts, 0u);
  }
}

TEST(RunReportFile, WritesAndRejectsBadPaths) {
  RunReport report = snapshot_run_report("file probe");
  const std::string path = "mayo_run_report_test.json";  // ctest cwd
  write_json_file(report, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_json(report));
  std::remove(path.c_str());

  EXPECT_THROW(write_json_file(report, "/nonexistent-dir/x/y.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace mayo::core
