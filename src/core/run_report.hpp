// mayo/core -- structured run reports from the obs registry.
//
// A RunReport is a point-in-time snapshot of the process-wide
// instrumentation (obs::registry()): every counter, the per-phase wall
// time of the optimizer loop (paper Fig. 6), and optionally the headline
// numbers of one optimize_yield run.  It serializes to JSON under the
// stable schema "mayo.run_report/1":
//
//   {
//     "schema": "mayo.run_report/1",
//     "label": "<caller-chosen run name>",
//     "obs_enabled": true,
//     "phases": { "<phase>": {"seconds": <double>, "calls": <int>} },
//     "counters": { "<dotted.name>": <int>, ... },
//     "evaluations": { "optimization": ..., "verification": ...,
//                      "constraint": ..., "cache_hits": ... },
//     "optimizer": null | { "iterations": ..., "stop_reason": "...",
//                           "feasible_start_found": ...,
//                           "final_linear_yield": ...,
//                           "final_verified_yield": ...,
//                           "wall_seconds": ... }
//   }
//
// The key set is fixed by the obs Registry's enumeration order and is
// identical in obs-ON and obs-OFF builds (values are simply zero when the
// instrumentation is compiled out), so downstream tooling never branches
// on the build configuration.  Phase names map to the paper's Fig. 6
// boxes; see DESIGN.md "Observability".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "obs/obs.hpp"

namespace mayo::core {

/// One optimizer-loop phase: accumulated wall time and entry count.
struct PhaseReport {
  std::string name;
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// One monotonic event counter, keyed by its stable dotted name.
struct CounterReport {
  std::string name;
  std::uint64_t value = 0;
};

/// Headline numbers of one optimize_yield run (the "optimizer" JSON
/// section); absent until attach_optimizer() is called.
struct OptimizerReport {
  bool present = false;
  int iterations = 0;  ///< trace entries beyond the initial design
  StopReason stop_reason = StopReason::kMaxIterations;  ///< stop_reason_name()
  bool feasible_start_found = false;
  double final_linear_yield = 0.0;
  double final_verified_yield = -1.0;  ///< -1 when verification did not run
  double wall_seconds = 0.0;
};

/// Snapshot of the obs registry plus optional run metadata.
struct RunReport {
  std::string label;
  bool obs_enabled = obs::kEnabled;
  std::vector<PhaseReport> phases;      ///< fixed Fig. 6 phase order
  std::vector<CounterReport> counters;  ///< fixed registry schema order
  EvaluationCounts evaluations;
  OptimizerReport optimizer;
};

/// Snapshots every counter and phase timer of the process-wide registry.
/// `evaluations` is zero; callers with an Evaluator fold its counts() in.
RunReport snapshot_run_report(std::string label);

/// Fills the "optimizer" section (and `evaluations`) from a finished run.
void attach_optimizer(RunReport& report, const YieldOptimizationResult& result);

/// Serializes to the "mayo.run_report/1" JSON document (UTF-8, two-space
/// indent, keys in schema order, trailing newline).
std::string to_json(const RunReport& report);

/// Writes to_json(report) to `path`; throws std::runtime_error on I/O
/// failure.  This is the sanctioned file-output path for run reports
/// (tools/lint.py io-discipline allowlist).
void write_json_file(const RunReport& report, const std::string& path);

}  // namespace mayo::core
