#include "core/run_report.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace mayo::core {

RunReport snapshot_run_report(std::string label) {
  RunReport report;
  report.label = std::move(label);
  const obs::Registry& registry = obs::registry();
  registry.each_phase([&](const char* name, const obs::PhaseTimer& timer) {
    report.phases.push_back({name, timer.seconds(), timer.calls()});
  });
  registry.each_counter([&](const char* name, std::uint64_t value) {
    report.counters.push_back({name, value});
  });
  return report;
}

void attach_optimizer(RunReport& report,
                      const YieldOptimizationResult& result) {
  report.evaluations = result.counts;
  report.optimizer.present = true;
  report.optimizer.iterations =
      result.trace.empty() ? 0 : static_cast<int>(result.trace.size()) - 1;
  report.optimizer.stop_reason = result.stop_reason;
  report.optimizer.feasible_start_found = result.feasible_start_found;
  if (!result.trace.empty()) {
    report.optimizer.final_linear_yield = result.trace.back().linear_yield;
    report.optimizer.final_verified_yield = result.trace.back().verified_yield;
  }
  report.optimizer.wall_seconds = result.wall_seconds;
}

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
void append_escaped(std::string& out, const std::string& s) {
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
}

/// Shortest-round-trip-adjacent double formatting (%.17g preserves the
/// exact value; integral doubles keep a trailing ".0" so the JSON type
/// stays "number with fraction" for every reader).
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
  for (const char* p = buf; *p; ++p)
    if (*p == '.' || *p == 'e' || *p == 'n' || *p == 'i') return;
  out += ".0";
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

std::string to_json(const RunReport& report) {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"schema\": \"mayo.run_report/1\",\n  \"label\": \"";
  append_escaped(out, report.label);
  out += "\",\n  \"obs_enabled\": ";
  out += report.obs_enabled ? "true" : "false";

  out += ",\n  \"phases\": {";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseReport& phase = report.phases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_escaped(out, phase.name);
    out += "\": {\"seconds\": ";
    append_double(out, phase.seconds);
    out += ", \"calls\": ";
    append_u64(out, phase.calls);
    out += "}";
  }
  out += "\n  },";

  out += "\n  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    const CounterReport& counter = report.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_escaped(out, counter.name);
    out += "\": ";
    append_u64(out, counter.value);
  }
  out += "\n  },";

  out += "\n  \"evaluations\": {\"optimization\": ";
  append_u64(out, report.evaluations.optimization);
  out += ", \"verification\": ";
  append_u64(out, report.evaluations.verification);
  out += ", \"constraint\": ";
  append_u64(out, report.evaluations.constraint);
  out += ", \"cache_hits\": ";
  append_u64(out, report.evaluations.cache_hits);
  out += "},";

  out += "\n  \"optimizer\": ";
  if (!report.optimizer.present) {
    out += "null";
  } else {
    out += "{\"iterations\": ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", report.optimizer.iterations);
    out += buf;
    out += ", \"stop_reason\": \"";
    out += stop_reason_name(report.optimizer.stop_reason);
    out += "\", \"feasible_start_found\": ";
    out += report.optimizer.feasible_start_found ? "true" : "false";
    out += ", \"final_linear_yield\": ";
    append_double(out, report.optimizer.final_linear_yield);
    out += ", \"final_verified_yield\": ";
    append_double(out, report.optimizer.final_verified_yield);
    out += ", \"wall_seconds\": ";
    append_double(out, report.optimizer.wall_seconds);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

void write_json_file(const RunReport& report, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::string message = "write_json_file: cannot open ";
    message += path;
    throw std::runtime_error(message);
  }
  const std::string json = to_json(report);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!file) {
    std::string message = "write_json_file: write failed for ";
    message += path;
    throw std::runtime_error(message);
  }
}

}  // namespace mayo::core
