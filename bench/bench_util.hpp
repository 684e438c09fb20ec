// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench prints (a) the reproduced table in the paper's layout and
// (b) a short "paper vs. measured" comparison of the qualitative claims it
// carries.  Absolute numbers differ -- the substrate is this repo's
// simulator and a generic process, not the authors' testbed -- the *shape*
// (who fails, what improves, by how much) is the reproduction target.
//
// The benches that run optimize_yield take `--sample-seed S`, the linear
// model's sample set (default 42), so tools/paper_verdicts.sh can check
// every claim over several seeds.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/report.hpp"

namespace mayo::bench {

/// Parses the command line of a bench whose only option is
/// `--sample-seed S`, the linear model's sample set of every optimize_yield
/// run (YieldOptimizerOptions::sample_seed; default: the library's, 42).
/// Returns false, with a message on stderr, on any other argument or a
/// missing or non-decimal S; the bench then exits 2.
inline bool parse_sample_seed(int argc, char** argv, std::uint64_t& seed) {
  seed = core::YieldOptimizerOptions{}.sample_seed;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sample-seed") != 0 || i + 1 == argc) {
      std::fprintf(stderr, "usage: %s [--sample-seed S]\n", argv[0]);
      return false;
    }
    const char* text = argv[++i];
    const char* end = text + std::strlen(text);
    const auto [stop, error] = std::from_chars(text, end, seed);
    if (error != std::errc() || stop != end) {
      std::fprintf(stderr,
                   "%s: --sample-seed needs a decimal integer, got '%s'\n",
                   argv[0], text);
      return false;
    }
  }
  return true;
}

/// A worst-case distance as printed in a trace.  A search that did not
/// converge reports only how far it got, and the spec's boundary lies
/// beyond that: ">10.00" when the nominal point passes, "<-10.00" (or
/// "<-0.00") when it fails.
inline std::string fmt_beta(const core::SpecSnapshot& snap) {
  std::string text;
  if (!snap.beta_converged)
    text.push_back(std::signbit(snap.beta) ? '<' : '>');
  text += core::fmt(snap.beta, 2);
  return text;
}

/// Prints why the Fig.-6 loop stopped, for a run on `samples` linear-model
/// samples: "loop stopped: predicted_gain after 3 iterations (last search
/// +1 of 10000 samples; the rule stops at <= +2)", prefixed by `who`.
inline void print_stop(const char* who,
                       const core::YieldOptimizationResult& result,
                       std::size_t samples) {
  std::printf(
      "%sloop stopped: %s after %zu iterations (last search %+lld of %zu "
      "samples; the rule stops at <= +%zu)\n",
      who, core::stop_reason_name(result.stop_reason),
      result.trace.size() - 1, static_cast<long long>(result.predicted_gain),
      samples, core::kStopGainSamples);
}

/// Prints an optimization trace in the layout of paper Tables 1/3/4/6:
/// one column per performance, blocks of rows per iteration.
inline void print_trace(const core::YieldOptimizationResult& result,
                        const std::vector<std::string>& names,
                        const std::vector<core::Specification>& specs) {
  std::vector<std::string> header = {"", ""};
  for (const auto& name : names) header.push_back(name);
  core::TextTable table(header);

  std::vector<std::string> spec_row = {"", "Specification"};
  for (const auto& spec : specs)
    spec_row.push_back(
        (spec.kind == core::SpecKind::kLowerBound ? "> " : "< ") +
        core::fmt(spec.bound, 2) + " " + spec.unit);
  table.add_row(spec_row);

  for (const auto& record : result.trace) {
    const char* suffix = "th";
    if (record.iteration == 1) suffix = "st";
    if (record.iteration == 2) suffix = "nd";
    if (record.iteration == 3) suffix = "rd";
    const std::string label =
        record.iteration == 0
            ? "Initial"
            : std::to_string(record.iteration) + suffix + " Iter";
    std::vector<std::string> margin_row = {label, "f - f_b"};
    std::vector<std::string> bad_row = {"", "bad samples [permille]"};
    std::vector<std::string> beta_row = {"", "beta_wc"};
    for (const auto& snap : record.specs) {
      margin_row.push_back(core::fmt(snap.nominal_margin, 2));
      bad_row.push_back(core::fmt(snap.bad_permille, 1));
      beta_row.push_back(fmt_beta(snap));
    }
    table.add_row(margin_row);
    table.add_row(bad_row);
    table.add_row(beta_row);
    // The linear models' yield at this iterate, after the yield the search
    // predicted for it on the previous iterate's models.
    std::string linear = core::fmt_percent(record.linear_yield, 2);
    if (record.predicted_yield >= 0.0)
      linear = core::fmt_percent(record.predicted_yield, 2) + " -> " + linear;
    std::vector<std::string> linear_row = {"", "Y_bar (predicted -> linear)",
                                           linear};
    std::vector<std::string> yield_row = {"", "Y~ (verified MC)"};
    for (std::size_t i = 0; i < record.specs.size(); ++i) {
      if (i > 0) linear_row.push_back("");
      yield_row.push_back(i == 0 && record.verified_yield >= 0.0
                              ? core::fmt_percent(record.verified_yield, 1)
                              : "");
    }
    table.add_row(linear_row);
    table.add_row(yield_row);
  }
  std::fputs(table.str().c_str(), stdout);
}

/// One "claim" line of the paper-vs-measured comparison.
inline void claim(const char* description, const std::string& paper,
                  const std::string& measured, bool holds) {
  std::printf("  %-58s paper: %-18s measured: %-18s [%s]\n", description,
              paper.c_str(), measured.c_str(), holds ? "OK" : "DEVIATES");
}

inline void section(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace mayo::bench
