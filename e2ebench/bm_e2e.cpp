// End-to-end yield-run benchmark: runs one workload in this process and
// prints one JSON document (the last line of stdout) with the raw
// per-repetition numbers, the span- and counter-derived layer metrics of
// the traced repetitions, and the result of every correctness check.
// Exits 1 when a check fails, 2 on bad arguments.  run_benchmark.py
// builds this binary, aggregates its output and compares results.
//
// Workloads (README.md says why each was chosen):
//   fc_table7      folded-cascode optimize_yield, paper Table-7 options
//   miller_table7  Miller optimize_yield, Table-7 options, 3 iterations
//   fc_verify      plain MC (N = 3000) then IS (64/64/4) at a pinned
//                  optimized folded-cascode design
//   fc_full_2t     the examples/opamp_yield configuration at 2 threads
//
// Every repetition builds a fresh problem and Evaluator, so caches start
// cold as they do for a user.  The untraced pass measures the end-to-end
// numbers; the traced pass that follows installs the bench-side tracer
// (e2e_trace.hpp) and yields the per-layer numbers.
//
// Flags:
//   --workload NAME       (required)
//   --seed S              seed of the Monte-Carlo and IS draws (default 42
//                         keeps the library defaults)
//   --reps N --seconds T  untraced pass: repeat until N reps and T seconds
//   --traced-reps N --traced-seconds T   the same for the traced pass
//   --smoke               tiny budgets (crash and wiring check)
//   --trace-out PATH      write the traced spans as JSON lines
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/is_verification.hpp"
#include "core/linearization.hpp"
#include "core/optimizer.hpp"
#include "core/verification.hpp"
#include "e2e_trace.hpp"
#include "obs/obs.hpp"
#include "stats/summary.hpp"

using namespace mayo;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// a / b; 0 when b is 0 (nothing happened); null when either is null.
double ratio(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return kNull;
  return b == 0.0 ? 0.0 : a / b;
}

/// fc_table7's final_d at --seed 42 (%.17g).  Pinned so that a later
/// optimizer change cannot move the design fc_verify verifies.
linalg::DesignVec pinned_fc_design() {
  return linalg::DesignVec{
      7.9969771444780079e-05, 2.6006396264899676e-05, 3.8154545795207499e-05,
      1.9622502321068214e-05, 1.9101235641826773e-05, 4.0000000000000003e-05,
      5.0000000000000002e-05};
}

enum class Workload { kFcTable7, kMillerTable7, kFcVerify, kFcFull2t };

const std::pair<const char*, Workload> kWorkloads[] = {
    {"fc_table7", Workload::kFcTable7},
    {"miller_table7", Workload::kMillerTable7},
    {"fc_verify", Workload::kFcVerify},
    {"fc_full_2t", Workload::kFcFull2t},
};

struct Budgets {
  int max_iterations = 4;       ///< Miller runs one fewer
  std::size_t linear_samples = 10000;
  std::size_t loop_mc = 300;    ///< fc_full_2t in-loop verification
  std::size_t final_mc = 1000;  ///< final_yield of the optimize workloads
  std::size_t verify_mc = 3000; ///< fc_verify plain MC
  std::size_t is_initial = 64;
  std::size_t is_round = 64;
  std::size_t is_rounds = 4;
};

Budgets smoke_budgets() {
  Budgets b;
  b.max_iterations = 1;
  b.linear_samples = 1000;
  b.loop_mc = 60;
  b.final_mc = 60;
  b.verify_mc = 60;
  b.is_initial = 16;
  b.is_round = 16;
  b.is_rounds = 1;
  return b;
}

struct Config {
  Workload workload = Workload::kFcTable7;
  std::string name;
  std::uint64_t seed = 42;
  bool smoke = false;
  Budgets budgets;
  std::size_t reps = 1;
  double seconds = 0.0;
  std::size_t traced_reps = 0;
  double traced_seconds = 0.0;
  std::string trace_out;

  bool optimizes() const { return workload != Workload::kFcVerify; }
  bool miller() const { return workload == Workload::kMillerTable7; }
  /// Seed of the MC and IS draws: --seed 42 gives the library default
  /// 0xC0FFEE.  The optimizer's linear-model sample set keeps the library
  /// default sample_seed = 42 for every --seed: across sample seeds the
  /// Fig.-6 loop stops after either 3 or 4 accepted iterations (folded
  /// cascode: 3,417 to 5,372 simulations over six seeds), a spread no
  /// useful wall-time bound could absorb.
  std::uint64_t mc_seed() const { return 0xC0FFEEULL + (seed - 42); }
};

/// FNV-1a over the bit patterns of a sequence of doubles.
struct Digest {
  std::uint64_t value = 1469598103934665603ULL;
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      value ^= (bits >> (8 * i)) & 0xFFU;
      value *= 1099511628211ULL;
    }
  }
};

double half_width(const stats::YieldInterval& ci) {
  return 0.5 * (ci.upper - ci.lower);
}

/// Counter and phase readings of one timed section (the obs registry is
/// reset at its start).  Null everywhere under MAYO_OBS=OFF.
struct ObsReading {
  double dc_solves = kNull, dc_newton = kNull, dc_nonconverged = kNull;
  double tran_solves = kNull, tran_steps = kNull, tran_newton = kNull;
  double tran_nonconverged = kNull, tran_seed_resets = kNull;
  double ac_stamps = kNull, ac_probes = kNull;
  double context_hits = kNull, context_misses = kNull;
  double context_evictions = kNull;
  double mc_samples = kNull, is_samples = kNull, is_rounds = kNull;
  double is_ess_fallbacks = kNull, sparse_refactor = kNull;
  double feasibility_s = kNull, linearization_s = kNull;
  double wc_search_s = kNull, wc_search_calls = kNull;
  double coordinate_search_s = kNull, line_search_s = kNull;
  double verification_s = kNull, is_verification_s = kNull;
};

ObsReading read_obs() {
  ObsReading r;
  if (!obs::kEnabled) return r;
  const obs::Counters& c = obs::registry().counters;
  auto v = [](const obs::Counter& counter) {
    return static_cast<double>(counter.value());
  };
  r.dc_solves = v(c.dc_solves);
  r.dc_newton = v(c.dc_newton_iterations);
  r.dc_nonconverged = v(c.dc_nonconverged);
  r.tran_solves = v(c.tran_solves);
  r.tran_steps = v(c.tran_steps);
  r.tran_newton = v(c.tran_newton_iterations);
  r.tran_nonconverged = v(c.tran_nonconverged);
  r.tran_seed_resets = v(c.tran_seed_resets);
  r.ac_stamps = v(c.ac_stamps);
  r.ac_probes = v(c.ac_probes);
  r.context_hits = v(c.design_context.hits);
  r.context_misses = v(c.design_context.misses);
  r.context_evictions = v(c.design_context.evictions);
  r.mc_samples = v(c.mc_samples);
  r.is_samples = v(c.mc_is_samples);
  r.is_rounds = v(c.mc_is_rounds);
  r.is_ess_fallbacks = v(c.mc_is_ess_fallbacks);
  r.sparse_refactor = v(c.sparse_refactor);
  const obs::Phases& p = obs::registry().phases;
  r.feasibility_s = p.feasibility.seconds();
  r.linearization_s = p.linearization.seconds();
  r.wc_search_s = p.worst_case_search.seconds();
  r.wc_search_calls = static_cast<double>(p.worst_case_search.calls());
  r.coordinate_search_s = p.coordinate_search.seconds();
  r.line_search_s = p.line_search.seconds();
  r.verification_s = p.verification.seconds();
  r.is_verification_s = p.is_verification.seconds();
  return r;
}

core::YieldOptimizerOptions optimizer_options(const Config& cfg) {
  const Budgets& b = cfg.budgets;
  core::YieldOptimizerOptions o;
  o.max_iterations =
      cfg.miller() ? std::max(1, b.max_iterations - 1) : b.max_iterations;
  o.linear_samples = b.linear_samples;
  o.run_verification = false;
  if (cfg.workload == Workload::kFcFull2t) {
    o.run_verification = true;
    o.verification.num_samples = b.loop_mc;
    o.verification.seed = cfg.mc_seed();
    o.linearization_threads = 2;
    o.run_is_verification = true;
    o.is_verification.initial_samples = b.is_initial;
    o.is_verification.round_samples = b.is_round;
    o.is_verification.max_rounds = b.is_rounds;
    o.is_verification.seed = cfg.mc_seed();
    o.is_verification.threads = 2;
  }
  return o;
}

/// One repetition's set-up: a fresh problem and Evaluator (cold caches)
/// and, for fc_verify, the linearization at the pinned design.
struct Setup {
  Setup(const Config& cfg, e2e::Tracer* tracer)
      : problem(cfg.miller() ? circuits::Miller::make_problem()
                             : circuits::FoldedCascode::make_problem()) {
    if (tracer != nullptr)
      problem.model = std::make_shared<e2e::TimedModel>(problem.model, *tracer);
    evaluator = std::make_unique<core::Evaluator>(problem);
    if (!cfg.optimizes()) {
      const e2e::ScopedSpan setup(tracer, "setup");
      const e2e::ScopedSpan span(tracer, "core.build_linearizations");
      linearized = core::build_linearizations(*evaluator, pinned_fc_design());
    }
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  core::YieldProblem problem;
  std::unique_ptr<core::Evaluator> evaluator;  ///< references `problem`
  core::LinearizedModels linearized;
};

/// One repetition: set-up, then the timed section.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t sims = 0;
  core::EvaluationCounts counts;  ///< evaluations of the timed section
  std::uint64_t design_digest = 0;   ///< final_d bits
  std::uint64_t outcome_digest = 0;  ///< final_d and every reported yield
  linalg::DesignVec final_d;
  std::vector<linalg::OperatingVec> theta_wc;  ///< last linearization
  double linear_yield = kNull;
  core::VerificationResult mc;  ///< fc_verify only
  bool has_is = false;
  core::IsVerificationResult is;
  ObsReading obs;
  std::uint64_t run_span = 0;  ///< traced reps: id of the "run" span
};

Rep run_rep(const Config& cfg, e2e::Tracer* tracer) {
  Rep rep;
  {
    const Clock::time_point setup_start = Clock::now();
    Setup setup(cfg, tracer);
    rep.setup_s = seconds_since(setup_start);
    core::Evaluator& ev = *setup.evaluator;

    obs::registry().reset();
    const core::EvaluationCounts before = ev.counts();
    const Clock::time_point start = Clock::now();
    {
      const e2e::ScopedSpan run(tracer, "run");
      if (tracer != nullptr) rep.run_span = tracer->current();
      if (cfg.optimizes()) {
        const e2e::ScopedSpan span(tracer, "core.optimize_yield");
        const core::YieldOptimizationResult result =
            core::optimize_yield(ev, optimizer_options(cfg));
        rep.final_d = result.final_d;
        rep.theta_wc = result.linearizations.back().operating.theta_wc;
        rep.linear_yield = result.trace.back().linear_yield;
        rep.has_is = result.is_verification_run;
        rep.is = result.is_verification;
      } else {
        rep.final_d = pinned_fc_design();
        rep.theta_wc = setup.linearized.operating.theta_wc;
        core::VerificationOptions mc_options;
        mc_options.num_samples = cfg.budgets.verify_mc;
        mc_options.seed = cfg.mc_seed();
        {
          const e2e::ScopedSpan span(tracer, "core.monte_carlo_verify");
          rep.mc = core::monte_carlo_verify(ev, rep.final_d, rep.theta_wc,
                                            mc_options);
        }
        std::vector<linalg::StatUnitVec> s_wc;
        for (const core::WorstCasePoint& wc : setup.linearized.worst_cases)
          s_wc.push_back(wc.s_wc);
        core::IsVerificationOptions is_options;
        is_options.initial_samples = cfg.budgets.is_initial;
        is_options.round_samples = cfg.budgets.is_round;
        is_options.max_rounds = cfg.budgets.is_rounds;
        is_options.seed = cfg.mc_seed();
        const e2e::ScopedSpan span(tracer, "core.importance_sample_verify");
        rep.is = core::importance_sample_verify(ev, rep.final_d, rep.theta_wc,
                                                s_wc, is_options);
        rep.has_is = true;
      }
    }
    rep.wall_s = seconds_since(start);
    rep.obs = read_obs();

    const core::EvaluationCounts& after = ev.counts();
    rep.counts.optimization = after.optimization - before.optimization;
    rep.counts.verification = after.verification - before.verification;
    rep.counts.constraint = after.constraint - before.constraint;
    rep.counts.cache_hits = after.cache_hits - before.cache_hits;
    rep.sims = cfg.workload == Workload::kFcTable7 ||
                       cfg.workload == Workload::kMillerTable7
                   ? rep.counts.optimization + rep.counts.constraint
                   : rep.counts.total();
  }  // every TimedModel is destroyed here, so all spans are merged

  Digest design;
  for (const double x : rep.final_d) design.add(x);
  rep.design_digest = design.value;
  Digest outcome = design;
  outcome.add(rep.mc.yield);
  outcome.add(rep.is.yield);
  outcome.add(rep.is.confidence.lower);
  outcome.add(rep.is.confidence.upper);
  rep.outcome_digest = outcome.value;
  return rep;
}

using Metrics = std::vector<std::pair<const char*, double>>;

/// Per-layer metrics of one traced repetition.
Metrics layer_metrics(const Rep& rep, const e2e::SpanSummary& s) {
  const ObsReading& o = rep.obs;
  const core::EvaluationCounts& c = rep.counts;
  const auto evals = static_cast<double>(c.total());
  const auto hits = static_cast<double>(c.cache_hits);
  return {
      {"core.wc_search_s", o.wc_search_s},
      {"core.wc_search_calls", o.wc_search_calls},
      {"core.evals_per_wc_search",
       ratio(static_cast<double>(c.optimization), o.wc_search_calls)},
      {"core.evals.optimization", static_cast<double>(c.optimization)},
      {"core.evals.constraint", static_cast<double>(c.constraint)},
      {"core.evals.verification", static_cast<double>(c.verification)},
      {"core.cache_hit_ratio", ratio(hits, hits + evals)},
      {"core.feasibility_s", o.feasibility_s},
      {"core.linearization_s", o.linearization_s},
      {"core.coordinate_search_s", o.coordinate_search_s},
      {"core.line_search_s", o.line_search_s},
      {"core.verification_s", o.verification_s},
      {"core.is_verification_s", o.is_verification_s},
      {"core.self_s", s.core_self_s},
      {"core.verify.mc_samples", o.mc_samples},
      {"core.verify.is_samples", o.is_samples},
      {"core.verify.is_rounds", o.is_rounds},
      {"core.verify.is_ess_fallbacks", o.is_ess_fallbacks},
      {"circuits.evaluate.calls", static_cast<double>(s.evaluate_calls)},
      {"circuits.evaluate.busy_s", s.evaluate_busy_s},
      {"circuits.evaluate.p50_ms", s.evaluate_p50_ms},
      {"circuits.evaluate.p99_ms", s.evaluate_p99_ms},
      {"circuits.constraints.calls", static_cast<double>(s.constraints_calls)},
      {"circuits.constraints.busy_s", s.constraints_busy_s},
      {"circuits.batch.calls", static_cast<double>(s.batch_calls)},
      {"circuits.batch.rows", static_cast<double>(s.batch_rows)},
      {"circuits.batch.busy_s", s.batch_busy_s},
      {"circuits.batch.ms_per_row",
       ratio(1e3 * s.batch_busy_s, static_cast<double>(s.batch_rows))},
      {"circuits.design_context.hit_ratio",
       ratio(o.context_hits, o.context_hits + o.context_misses)},
      {"circuits.design_context.evictions", o.context_evictions},
      {"sim.dc.solves_per_eval", ratio(o.dc_solves, evals)},
      {"sim.dc.newton_per_eval", ratio(o.dc_newton, evals)},
      {"sim.ac.stamps_per_eval", ratio(o.ac_stamps, evals)},
      {"sim.ac.probes_per_eval", ratio(o.ac_probes, evals)},
      {"sim.tran.steps_per_eval", ratio(o.tran_steps, evals)},
      {"sim.tran.newton_per_eval", ratio(o.tran_newton, evals)},
      {"sim.tran.seed_resets", o.tran_seed_resets},
      {"sim.nonconverged", o.dc_nonconverged + o.tran_nonconverged},
      {"linalg.sparse.refactor", o.sparse_refactor},
  };
}

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::string num(double x) {
  if (std::isnan(x) || std::isinf(x)) return "null";
  return fmt("%.17g", x);
}

/// Appends "key":value to a JSON object under construction.
void field(std::string& object, const char* key, const std::string& value) {
  if (object.back() != '{') object += ',';
  object += '"';
  object += key;
  object += "\":";
  object += value;
}

template <class Item>
std::string array(std::size_t n, Item item) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += item(i);
  }
  out += ']';
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
  return out;
}

int usage(const char* message, const std::string& detail = "") {
  std::fprintf(stderr,
               "bm_e2e: %s%s\nusage: bm_e2e --workload "
               "fc_table7|miller_table7|fc_verify|fc_full_2t [--seed S] "
               "[--reps N] [--seconds T] [--traced-reps N] "
               "[--traced-seconds T] [--smoke] [--trace-out PATH]\n",
               message, detail.c_str());
  return 2;
}

bool parse_count(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

bool parse_seconds(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0) || v > 86400.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t count = 0;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage("missing value or unknown flag: ", arg);
    } else if (arg == "--workload") {
      cfg.name = argv[++i];
      for (const auto& [name, workload] : kWorkloads)
        if (cfg.name == name) {
          cfg.workload = workload;
          have_workload = true;
        }
      if (!have_workload) return usage("unknown workload");
    } else if (arg == "--seed") {
      if (!parse_count(argv[++i], cfg.seed)) return usage("bad --seed");
    } else if (arg == "--reps" || arg == "--traced-reps") {
      if (!parse_count(argv[++i], count) || count > 10000)
        return usage("bad repetition count");
      (arg == "--reps" ? cfg.reps : cfg.traced_reps) = count;
    } else if (arg == "--seconds" || arg == "--traced-seconds") {
      if (!parse_seconds(argv[++i],
                         arg == "--seconds" ? cfg.seconds : cfg.traced_seconds))
        return usage("bad seconds");
    } else if (arg == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else {
      return usage("unknown flag: ", arg);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (cfg.reps == 0) return usage("--reps must be at least 1");
  if (cfg.smoke) cfg.budgets = smoke_budgets();

  std::vector<Check> checks;
  std::vector<Rep> reps;
  // setup_s: set-ups back to back, at least 3 and then until 50 samples
  // or 1 s.  The reps' own set-ups are not used: after a rep's heavy work
  // the same construction runs two to three times slower, so their share
  // of the samples would make the median depend on the run length.
  std::vector<double> setup_samples;
  double setup_total = 0.0;
  while (setup_samples.size() < 3 ||
         (setup_samples.size() < 50 && setup_total < 1.0)) {
    const Clock::time_point start = Clock::now();
    const Setup setup(cfg, nullptr);
    setup_samples.push_back(seconds_since(start));
    setup_total += setup_samples.back();
  }

  // Untraced pass: the end-to-end numbers.
  double elapsed = 0.0;
  while (reps.size() < cfg.reps || elapsed < cfg.seconds) {
    reps.push_back(run_rep(cfg, nullptr));
    elapsed += reps.back().setup_s + reps.back().wall_s;
  }

  // Traced pass: the per-layer numbers.
  std::vector<Rep> traced;
  std::vector<Metrics> traced_layers;
  std::FILE* trace_file = nullptr;
  if (cfg.traced_reps > 0 && !cfg.trace_out.empty()) {
    trace_file = std::fopen(cfg.trace_out.c_str(), "w");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "bm_e2e: cannot open %s\n", cfg.trace_out.c_str());
      return 2;
    }
  }
  bool accounted = true;
  std::string accounting_detail = "no traced reps";
  elapsed = 0.0;
  while (traced.size() < cfg.traced_reps ||
         (cfg.traced_reps > 0 && elapsed < cfg.traced_seconds)) {
    e2e::Tracer tracer;
    traced.push_back(run_rep(cfg, &tracer));
    const Rep& rep = traced.back();
    elapsed += rep.setup_s + rep.wall_s;
    const std::vector<e2e::SpanRecord> spans = tracer.take();
    const e2e::SpanSummary summary = e2e::summarize(spans, rep.run_span);
    traced_layers.push_back(layer_metrics(rep, summary));
    if (trace_file != nullptr)
      e2e::write_jsonl(trace_file, static_cast<int>(traced.size()), spans);

    // Span self times must account for the run span, and every model
    // evaluation the Evaluator counted must appear as a traced call.
    const double accounted_s = summary.core_self_s + summary.circuits_busy_s;
    const std::size_t traced_calls = summary.evaluate_calls +
                                     summary.batch_rows +
                                     summary.constraints_calls;
    const bool ok = summary.nested && tracer.lost() == 0 &&
                    std::fabs(accounted_s - summary.run_s) <=
                        0.01 * summary.run_s &&
                    traced_calls == rep.counts.total();
    accounting_detail =
        fmt("run %.6f s, core self + circuits busy %.6f s, traced model "
            "calls %zu vs %zu evaluations%s",
            summary.run_s, accounted_s, traced_calls, rep.counts.total(),
            summary.nested ? "" : ", spans not nested");
    accounted = accounted && ok;
  }
  if (trace_file != nullptr && std::fclose(trace_file) != 0) {
    std::fprintf(stderr, "bm_e2e: cannot write %s\n", cfg.trace_out.c_str());
    return 2;
  }
  if (!traced.empty())
    checks.push_back({"span_accounting", accounted, accounting_detail});

  // Determinism: every rep, traced or not, spends the same simulations
  // and ends in bitwise the same design and yields.
  const Rep& first = reps.front();
  bool same = true;
  for (const std::vector<Rep>* pass : {&reps, &traced})
    for (const Rep& rep : *pass)
      same = same && rep.sims == first.sims &&
             rep.outcome_digest == first.outcome_digest;
  checks.push_back({"reps_identical", same,
                    fmt("%zu reps, sims %zu, digest %016llx",
                        reps.size() + traced.size(), first.sims,
                        static_cast<unsigned long long>(first.outcome_digest))});

  // final_yield: plain MC at the final design.  The optimize workloads
  // run it once after the reps, outside the timed section, in a fresh
  // Evaluator; fc_verify reports its timed MC.
  core::VerificationResult final_mc = first.mc;
  if (cfg.optimizes()) {
    const Setup fresh(cfg, nullptr);
    core::VerificationOptions options;
    options.num_samples = cfg.budgets.final_mc;
    options.seed = cfg.mc_seed() + 1;  // independent of the in-loop MC
    final_mc = core::monte_carlo_verify(*fresh.evaluator, first.final_d,
                                        first.theta_wc, options);
  }
  if (!cfg.smoke)
    checks.push_back({"final_yield_wilson_upper_ge_0.99",
                      final_mc.confidence.upper >= 0.99,
                      fmt("yield %.6f, Wilson [%.6f, %.6f], N %zu",
                          final_mc.yield, final_mc.confidence.lower,
                          final_mc.confidence.upper,
                          cfg.optimizes() ? cfg.budgets.final_mc
                                          : cfg.budgets.verify_mc)});

  if (cfg.workload == Workload::kFcVerify) {
    // MC and IS must agree on the yield to 0.01: enough to catch a broken
    // estimator, not the known optimism of IS at this design.  The IS
    // proposal of each spec sits on its primary worst-case point only and
    // misses the mirrored CMRR failure lobe (CMRR fail probability: MC
    // 0.0023 at N = 10,000, IS 0.0012), so the bracket (about [0.9978,
    // 0.9991]) sits above the MC yield (0.9965 +- 0.0003 pooled over ten
    // seeds) and misses a 95% Wilson interval on three seeds in ten.
    const stats::YieldInterval& mc = first.mc.confidence;
    const stats::YieldInterval& is = first.is.confidence;
    checks.push_back(
        {"mc_is_agree", std::fabs(first.mc.yield - first.is.yield) <= 0.01,
         fmt("MC %.6f [%.6f, %.6f], IS %.6f [%.6f, %.6f]", first.mc.yield,
             mc.lower, mc.upper, first.is.yield, is.lower, is.upper)});
    const std::size_t corners =
        core::group_corners(first.theta_wc).distinct.size();
    const std::size_t mc_budget = cfg.budgets.verify_mc * corners;
    const std::size_t is_budget =
        cfg.budgets.is_initial * first.theta_wc.size() +
        cfg.budgets.is_round * cfg.budgets.is_rounds;
    checks.push_back(
        {"evaluations_equal_budget",
         first.mc.evaluations == mc_budget &&
             first.is.evaluations == is_budget &&
             first.counts.total() == mc_budget + is_budget,
         fmt("MC %zu of %zu, IS %zu of %zu, counted %zu", first.mc.evaluations,
             mc_budget, first.is.evaluations, is_budget,
             first.counts.total())});
  }

  const double yield_gap = cfg.optimizes()
                               ? std::fabs(first.linear_yield - final_mc.yield)
                               : kNull;
  const double ci_half_width = first.has_is ? half_width(first.is.confidence)
                                            : kNull;
  const ObsReading& o = first.obs;
  const double solve_fail_frac = ratio(o.dc_nonconverged + o.tran_nonconverged,
                                       o.dc_solves + o.tran_solves);
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;

  std::string out = "{";
  field(out, "workload", json_string(cfg.name));
  field(out, "seed", std::to_string(cfg.seed));
  field(out, "smoke", cfg.smoke ? "true" : "false");
  field(out, "obs", obs::kEnabled ? "true" : "false");
  field(out, "reps", array(reps.size(), [&](std::size_t i) {
          std::string rep = "{";
          field(rep, "wall_s", num(reps[i].wall_s));
          field(rep, "sims", std::to_string(reps[i].sims));
          return rep + "}";
        }));
  field(out, "setup_samples", array(setup_samples.size(), [&](std::size_t i) {
          return num(setup_samples[i]);
        }));
  field(out, "traced", array(traced.size(), [&](std::size_t i) {
          std::string layers = "{";
          for (const auto& [name, value] : traced_layers[i])
            field(layers, name, num(value));
          std::string rep = "{";
          field(rep, "wall_s", num(traced[i].wall_s));
          field(rep, "layers", layers + "}");
          return rep + "}";
        }));
  field(out, "final_yield", num(final_mc.yield));
  field(out, "yield_gap", num(yield_gap));
  field(out, "ci_half_width", num(ci_half_width));
  field(out, "solve_fail_frac", num(solve_fail_frac));
  field(out, "peak_rss_mb", num(peak_rss_mb));
  field(out, "design_digest",
        fmt("\"%016llx\"", static_cast<unsigned long long>(first.design_digest)));
  field(out, "checks", array(checks.size(), [&](std::size_t i) {
          std::string check = "{";
          field(check, "name", json_string(checks[i].name));
          field(check, "ok", checks[i].ok ? "true" : "false");
          field(check, "detail", json_string(checks[i].detail));
          return check + "}";
        }));
  field(out, "correct", correct ? "true" : "false");
  out += "}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
