// mayo/obs -- deterministic instrumentation: monotonic counters and
// timing spans for the yield-optimization loop.
//
// Design rules (the reason this is its own bottom-layer module):
//   * Observation only.  Nothing in here ever feeds back into a
//     computation: counters and spans cannot perturb a result bit.  The
//     bitwise determinism suites (scalar == batch == parallel) run with
//     obs enabled.
//   * Allocation-free on the hot path.  Every counter is a fixed struct
//     member; incrementing is one relaxed atomic add.  Spans read the
//     steady clock twice and fold nanoseconds into an accumulator.
//     Registration, maps, and string keys do not exist.
//   * Compiled out entirely under -DMAYO_OBS_ENABLED=0 (CMake option
//     MAYO_OBS=OFF): Counter/PhaseTimer/Span become empty no-op types, so
//     call sites vanish at -O1 and the library carries zero overhead.
//   * Thread-safe by construction.  Counters are relaxed atomics; the
//     parallel verifier's workers all hit the same registry.  Counter
//     *totals* are deterministic for a deterministic workload; the split
//     across workers is not (work is pulled), which is why decisions and
//     results never depend on them.
//
// The process-wide Registry (obs::registry()) is the sink the whole stack
// increments into; core/run_report.{hpp,cpp} snapshots it into the
// structured RunReport JSON (the sanctioned output path).  Timing uses
// std::chrono::steady_clock, the one clock the determinism lint allows:
// elapsed-time reporting only, never seeding or decisions.
#pragma once

#include <chrono>
#include <cstdint>

#ifndef MAYO_OBS_ENABLED
#define MAYO_OBS_ENABLED 1
#endif

#if MAYO_OBS_ENABLED
#include <atomic>
#endif

namespace mayo::obs {

#if MAYO_OBS_ENABLED

inline constexpr bool kEnabled = true;

/// Monotonic event counter.  Relaxed atomic: increments from parallel
/// workers merge without ordering cost; reads are for reporting only.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall time + entry count of one phase.
class PhaseTimer {
 public:
  void record(std::uint64_t elapsed_ns) noexcept {
    ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t total_ns() const noexcept {
    return ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  double seconds() const noexcept {
    return static_cast<double>(total_ns()) * 1e-9;
  }
  void reset() noexcept {
    ns_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// RAII timing span: accumulates the elapsed time between construction
/// and destruction (or stop()) into a PhaseTimer.
class Span {
 public:
  explicit Span(PhaseTimer& timer) noexcept
      : timer_(&timer), start_(std::chrono::steady_clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Ends the span early (idempotent).
  void stop() noexcept {
    if (timer_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    timer_ = nullptr;
  }

 private:
  PhaseTimer* timer_;
  std::chrono::steady_clock::time_point start_;
};

#else  // !MAYO_OBS_ENABLED -- every type is an empty no-op shell.

inline constexpr bool kEnabled = false;

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class PhaseTimer {
 public:
  void record(std::uint64_t) noexcept {}
  std::uint64_t total_ns() const noexcept { return 0; }
  std::uint64_t calls() const noexcept { return 0; }
  double seconds() const noexcept { return 0.0; }
  void reset() noexcept {}
};

class Span {
 public:
  explicit Span(PhaseTimer&) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void stop() noexcept {}
};

#endif  // MAYO_OBS_ENABLED

/// Hit/miss/eviction triple of one cache (ProbeCache instances, the
/// per-(d, theta) DesignContext caches of the circuit models).
struct CacheCounters {
  Counter hits;
  Counter misses;
  Counter evictions;

  void reset() noexcept {
    hits.reset();
    misses.reset();
    evictions.reset();
  }
};

/// Every counter the stack increments.  Fixed members, no registration:
/// the set is the schema (run_report mirrors it name for name).
struct Counters {
  CacheCounters probe_cache;       ///< Evaluator's (d, s_hat, theta) cache
  CacheCounters constraint_cache;  ///< Evaluator's c(d) cache
  CacheCounters design_context;    ///< circuit models' per-(d, theta) cache

  Counter eval_analyses;          ///< model analyses run by the Evaluator
  Counter eval_analyses_skipped;  ///< analyses a full evaluation of a newly
                                  ///< simulated point would have run but
                                  ///< its request did not need

  Counter wc_iterations;   ///< worst-case search sequential-linearization
                           ///< iterations, over all starts
  Counter wc_out_of_reach; ///< search starts stopped on the trust sphere
                           ///< with the level set still beyond it
  Counter wc_warm_starts;    ///< searches started at the previous iterate's
                             ///< worst-case point
  Counter wc_warm_fallbacks; ///< warm starts that did not converge and ran
                             ///< the full multi-start search

  Counter ac_stamps;  ///< AcSession netlist stamp passes
  Counter ac_probes;  ///< AcSession frequency solves

  Counter dc_solves;             ///< solve_dc calls
  Counter dc_newton_iterations;  ///< Newton iterations across all attempts
  Counter dc_nonconverged;       ///< solve_dc calls that failed

  Counter tran_solves;             ///< solve_transient calls
  Counter tran_steps;              ///< accepted time steps
  Counter tran_newton_iterations;  ///< Newton iterations (incl. retries)
  Counter tran_nonconverged;       ///< runs that gave up mid-trajectory
  Counter tran_seed_resets;        ///< warm-start seeds dropped after a
                                   ///< non-converged seeded step

  Counter mc_samples;  ///< MC verification samples accumulated
  Counter mc_blocks;   ///< MC verification sample blocks evaluated

  Counter mc_is_samples;        ///< IS verification samples accumulated
  Counter mc_is_blocks;         ///< IS verification sample blocks evaluated
  Counter mc_is_rounds;         ///< adaptive IS allocation rounds completed
  Counter mc_is_ess_fallbacks;  ///< per-spec estimates forced self-normalized

  /// Nothing increments this.  It stays only because the end-to-end
  /// benchmark reads it for its `linalg.sparse.refactor` metric.
  Counter sparse_refactor;

  Counter audit_runs;      ///< audit_netlist invocations
  Counter audit_findings;  ///< diagnostics produced across all runs
  Counter audit_rejects;   ///< boundary enforcements that threw AuditError

  void reset() noexcept {
    probe_cache.reset();
    constraint_cache.reset();
    design_context.reset();
    eval_analyses.reset();
    eval_analyses_skipped.reset();
    wc_iterations.reset();
    wc_out_of_reach.reset();
    wc_warm_starts.reset();
    wc_warm_fallbacks.reset();
    ac_stamps.reset();
    ac_probes.reset();
    dc_solves.reset();
    dc_newton_iterations.reset();
    dc_nonconverged.reset();
    tran_solves.reset();
    tran_steps.reset();
    tran_newton_iterations.reset();
    tran_nonconverged.reset();
    tran_seed_resets.reset();
    mc_samples.reset();
    mc_blocks.reset();
    mc_is_samples.reset();
    mc_is_blocks.reset();
    mc_is_rounds.reset();
    mc_is_ess_fallbacks.reset();
    sparse_refactor.reset();
    audit_runs.reset();
    audit_findings.reset();
    audit_rejects.reset();
  }
};

/// Per-phase wall-time breakdown of the optimizer loop, keyed to the five
/// boxes of the paper's Fig. 6 (plus the linear-model coordinate search,
/// which the figure folds into its yield-maximization box).
struct Phases {
  PhaseTimer feasibility;        ///< feasible start + constraint models
  PhaseTimer linearization;      ///< spec-wise model building (eq. 15-16)
  PhaseTimer worst_case_search;  ///< worst-case operating + distance search
  PhaseTimer coordinate_search;  ///< yield maximization on linear models
  PhaseTimer line_search;        ///< feasibility line search (eq. 23)
  PhaseTimer verification;       ///< simulation Monte-Carlo verify (eq. 6-7)
  PhaseTimer is_verification;    ///< importance-sampled verify (mean shift)

  void reset() noexcept {
    feasibility.reset();
    linearization.reset();
    worst_case_search.reset();
    coordinate_search.reset();
    line_search.reset();
    verification.reset();
    is_verification.reset();
  }
};

/// The process-wide instrumentation sink.
class Registry {
 public:
  Counters counters;
  Phases phases;

  void reset() noexcept {
    counters.reset();
    phases.reset();
  }

  /// Enumerates every counter in fixed (schema) order.  The names are the
  /// stable dotted keys of the RunReport JSON; both builds (obs ON and
  /// OFF) enumerate the identical set, so the report schema never depends
  /// on the build configuration.
  template <typename Fn>
  void each_counter(Fn&& fn) const {
    const Counters& c = counters;
    fn("probe_cache.hits", c.probe_cache.hits.value());
    fn("probe_cache.misses", c.probe_cache.misses.value());
    fn("probe_cache.evictions", c.probe_cache.evictions.value());
    fn("constraint_cache.hits", c.constraint_cache.hits.value());
    fn("constraint_cache.misses", c.constraint_cache.misses.value());
    fn("constraint_cache.evictions", c.constraint_cache.evictions.value());
    fn("design_context.hits", c.design_context.hits.value());
    fn("design_context.misses", c.design_context.misses.value());
    fn("design_context.evictions", c.design_context.evictions.value());
    fn("eval.analyses", c.eval_analyses.value());
    fn("eval.analyses_skipped", c.eval_analyses_skipped.value());
    fn("wc.iterations", c.wc_iterations.value());
    fn("wc.out_of_reach", c.wc_out_of_reach.value());
    fn("wc.warm_starts", c.wc_warm_starts.value());
    fn("wc.warm_fallbacks", c.wc_warm_fallbacks.value());
    fn("ac.stamps", c.ac_stamps.value());
    fn("ac.probes", c.ac_probes.value());
    fn("dc.solves", c.dc_solves.value());
    fn("dc.newton_iterations", c.dc_newton_iterations.value());
    fn("dc.nonconverged", c.dc_nonconverged.value());
    fn("tran.solves", c.tran_solves.value());
    fn("tran.steps", c.tran_steps.value());
    fn("tran.newton_iterations", c.tran_newton_iterations.value());
    fn("tran.nonconverged", c.tran_nonconverged.value());
    fn("tran.seed_resets", c.tran_seed_resets.value());
    fn("mc.samples", c.mc_samples.value());
    fn("mc.blocks", c.mc_blocks.value());
    fn("mc.is.samples", c.mc_is_samples.value());
    fn("mc.is.blocks", c.mc_is_blocks.value());
    fn("mc.is.rounds", c.mc_is_rounds.value());
    fn("mc.is.ess_fallbacks", c.mc_is_ess_fallbacks.value());
    fn("sparse.refactor", c.sparse_refactor.value());
    fn("audit.runs", c.audit_runs.value());
    fn("audit.findings", c.audit_findings.value());
    fn("audit.rejects", c.audit_rejects.value());
  }

  /// Enumerates every phase timer in fixed (schema) order.
  template <typename Fn>
  void each_phase(Fn&& fn) const {
    fn("feasibility", phases.feasibility);
    fn("linearization", phases.linearization);
    fn("worst_case_search", phases.worst_case_search);
    fn("coordinate_search", phases.coordinate_search);
    fn("line_search", phases.line_search);
    fn("verification", phases.verification);
    fn("is_verification", phases.is_verification);
  }
};

/// The process-wide registry every instrumented call site increments.
inline Registry& registry() noexcept {
  // The registry is the sanctioned shared-state sink: every member is a
  // relaxed std::atomic, so concurrent increments are safe by design.
  static Registry instance;  // shared-ok: all members are relaxed atomics
  return instance;
}

}  // namespace mayo::obs
