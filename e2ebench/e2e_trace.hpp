// Bench-side tracing for the end-to-end benchmark: spans recorded from
// outside the library, around the calls bm_e2e makes into each layer.
//
//   * core     -- ScopedSpan around the public entry points bm_e2e calls
//                 (optimize_yield, build_linearizations, monte_carlo_verify,
//                 importance_sample_verify), nested under one "run" span.
//   * circuits -- TimedModel, a PerformanceModel decorator installed in
//                 place of YieldProblem::model, times every evaluate,
//                 evaluate_batch and constraints call.
//
// Spans stay in memory and are written once the run ends.  Core spans
// open and close on the thread that runs the workload (the library is
// driven from one thread); model spans may come from the worker clones of
// the parallel fan-outs.  Each TimedModel -- the original and every clone
// -- records into its own buffer and merges it into the Tracer under a
// mutex when it is destroyed, which the library does before the fan-out
// returns.  A model span's parent is the innermost core span open at the
// time, read through an atomic, so worker spans hang under the entry
// point that fanned them out.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"

namespace mayo::e2e {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  const char* name = "";     ///< string literal
  std::int64_t start_ns = 0; ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::size_t rows = 0;      ///< sample rows of an evaluate_batch span
};

inline constexpr const char* kEvaluate = "circuits.evaluate";
inline constexpr const char* kBatch = "circuits.evaluate_batch";
inline constexpr const char* kConstraints = "circuits.constraints";

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Innermost open core span, 0 when none is open (model calls made
  /// outside every span are not recorded).
  std::uint64_t current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Core-span nesting; called only from the thread driving the workload.
  std::uint64_t open(const char* name) {
    Open span{next_id(), current(), name, now_ns()};
    stack_.push_back(span);
    current_.store(span.id, std::memory_order_release);
    return span.id;
  }
  void close() {
    const Open span = stack_.back();
    stack_.pop_back();
    current_.store(span.parent, std::memory_order_release);
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({span.id, span.parent, span.name, span.start_ns,
                      now_ns(), 0});
  }

  /// Moves a model's span buffer into the trace.
  void merge(std::vector<SpanRecord>& buffer) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }
  void note_lost(std::size_t count) {
    lost_.fetch_add(count, std::memory_order_relaxed);
  }
  /// Spans a model could not merge (allocation failure while flushing).
  std::size_t lost() const { return lost_.load(std::memory_order_relaxed); }

  /// Returns every merged span, sorted by start time, and clears the
  /// trace.  Call once the run's models are destroyed.
  std::vector<SpanRecord> take() {
    std::vector<SpanRecord> out;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      out.swap(spans_);
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.id < b.id;
              });
    return out;
  }

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    std::int64_t start_ns;
  };

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::size_t> lost_{0};
  std::vector<Open> stack_;  ///< workload thread only
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII core span.  A null tracer (the untraced pass) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close();
  }

 private:
  Tracer* tracer_;
};

/// Decorator timing every call into the wrapped model.  Forwards every
/// PerformanceModel virtual, so results are bitwise those of the inner
/// model; clone() wraps the inner clone so worker copies are timed too.
class TimedModel final : public core::PerformanceModel {
 public:
  TimedModel(std::shared_ptr<core::PerformanceModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  TimedModel(const TimedModel&) = delete;
  TimedModel& operator=(const TimedModel&) = delete;
  ~TimedModel() override {
    try {
      tracer_.merge(buffer_);
    } catch (...) {
      tracer_.note_lost(buffer_.size());
    }
  }

  std::size_t num_performances() const override {
    return inner_->num_performances();
  }
  std::size_t num_constraints() const override {
    return inner_->num_constraints();
  }
  std::vector<std::string> constraint_names() const override {
    return inner_->constraint_names();
  }

  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override {
    const std::int64_t start = tracer_.now_ns();
    linalg::PerfVec out = inner_->evaluate(d, s, theta);
    record(kEvaluate, start, 0);
    return out;
  }
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override {
    const std::int64_t start = tracer_.now_ns();
    inner_->evaluate_batch(d, s_block, theta, out);
    record(kBatch, start, s_block.rows());
  }
  linalg::Vector constraints(const linalg::DesignVec& d) override {
    const std::int64_t start = tracer_.now_ns();
    linalg::Vector out = inner_->constraints(d);
    record(kConstraints, start, 0);
    return out;
  }
  std::unique_ptr<core::PerformanceModel> clone() const override {
    std::unique_ptr<core::PerformanceModel> inner = inner_->clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<TimedModel>(std::move(inner), tracer_);
  }

 private:
  void record(const char* name, std::int64_t start, std::size_t rows) {
    const std::uint64_t parent = tracer_.current();
    if (parent == 0) return;
    buffer_.push_back(
        {tracer_.next_id(), parent, name, start, tracer_.now_ns(), rows});
  }

  std::shared_ptr<core::PerformanceModel> inner_;
  Tracer& tracer_;
  std::vector<SpanRecord> buffer_;
};

/// Span-derived layer numbers of one run (one traced repetition).
struct SpanSummary {
  double run_s = 0.0;
  double core_self_s = 0.0;      ///< core/run self time: not under any model call
  double circuits_busy_s = 0.0;  ///< union of all model-call intervals
  std::size_t evaluate_calls = 0;
  double evaluate_busy_s = 0.0;
  double evaluate_p50_ms = 0.0;
  double evaluate_p99_ms = 0.0;
  std::size_t constraints_calls = 0;
  double constraints_busy_s = 0.0;
  std::size_t batch_calls = 0;
  std::size_t batch_rows = 0;
  double batch_busy_s = 0.0;
  bool nested = true;  ///< every span lies inside its parent
};

namespace detail {

/// Length of the union of [start, end) intervals (sorted in place).
inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) total += hi - lo;
    lo = start;
    hi = end;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

inline bool is_model_span(const SpanRecord& s) {
  return std::strcmp(s.name, kEvaluate) == 0 ||
         std::strcmp(s.name, kBatch) == 0 ||
         std::strcmp(s.name, kConstraints) == 0;
}

/// Nearest-rank percentile of a sorted sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace detail

/// Summarizes the spans under root span `run_id`.  Self time of a core
/// span is its duration minus the union of its children's intervals, so
/// model calls of parallel workers that overlap each other count once.
inline SpanSummary summarize(const std::vector<SpanRecord>& spans,
                             std::uint64_t run_id) {
  SpanSummary out;
  constexpr double kNs = 1e-9;
  std::vector<const SpanRecord*> by_id;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  std::uint64_t max_id = 0;
  for (const SpanRecord& s : spans) max_id = std::max(max_id, s.id);
  by_id.assign(max_id + 1, nullptr);
  children.resize(max_id + 1);
  for (const SpanRecord& s : spans) by_id[s.id] = &s;

  // Spans belonging to this run: walk parents up to run_id.
  auto in_run = [&](const SpanRecord& s) {
    for (const SpanRecord* p = &s; p != nullptr;
         p = p->parent == 0 || p->parent > max_id ? nullptr : by_id[p->parent])
      if (p->id == run_id) return true;
    return false;
  };

  std::vector<std::pair<std::int64_t, std::int64_t>> model_intervals;
  std::vector<double> evaluate_ms;
  for (const SpanRecord& s : spans) {
    if (!in_run(s)) continue;
    if (s.id != run_id) {
      const SpanRecord* parent = by_id[s.parent];
      if (s.start_ns < parent->start_ns || s.end_ns > parent->end_ns ||
          s.end_ns < s.start_ns)
        out.nested = false;
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * kNs;
    if (std::strcmp(s.name, kEvaluate) == 0) {
      ++out.evaluate_calls;
      out.evaluate_busy_s += dur_s;
      evaluate_ms.push_back(dur_s * 1e3);
    } else if (std::strcmp(s.name, kBatch) == 0) {
      ++out.batch_calls;
      out.batch_rows += s.rows;
      out.batch_busy_s += dur_s;
    } else if (std::strcmp(s.name, kConstraints) == 0) {
      ++out.constraints_calls;
      out.constraints_busy_s += dur_s;
    }
    if (detail::is_model_span(s))
      model_intervals.emplace_back(s.start_ns, s.end_ns);
  }
  if (run_id > max_id || by_id[run_id] == nullptr) {
    out.nested = false;
    return out;
  }
  const SpanRecord& run = *by_id[run_id];
  out.run_s = static_cast<double>(run.end_ns - run.start_ns) * kNs;
  for (const SpanRecord& s : spans) {
    if (detail::is_model_span(s) || !in_run(s)) continue;
    const std::int64_t covered = detail::union_length(children[s.id]);
    out.core_self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * kNs;
  }
  out.circuits_busy_s =
      static_cast<double>(detail::union_length(model_intervals)) * kNs;
  std::sort(evaluate_ms.begin(), evaluate_ms.end());
  out.evaluate_p50_ms = detail::percentile(evaluate_ms, 0.50);
  out.evaluate_p99_ms = detail::percentile(evaluate_ms, 0.99);
  return out;
}

/// Appends the spans as JSON lines: run, id, parent, name, start_ns,
/// end_ns, plus rows on evaluate_batch spans.
inline void write_jsonl(std::FILE* f, int run,
                        const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"run\":%d,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld",
                 run, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    if (std::strcmp(s.name, kBatch) == 0)
      std::fprintf(f, ",\"rows\":%zu", s.rows);
    std::fputs("}\n", f);
  }
}

}  // namespace mayo::e2e
