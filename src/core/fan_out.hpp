// mayo/core -- the worker pool behind every parallel phase.
//
// The paper ran its Fig.-6 loop "on a network (100 Mbit/sec) of 5
// computers in parallel" (Table 7).  Here three phases fan out through
// this one pool: the Monte-Carlo verifier (sample blocks),
// build_linearizations (per-spec worst-case searches, then design
// gradients) and the importance-sampling verifier (the blocks of each
// round).
//
// Each worker owns a deep copy of the problem with a cloned model (the
// models are stateful: netlists, Newton warm starts) and its own
// Evaluator.  Workers are cloned on the calling thread the first time a
// run() needs them and live as long as the pool, so a phase that runs
// several times keeps each worker's cache.  run(tasks, body) calls
// body(w, n, evaluator) for every w in [0, n) with n = min(tasks,
// threads); the body assigns the work, as a pure function of (w, n).
// When n <= 1, or the model has no clone(), the body runs once inline on
// the caller's own evaluator: the serial path is the same code.  After
// the join, every worker's EvaluationCounts are absorbed into the
// caller's, and the lowest-index worker's exception, if any, is rethrown
// on the calling thread.
//
// Bodies run concurrently, so they may write only per-worker or
// per-task slots.  Each body carries a `// parallel-entry` marker, and
// tools/analyze.py certifies everything it reaches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"

namespace mayo::core {

class WorkerPool {
 public:
  /// `threads`: worker count, 0 = hardware concurrency.  `caller` must
  /// outlive the pool.
  WorkerPool(Evaluator& caller, unsigned threads)
      : caller_(caller),
        threads_(threads != 0
                     ? threads
                     : std::max(1u, std::thread::hardware_concurrency())) {}

  /// Calls body(w, n, evaluator) for w in [0, n), n = min(tasks,
  /// threads), and returns after the join (see the file comment).
  template <class Body>
  void run(std::size_t tasks, const Body& body) {
    const auto n =
        static_cast<unsigned>(std::min<std::size_t>(threads_, tasks));
    if (n <= 1 || !clone_workers(n)) {
      body(0u, 1u, caller_);
      return;
    }
    std::vector<std::exception_ptr> errors(n);
    // jthread joins on destruction: if a later spawn throws, the started
    // workers finish before `errors` goes away.
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (unsigned w = 0; w < n; ++w)
      threads.emplace_back([&, w] {
        try {
          body(w, n, workers_[w]->evaluator);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    for (std::jthread& thread : threads) thread.join();
    for (unsigned w = 0; w < n; ++w) {
      caller_.absorb(workers_[w]->evaluator.counts());
      workers_[w]->evaluator.reset_counts();
    }
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
  }

 private:
  /// Heap-held and pinned: the evaluator references `problem`, and the
  /// threads of a run reference the evaluator.
  struct Worker {
    explicit Worker(YieldProblem copy)
        : problem(std::move(copy)), evaluator(problem) {}
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;
    YieldProblem problem;
    Evaluator evaluator;
  };

  /// Clones workers up to `n`.  A model without clone() turns the pool
  /// serial for good.
  bool clone_workers(unsigned n) {
    while (workers_.size() < n) {
      YieldProblem copy = caller_.problem();
      copy.model = caller_.problem().model->clone();
      if (copy.model == nullptr) {
        threads_ = 1;
        return false;
      }
      workers_.push_back(std::make_unique<Worker>(std::move(copy)));
    }
    return true;
  }

  Evaluator& caller_;
  unsigned threads_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace mayo::core
