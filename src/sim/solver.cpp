#include "sim/solver.hpp"

#include <string>

#include "circuit/mna_names.hpp"

namespace mayo::sim {

linalg::SystemMatrix& LinearSystem::begin(std::size_t n) {
  system_.bind_dense(dense_.workspace(n));
  return system_;
}

void LinearSystem::rethrow_singular(const linalg::SingularMatrixError& error) {
  if (netlist_ == nullptr || netlist_->system_size() != system_.size())
    throw error;
  const std::size_t step = error.pivot_index();
  // Partial pivoting fails when column `step` has no nonzero left below
  // the diagonal, so the step names the original unknown.
  std::string message(error.what());
  message += " (unknown: " + circuit::mna_unknown_name(*netlist_, step) + ")";
  throw linalg::SingularMatrixError(step, message);
}

void LinearSystem::factor() {
  try {
    dense_.refactor();
  } catch (const linalg::SingularMatrixError& e) {
    rethrow_singular(e);
  }
}

void LinearSystem::solve_into(const double* b, double* x) {
  dense_.solve_into(b, x);
}

}  // namespace mayo::sim
