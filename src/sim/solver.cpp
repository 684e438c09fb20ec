#include "sim/solver.hpp"

#include <vector>

#include "circuit/netlist.hpp"
#include "sim/source_tree.hpp"

namespace mayo::sim {

struct LinearSystem::Reduction {
  SourceTree tree;
  linalg::Matrixd stamped;  ///< the whole n x n system as stamped
  std::vector<double> rhs;  ///< free-block right-hand side
  std::vector<double> y;    ///< free-block solution
};

LinearSystem::LinearSystem() = default;
LinearSystem::~LinearSystem() = default;

LinearSystem::Reduction& LinearSystem::reduction() {
  if (!reduction_) reduction_ = std::make_unique<Reduction>();
  return *reduction_;
}

void LinearSystem::set_netlist(const circuit::Netlist* netlist) {
  Reduction& r = reduction();
  if (netlist != nullptr)
    r.tree.build(*netlist);
  else
    r.tree.clear(0);
}

linalg::SystemMatrix& LinearSystem::begin(std::size_t n) {
  Reduction& r = reduction();
  if (r.tree.size() != n) r.tree.clear(n);
  if (r.stamped.rows() != n)
    r.stamped = linalg::Matrixd(n, n);  // hot-ok: first pass of this size
  else
    r.stamped.set_zero();
  system_.bind_dense(r.stamped);
  return system_;
}

void LinearSystem::factor() {
  Reduction& r = reduction();
  const std::size_t n = r.stamped.rows();
  const double* a = r.stamped.data();
  const std::size_t m = r.tree.free_size();
  // The gather writes every entry, so skip the workspace zeroing.
  r.tree.gather([a, n](std::size_t row, std::size_t col) { return a[row * n + col]; },
                lu_.workspace(m, /*zero=*/false).data());
  r.rhs.resize(m);  // no allocation once a free block of size m was seen
  r.y.resize(m);
  try {
    lu_.refactor();
  } catch (const linalg::SingularMatrixError& e) {
    r.tree.rethrow_singular(e);
  }
}

void LinearSystem::solve_into(const double* b, double* x) {
  Reduction& r = reduction();
  const std::size_t n = r.stamped.rows();
  const double* a = r.stamped.data();
  r.tree.solve(lu_,
               [a, n](std::size_t row, std::size_t col) { return a[row * n + col]; },
               b, x, r.rhs.data(), r.y.data());
}

}  // namespace mayo::sim
