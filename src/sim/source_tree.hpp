// mayo/sim -- the grounded voltage-source tree of an MNA system.
//
// An independent voltage source with one terminal at ground, or at a node
// another such source already fixes, fixes the voltage of its other
// terminal.  Taken in device order, these sources form a tree rooted at
// ground (Vdd, Vinp and Vbn2 on ground, Vbp2 on vdd in the folded cascode).
// Order the unknowns as [fixed node voltages F, free unknowns R, branch
// currents B of the tree sources] and the equations as [tree-source rows
// S, free rows R, KCL rows K of the fixed nodes]:
//
//   [ A_SF   0     0   ] [x_F]   [b_S]
//   [ A_RF  A_RR   0   ] [x_R] = [b_R]
//   [ A_KF  A_KR  A_KB ] [x_B]   [b_K]
//
// A tree source's branch row reads only its own two terminals, which are
// fixed or ground, and its branch current enters only their KCL rows, so
// the system is block lower triangular.  A_SF and A_KB are the tree's
// incidence matrix and its transpose: triangular in tree order with +-1
// pivots.  So the fixed voltages follow from the source rows in tree
// order, the free unknowns from the free block A_RR -- the only part
// factored -- and the branch currents from the fixed nodes' KCL rows in
// reverse tree order.  det A = +-det A_RR, so the free block is singular
// exactly when the whole system is.
//
// A source that closes a loop of sources (both terminals already fixed)
// or floats (neither terminal ever fixed, like the opamp AC bench's Vinn
// between inn and fb) stays a free unknown, as does every other branch
// (VCVS, inductor): a loop of sources is still a singular free block.  A
// netlist with no eliminable source has an empty tree: every unknown is
// free, in MNA order, and the free block is the whole matrix.
//
// The contract this relies on: no device but a voltage source stamps its
// branch row or its branch current's column (true of every device in
// circuit/devices.hpp; AcSession::update_excitation relies on the row half
// already).
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/netlist.hpp"
#include "linalg/lu.hpp"

namespace mayo::sim {

class SourceTree {
 public:
  /// Partitions the unknowns of `netlist`.  The buffers only grow, so a
  /// rebuild allocates nothing once a netlist of this size was built.  The
  /// netlist is kept only to name a singular unknown and must outlive the
  /// next rethrow_singular().
  void build(const circuit::Netlist& netlist);
  /// The partition of an n-unknown system without a netlist: no tree,
  /// every unknown free.
  void clear(std::size_t n);

  /// MNA unknowns of the whole system.
  std::size_t size() const { return n_; }
  /// Unknowns of the factored free block.
  std::size_t free_size() const { return free_.size(); }

  /// block(i, j) = a(free(i), free(j)): the m x m free block, row-major,
  /// from a(r, c), the entry of the whole system at MNA row r, column c.
  template <typename T, typename Entry>
  void gather(const Entry& a, T* block) const {
    const std::size_t m = free_.size();
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        block[i * m + j] = a(free_[i], free_[j]);
  }

  /// Solves A x = b, given `lu`, the factors of the gathered free block,
  /// and a(r, c) as for gather().  `b` and `x` hold size() entries and
  /// must not alias; `rhs` and `y` are scratch of free_size() entries.
  template <typename T, typename Entry>
  void solve(const linalg::Lu<T>& lu, const Entry& a, const T* b, T* x,
             T* rhs, T* y) const {
    // Fixed voltages from the source rows, each parent before its child.
    for (const Link& link : links_) {
      T v = b[link.row];
      if (link.parent != kGroundIndex) v -= a(link.row, link.parent) * x[link.parent];
      x[link.node] = v / a(link.row, link.node);
    }
    // Free unknowns from the free block, the fixed voltages moved to the
    // right-hand side.
    const std::size_t m = free_.size();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t r = free_[k];
      T acc = b[r];
      for (const Link& link : links_) acc -= a(r, link.node) * x[link.node];
      rhs[k] = acc;
    }
    lu.solve_into(rhs, y);
    for (std::size_t k = 0; k < m; ++k) x[free_[k]] = y[k];
    // Branch currents from the fixed nodes' KCL rows, children first.  The
    // row of a fixed node holds its own source's current and its
    // children's; the currents still unknown, its own included, are zero
    // while it is read, so the whole row enters the sum.
    for (const Link& link : links_) x[link.row] = T{};
    for (auto it = links_.rbegin(); it != links_.rend(); ++it) {
      T acc = b[it->node];
      for (std::size_t c = 0; c < n_; ++c) acc -= a(it->node, c) * x[c];
      x[it->row] = acc / a(it->node, it->row);
    }
  }

  /// Rethrows a singular factorization of the free block as an error on
  /// the MNA unknown its pivot names, with the node or branch name when
  /// the tree was built from a netlist.
  [[noreturn]] void rethrow_singular(
      const linalg::SingularMatrixError& error) const;

 private:
  static constexpr std::size_t kGroundIndex = static_cast<std::size_t>(-1);

  /// One tree source, as MNA indices.
  struct Link {
    std::size_t node;    ///< the node voltage it fixes
    std::size_t row;     ///< its branch row, also its current's column
    std::size_t parent;  ///< its other terminal; kGroundIndex for ground
  };
  const circuit::Netlist* netlist_ = nullptr;
  std::size_t n_ = 0;
  std::vector<Link> links_;        ///< tree order: parents first
  std::vector<std::size_t> free_;  ///< free unknowns in MNA order
  std::vector<char> fixed_;        ///< build() scratch, per node id
  std::vector<char> eliminated_;   ///< build() scratch, per unknown
};

}  // namespace mayo::sim
