// mayo/sim -- the real linear-system boundary of the Newton engines (DC
// and transient).
//
// One LinearSystem owns everything a stamp -> factor -> solve cycle
// needs.  Devices stamp the whole MNA system; factor() factors only its
// free block, the unknowns left once the netlist's grounded voltage-source
// tree is eliminated (sim/source_tree.hpp), with the dense partial-pivoting
// LU, and solve_into() still returns every MNA unknown: the fixed node
// voltages from the source rows, the free block's solution, the tree
// sources' branch currents from the fixed nodes' KCL rows.  Without a
// netlist, or for a netlist with no eliminable source, the free block is
// the whole system and the results are bitwise `Lud` on it.
//
// Engines accept a caller-owned LinearSystem through their options
// (DcOptions::workspace, reached by transient via TranOptions::newton),
// which is how the circuit models keep the workspace allocated across
// every probe of a (design, conditions) context.  Each solve_dc and
// solve_transient call partitions its own netlist again, so a workspace
// reused across netlists never applies one netlist's partition to another.
// A LinearSystem is not thread-safe; parallel workers use their own (the
// models' clone() gives each worker fresh workspaces, certified by
// tools/analyze.py).
#pragma once

#include <cstddef>
#include <memory>

#include "linalg/lu.hpp"
#include "linalg/system_matrix.hpp"

namespace mayo::circuit {
class Netlist;
}

namespace mayo::sim {

class LinearSystem {
 public:
  LinearSystem();
  ~LinearSystem();

  /// Partitions the unknowns of `netlist` for the stamp passes that
  /// follow (its source tree, rebuilt at every call) and names the
  /// offending node or branch in a SingularMatrixError from factor().
  /// The netlist must outlive the next factor(); nullptr
  /// detaches it, and so does a begin() of another size: the whole system
  /// is then free.
  void set_netlist(const circuit::Netlist* netlist);

  /// Starts a stamp pass for an n x n system and returns the zeroed
  /// stamping target.
  linalg::SystemMatrix& begin(std::size_t n);

  /// Factors the free block of the stamped system.  Throws
  /// linalg::SingularMatrixError when the system is singular; the caller
  /// may stamp and factor again (gmin/source stepping rely on this).  With
  /// a netlist set the error names the offending unknown instead of a bare
  /// MNA index.
  void factor();

  /// Allocation-free solve of the factored system for every MNA unknown;
  /// `b` and `x` hold size() entries and must not alias.
  void solve_into(const double* b, double* x);

  std::size_t size() const { return system_.size(); }

 private:
  struct Reduction;  // source tree, stamped matrix and free-block scratch
  Reduction& reduction();

  linalg::SystemMatrix system_;  ///< stamping target: the whole system
  linalg::Lud lu_;               ///< factors of the free block
  /// Created by the first set_netlist() or begin(), so constructing a
  /// LinearSystem allocates nothing.
  std::unique_ptr<Reduction> reduction_;
};

}  // namespace mayo::sim
