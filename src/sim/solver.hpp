// mayo/sim -- the real linear-system boundary of the Newton engines (DC
// and transient).
//
// One LinearSystem owns everything a stamp -> factor -> solve cycle
// needs: the SystemMatrix binds the dense LU workspace and factor() is
// exactly `Lud::refactor()` -- identical arithmetic, identical pivoting,
// bit-for-bit the pre-boundary results.
//
// Engines accept a caller-owned LinearSystem through their options
// (DcOptions::workspace, reached by transient via TranOptions::newton),
// which is how the circuit models keep the LU workspace allocated across
// every probe of a (design, conditions) context.  A LinearSystem is not
// thread-safe; parallel workers use their own (the models' clone() gives
// each worker fresh workspaces, certified by tools/analyze.py).
#pragma once

#include <cstddef>

#include "linalg/lu.hpp"
#include "linalg/system_matrix.hpp"

namespace mayo::circuit {
class Netlist;
}

namespace mayo::sim {

class LinearSystem {
 public:
  /// Starts a stamp pass for an n x n system and returns the zeroed
  /// stamping target.
  linalg::SystemMatrix& begin(std::size_t n);

  /// Optional error-message context: when set, a SingularMatrixError from
  /// factor() is rethrown with the MNA index mapped back to the netlist
  /// node / branch name (circuit/mna_names.hpp).  Purely diagnostic --
  /// never read on the success path.  The netlist must outlive the next
  /// factor(); pass nullptr to detach.
  void set_diagnostic_netlist(const circuit::Netlist* netlist) {
    netlist_ = netlist;
  }

  /// Factors the stamped system.  Throws linalg::SingularMatrixError when
  /// the system is singular; the caller may stamp and factor again
  /// (gmin/source stepping rely on this).  With a diagnostic netlist
  /// attached the error message names the offending unknown instead of a
  /// bare elimination index.
  void factor();

  /// Allocation-free solve of the factored system; `b` and `x` hold
  /// size() entries and must not alias.
  void solve_into(const double* b, double* x);

  std::size_t size() const { return system_.size(); }

 private:
  /// Rethrows `error` with node/branch names when context is available.
  [[noreturn]] void rethrow_singular(const linalg::SingularMatrixError& error);

  const circuit::Netlist* netlist_ = nullptr;
  linalg::SystemMatrix system_;
  linalg::Lud dense_;
};

}  // namespace mayo::sim
