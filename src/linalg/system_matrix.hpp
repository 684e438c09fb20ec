// mayo/linalg -- stamping target for MNA assembly.
//
// Devices in src/circuit/stamp.hpp accumulate conductances into "the
// system matrix" without knowing where it is stored.  SystemMatrix is that
// target, in one of two modes:
//
//   dense   -- binds caller-owned Matrixd buffers (the dense LU
//              workspaces); add() forwards with the identical `+=` the
//              devices used before this boundary existed, so the dense
//              path is bit-for-bit unchanged.
//   pattern -- appends the (row, col) of every add to a caller-owned
//              list, value-zero adds included, so a structural pass sees
//              every position the devices stamp (audit/structural.cpp).
//
// There is no virtual dispatch: one pointer test per add, far below the
// cost of the device evaluation producing the value.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "linalg/matrix.hpp"

namespace mayo::linalg {

class SystemMatrix {
 public:
  SystemMatrix() = default;

  /// Dense mode: adds forward into `real` (and `jomega` when the engine
  /// carries a separate omega-scaled part, as the AC session does).  The
  /// buffers stay caller-owned and caller-zeroed -- exactly the dense
  /// engines' pre-boundary behavior.
  void bind_dense(Matrixd& real, Matrixd* jomega = nullptr) {
    n_ = real.rows();
    dense_real_ = &real;
    dense_jomega_ = jomega;
    positions_ = nullptr;
  }

  /// Pattern mode for an n x n system: every add() and add_jomega()
  /// appends its (row, col) to `positions`, in call order, whatever the
  /// value.  The list stays caller-owned and is not cleared here.
  void record_pattern(std::size_t n,
                      std::vector<std::pair<int, int>>& positions) {
    n_ = n;
    dense_real_ = nullptr;
    dense_jomega_ = nullptr;
    positions_ = &positions;
  }

  std::size_t size() const { return n_; }

  /// Accumulates into the real (G) part.
  void add(int row, int col, double value) {
    MAYO_ASSERT(row >= 0 && static_cast<std::size_t>(row) < n_,
                "SystemMatrix::add: row out of range");
    MAYO_ASSERT(col >= 0 && static_cast<std::size_t>(col) < n_,
                "SystemMatrix::add: col out of range");
    if (positions_ != nullptr) {
      positions_->emplace_back(row, col);
      return;
    }
    (*dense_real_)(row, col) += value;
  }

  /// Accumulates into the j*omega-scaled (C) part.
  void add_jomega(int row, int col, double value) {
    MAYO_ASSERT(row >= 0 && static_cast<std::size_t>(row) < n_,
                "SystemMatrix::add_jomega: row out of range");
    MAYO_ASSERT(col >= 0 && static_cast<std::size_t>(col) < n_,
                "SystemMatrix::add_jomega: col out of range");
    if (positions_ != nullptr) {
      positions_->emplace_back(row, col);
      return;
    }
    MAYO_ASSERT(dense_jomega_ != nullptr,
                "SystemMatrix::add_jomega: no jomega target bound");
    (*dense_jomega_)(row, col) += value;
  }

 private:
  std::size_t n_ = 0;
  Matrixd* dense_real_ = nullptr;
  Matrixd* dense_jomega_ = nullptr;
  std::vector<std::pair<int, int>>* positions_ = nullptr;
};

}  // namespace mayo::linalg
