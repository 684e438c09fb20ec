// mayo/circuit -- MNA stamping contexts.
//
// The simulator owns the system matrices; devices contribute ("stamp")
// their currents, conductances and admittances through these small view
// classes into a linalg::SystemMatrix (the engines' dense LU workspace, or
// the structural audit's position list -- devices never know which).
// Conventions:
//
//   * Unknown vector x = [node voltages v_1..v_{n-1}, branch currents].
//     Node 0 is ground and is eliminated; stamps addressed at ground are
//     silently dropped.
//   * DC residual F(x): F(row of node k) = sum of currents *leaving* node
//     k through devices.  Newton solves J dx = -F.
//   * AC system: (G + j omega C) x = b with G the DC Jacobian at the
//     operating point.
//   * Transient: backward Euler; capacitive elements stamp their companion
//     conductance C/h and history current.
#pragma once

#include <complex>
#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::circuit {

/// Node identifier; 0 is ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

/// Ambient conditions seen by every device during a stamp.
struct Conditions {
  double temperature_k = 300.15;  ///< junction temperature [K]
};

/// View for stamping the nonlinear DC system (residual + Jacobian).
class DcStamp {
 public:
  DcStamp(const linalg::Vector& x, linalg::SystemMatrix& system,
          linalg::Vector& residual, std::size_t num_nodes,
          const Conditions& conditions)
      : x_(x),
        system_(system),
        residual_(residual),
        num_nodes_(num_nodes),
        conditions_(conditions) {}

  /// Voltage of a node in the current iterate (0 for ground).
  double v(NodeId n) const { return n == kGround ? 0.0 : x_[n - 1]; }
  /// Value of branch variable `b` in the current iterate.
  double branch(int b) const { return x_[num_nodes_ - 1 + b]; }

  /// Row/column index of a node; -1 for ground.
  int node_index(NodeId n) const { return n == kGround ? -1 : n - 1; }
  /// Row/column index of a branch variable.
  int branch_index(int b) const { return static_cast<int>(num_nodes_) - 1 + b; }

  /// Adds `i` to the residual of node `n` (current leaving `n`).
  void add_current(NodeId n, double i) {
    if (n != kGround) residual_[n - 1] += i;
  }
  /// Adds to the residual of branch equation `b`.
  void add_branch_residual(int b, double value) {
    residual_[num_nodes_ - 1 + b] += value;
  }
  /// Adds dF_row/dx_col to the Jacobian; either index may be -1 (ground).
  void add_jacobian(int row, int col, double value) {
    if (row >= 0 && col >= 0) system_.add(row, col, value);
  }
  /// Two-terminal conductance stamp between nodes a and b.
  void add_conductance(NodeId a, NodeId b, double g) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    add_jacobian(ia, ia, g);
    add_jacobian(ib, ib, g);
    add_jacobian(ia, ib, -g);
    add_jacobian(ib, ia, -g);
  }

  const Conditions& conditions() const { return conditions_; }
  double temperature() const { return conditions_.temperature_k; }

 private:
  const linalg::Vector& x_;
  linalg::SystemMatrix& system_;
  linalg::Vector& residual_;
  std::size_t num_nodes_;
  const Conditions& conditions_;
};

/// View for stamping the AC system (G + j omega C) x = b in split form:
/// devices write their frequency-independent real conductance entries into
/// G, their capacitance-like entries into C (assembled as j omega C at
/// solve time), and the complex source excitations into b.  No omega is
/// visible here — a single stamp per operating point serves every
/// frequency probe (see sim::AcSession).
class AcStamp {
 public:
  AcStamp(const linalg::Vector& op, linalg::SystemMatrix& system,
          linalg::VectorC& rhs, std::size_t num_nodes,
          const Conditions& conditions)
      : op_(op),
        system_(system),
        rhs_(rhs),
        num_nodes_(num_nodes),
        conditions_(conditions) {}

  /// DC operating-point voltage of a node.
  double v(NodeId n) const { return n == kGround ? 0.0 : op_[n - 1]; }
  double branch(int b) const { return op_[num_nodes_ - 1 + b]; }
  int node_index(NodeId n) const { return n == kGround ? -1 : n - 1; }
  int branch_index(int b) const { return static_cast<int>(num_nodes_) - 1 + b; }

  /// Adds a frequency-independent (real) entry to G.
  void add(int row, int col, double value) {
    if (row >= 0 && col >= 0) system_.add(row, col, value);
  }
  /// Adds an entry to C: contributes j * omega * value at frequency omega.
  /// The inductor's branch term -j omega L stamps value = -L here.
  void add_jomega(int row, int col, double value) {
    if (row >= 0 && col >= 0) system_.add_jomega(row, col, value);
  }
  /// Two-terminal conductance stamp.
  void add_admittance(NodeId a, NodeId b, double g) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    add(ia, ia, g);
    add(ib, ib, g);
    add(ia, ib, -g);
    add(ib, ia, -g);
  }
  /// Capacitance between two nodes (assembled as j omega C).
  void add_capacitance(NodeId a, NodeId b, double c) {
    const int ia = node_index(a);
    const int ib = node_index(b);
    add_jomega(ia, ia, c);
    add_jomega(ib, ib, c);
    add_jomega(ia, ib, -c);
    add_jomega(ib, ia, -c);
  }
  void add_rhs(int row, std::complex<double> value) {
    if (row >= 0) rhs_[row] += value;
  }

  const Conditions& conditions() const { return conditions_; }
  double temperature() const { return conditions_.temperature_k; }

 private:
  const linalg::Vector& op_;
  linalg::SystemMatrix& system_;
  linalg::VectorC& rhs_;
  std::size_t num_nodes_;
  const Conditions& conditions_;
};

/// View for stamping one implicit transient step.  Extends the DC view
/// with the solution history and the step size.  Two integration formulas
/// are supported, both expressible with voltage history only (no per-
/// device current state):
///   * backward Euler:  dx/dt ~ (x_n - x_{n-1}) / h            (1st order)
///   * BDF2:            dx/dt ~ (3x_n - 4x_{n-1} + x_{n-2}) / (2h)
/// The integrator selects BDF2 only when two equally spaced history points
/// exist (the first step always runs backward Euler).
class TranStamp : public DcStamp {
 public:
  TranStamp(const linalg::Vector& x, linalg::SystemMatrix& system,
            linalg::Vector& residual, std::size_t num_nodes,
            const Conditions& conditions, const linalg::Vector& x_prev,
            double step, double time,
            const linalg::Vector* x_prev2 = nullptr)
      : DcStamp(x, system, residual, num_nodes, conditions),
        x_prev_(x_prev),
        x_prev2_(x_prev2),
        num_nodes_tran_(num_nodes),
        step_(step),
        time_(time) {}

  /// Node voltage at the previous accepted time point.
  double v_prev(NodeId n) const {
    return n == kGround ? 0.0 : x_prev_[n - 1];
  }
  /// Node voltage two accepted time points ago (only if bdf2()).
  double v_prev2(NodeId n) const {
    return n == kGround ? 0.0 : (*x_prev2_)[n - 1];
  }
  /// Branch variable at the previous accepted time point.
  double branch_prev(int b) const { return x_prev_[num_nodes_tran_ - 1 + b]; }
  double branch_prev2(int b) const {
    return (*x_prev2_)[num_nodes_tran_ - 1 + b];
  }
  /// True when the second-order history is available and enabled.
  bool bdf2() const { return x_prev2_ != nullptr; }
  /// Step size h [s].
  double step() const { return step_; }
  /// Time at the *end* of the step being solved [s].
  double time() const { return time_; }

  /// Companion stamp for a capacitance between a and b using the active
  /// integration formula.
  void add_capacitor(NodeId a, NodeId b, double c) {
    const double vab = v(a) - v(b);
    const double vab_prev = v_prev(a) - v_prev(b);
    double geq;
    double i;
    if (bdf2()) {
      const double vab_prev2 = v_prev2(a) - v_prev2(b);
      geq = 1.5 * c / step_;
      i = c * (3.0 * vab - 4.0 * vab_prev + vab_prev2) / (2.0 * step_);
    } else {
      geq = c / step_;
      i = geq * (vab - vab_prev);
    }
    add_conductance(a, b, geq);
    add_current(a, i);
    add_current(b, -i);
  }

 private:
  const linalg::Vector& x_prev_;
  const linalg::Vector* x_prev2_;
  std::size_t num_nodes_tran_;
  double step_;
  double time_;
};

}  // namespace mayo::circuit
