#include "sim/ac.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "circuit/mna_names.hpp"
#include "linalg/kernels.hpp"
#include "obs/obs.hpp"

namespace mayo::sim {

using circuit::AcStamp;
using circuit::Conditions;
using circuit::Netlist;
using circuit::NodeId;
using linalg::Matrixc;
using linalg::Matrixd;
using linalg::Vector;
using linalg::VectorC;

void AcSession::rethrow_singular(
    const linalg::SingularMatrixError& error) const {
  if (netlist_ == nullptr || netlist_->system_size() != n_) throw error;
  const std::size_t step = error.pivot_index();
  std::string message(error.what());
  message += " (unknown: " + circuit::mna_unknown_name(*netlist_, step) + ")";
  throw linalg::SingularMatrixError(step, message);
}

void AcSession::stamp(const Netlist& netlist, const Vector& operating_point,
                      const Conditions& conditions) {
  if (operating_point.size() != netlist.system_size())
    throw std::invalid_argument("AcSession::stamp: operating point size mismatch");
  audit::enforce_boundary(netlist, audit_, /*capacitors_conduct=*/true);
  netlist_ = &netlist;
  n_ = netlist.system_size();
  num_nodes_ = netlist.num_nodes();
  if (g_.rows() != n_ || g_.cols() != n_) {
    g_ = Matrixd(n_, n_);  // hot-ok: first stamp of this size only
    c_ = Matrixd(n_, n_);  // hot-ok: first stamp of this size only
  } else {
    g_.set_zero();
    c_.set_zero();
  }
  system_.bind_dense(g_, &c_);
  rhs_.assign(n_, std::complex<double>{});
  AcStamp stamp(operating_point, system_, rhs_, num_nodes_, conditions);
  for (const auto& device : netlist) device->stamp_ac(stamp);
  // Tiny shunt keeps floating small-signal nodes well-posed.
  for (std::size_t k = 0; k + 1 < num_nodes_; ++k)
    system_.add(static_cast<int>(k), static_cast<int>(k), 1e-12);
  obs::registry().counters.ac_stamps.add();
}

const VectorC& AcSession::solve(double frequency_hz) {
  if (!stamped())
    throw std::logic_error("AcSession::solve: stamp() a netlist first");
  const double omega = 2.0 * std::numbers::pi * frequency_hz;
  solution_.resize(n_);
  // Assemble overwrites every entry, so skip the workspace zeroing.
  Matrixc& a = lu_.workspace(n_, /*zero=*/false);
  linalg::assemble_complex_into(g_.data(), c_.data(), omega, a.data(),
                                n_ * n_);
  try {
    lu_.refactor();
  } catch (const linalg::SingularMatrixError& e) {
    rethrow_singular(e);
  }
  lu_.solve_into(rhs_.data(), solution_.data());
  obs::registry().counters.ac_probes.add();
  return solution_;
}

std::complex<double> AcSession::node_voltage(double frequency_hz,
                                             NodeId node) {
  if (node == circuit::kGround) return {0.0, 0.0};
  return solve(frequency_hz)[static_cast<std::size_t>(node - 1)];
}

VectorC solve_ac(const Netlist& netlist, const Vector& operating_point,
                 const Conditions& conditions, double frequency_hz) {
  AcSession session(netlist, operating_point, conditions);
  return session.solve(frequency_hz);
}

std::complex<double> ac_node_voltage(const Netlist& netlist,
                                     const Vector& operating_point,
                                     const Conditions& conditions,
                                     double frequency_hz, NodeId node) {
  if (node == circuit::kGround) return {0.0, 0.0};
  AcSession session(netlist, operating_point, conditions);
  return session.node_voltage(frequency_hz, node);
}

FrequencyResponse sweep_ac(const Netlist& netlist, const Vector& operating_point,
                           const Conditions& conditions, NodeId node,
                           double f_start, double f_stop,
                           int points_per_decade) {
  if (!(f_start > 0.0) || !(f_stop > f_start))
    throw std::invalid_argument("sweep_ac: need 0 < f_start < f_stop");
  if (points_per_decade < 1)
    throw std::invalid_argument("sweep_ac: points_per_decade must be >= 1");
  FrequencyResponse out;
  const double decades = std::log10(f_stop / f_start);
  const int total = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
  out.frequency_hz.reserve(static_cast<std::size_t>(total));
  out.response.reserve(static_cast<std::size_t>(total));
  // One stamp serves the whole grid.
  AcSession session(netlist, operating_point, conditions);
  for (int i = 0; i < total; ++i) {
    const double frac = static_cast<double>(i) / (total - 1);
    const double f = f_start * std::pow(10.0, frac * decades);
    out.frequency_hz.push_back(f);
    out.response.push_back(session.node_voltage(f, node));
  }
  return out;
}

}  // namespace mayo::sim
