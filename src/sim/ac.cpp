#include "sim/ac.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "obs/obs.hpp"
#include "sim/source_tree.hpp"

namespace mayo::sim {

using circuit::AcStamp;
using circuit::Conditions;
using circuit::Netlist;
using circuit::NodeId;
using linalg::Matrixd;
using linalg::Vector;
using linalg::VectorC;

struct AcSession::Reduction {
  SourceTree tree;
  std::vector<double> g_free;             ///< free block of G, row-major
  std::vector<double> c_free;             ///< free block of C, row-major
  std::vector<std::complex<double>> rhs;  ///< free-block right-hand side
  std::vector<std::complex<double>> y;    ///< free-block solution
};

AcSession::AcSession() = default;

AcSession::AcSession(const Netlist& netlist, const Vector& operating_point,
                     const Conditions& conditions) {
  stamp(netlist, operating_point, conditions);
}

AcSession::~AcSession() = default;

void AcSession::stamp(const Netlist& netlist, const Vector& operating_point,
                      const Conditions& conditions) {
  if (operating_point.size() != netlist.system_size())
    throw std::invalid_argument("AcSession::stamp: operating point size mismatch");
  audit::enforce_boundary(netlist, audit_, /*capacitors_conduct=*/true);
  if (!reduction_) reduction_ = std::make_unique<Reduction>();
  reduction_->tree.build(netlist);
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
  factored_ = false;
  rhs_.assign(n_, std::complex<double>{});
  AcStamp stamp(operating_point, system_, rhs_, num_nodes_, conditions);
  for (const auto& device : netlist) device->stamp_ac(stamp);
  // Tiny shunt keeps floating small-signal nodes well-posed.
  for (std::size_t k = 0; k + 1 < num_nodes_; ++k)
    system_.add(static_cast<int>(k), static_cast<int>(k), 1e-12);
  // The free blocks of G and C, gathered once for every frequency probed.
  Reduction& r = *reduction_;
  const std::size_t m = r.tree.free_size();
  r.g_free.resize(m * m);  // no allocation once a free block of size m was seen
  r.c_free.resize(m * m);
  const std::size_t n = n_;
  const double* g = g_.data();
  const double* c = c_.data();
  r.tree.gather([g, n](std::size_t row, std::size_t col) { return g[row * n + col]; },
                r.g_free.data());
  r.tree.gather([c, n](std::size_t row, std::size_t col) { return c[row * n + col]; },
                r.c_free.data());
  r.rhs.resize(m);
  r.y.resize(m);
  obs::registry().counters.ac_stamps.add();
}

void AcSession::update_excitation(const circuit::VoltageSource& source) {
  if (!stamped())
    throw std::logic_error("AcSession::update_excitation: stamp() a netlist first");
  const int row = static_cast<int>(num_nodes_) - 1 + source.branch();
  if (source.branch() < 0 || static_cast<std::size_t>(row) >= n_)
    throw std::invalid_argument(
        "AcSession::update_excitation: source branch outside the system");
  // As stamp() builds it: the branch row is zeroed, then the source adds
  // its value (no other device stamps a voltage source's branch row).
  std::complex<double>& b = rhs_[static_cast<std::size_t>(row)];
  b = {};
  b += source.ac_value();
}

const VectorC& AcSession::solve(double frequency_hz) {
  if (!stamped())
    throw std::logic_error("AcSession::solve: stamp() a netlist first");
  Reduction& r = *reduction_;
  const double omega = 2.0 * std::numbers::pi * frequency_hz;
  if (!factored_ || std::bit_cast<std::uint64_t>(frequency_hz) !=
                        std::bit_cast<std::uint64_t>(factored_hz_)) {
    const std::size_t m = r.tree.free_size();
    // Assemble overwrites every entry, so skip the workspace zeroing.
    linalg::assemble_complex_into(r.g_free.data(), r.c_free.data(), omega,
                                  lu_.workspace(m, /*zero=*/false).data(),
                                  m * m);
    factored_ = false;  // a singular refactor leaves no usable factors
    try {
      lu_.refactor();
    } catch (const linalg::SingularMatrixError& e) {
      r.tree.rethrow_singular(e);
    }
    factored_ = true;
    factored_hz_ = frequency_hz;
    obs::registry().counters.ac_factorizations.add();
  }
  // The substitutions around the factors read the entries of the whole
  // A = G + j omega C that couple the tree to the rest.
  const double* g = g_.data();
  const double* c = c_.data();
  const std::size_t n = n_;
  const auto a = [g, c, omega, n](std::size_t row, std::size_t col) {
    const std::size_t k = row * n + col;
    return std::complex<double>(g[k], omega * c[k]);
  };
  solution_.resize(n_);
  r.tree.solve(lu_, a, rhs_.data(), solution_.data(), r.rhs.data(),
               r.y.data());
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
