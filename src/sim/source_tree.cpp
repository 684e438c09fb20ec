#include "sim/source_tree.hpp"

#include <string>

#include "circuit/mna_names.hpp"

namespace mayo::sim {

void SourceTree::build(const circuit::Netlist& netlist) {
  netlist_ = &netlist;
  n_ = netlist.system_size();
  const std::size_t nodes = netlist.num_nodes();
  // Sweep the sources in device order until a pass fixes no new node: a
  // source with exactly one fixed terminal fixes the other.
  fixed_.assign(nodes, 0);
  fixed_[circuit::kGround] = 1;
  links_.clear();
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& device : netlist) {
      const circuit::VoltageSource* source = device->as_voltage_source();
      if (source == nullptr) continue;
      const auto p = static_cast<std::size_t>(source->node_p());
      const auto n = static_cast<std::size_t>(source->node_n());
      if (p >= nodes || n >= nodes || fixed_[p] == fixed_[n]) continue;
      const std::size_t node = fixed_[p] != 0 ? n : p;
      const std::size_t parent = fixed_[p] != 0 ? p : n;
      fixed_[node] = 1;
      grew = true;
      links_.push_back(
          {node - 1, nodes - 1 + static_cast<std::size_t>(source->branch()),
           parent == circuit::kGround ? kGroundIndex : parent - 1});
    }
  }
  eliminated_.assign(n_, 0);
  for (const Link& link : links_) {
    eliminated_[link.node] = 1;
    eliminated_[link.row] = 1;
  }
  free_.clear();
  for (std::size_t i = 0; i < n_; ++i)
    if (eliminated_[i] == 0) free_.push_back(i);
}

void SourceTree::clear(std::size_t n) {
  netlist_ = nullptr;
  n_ = n;
  links_.clear();
  free_.clear();
  for (std::size_t i = 0; i < n; ++i) free_.push_back(i);
}

void SourceTree::rethrow_singular(
    const linalg::SingularMatrixError& error) const {
  // Partial pivoting fails when column `step` of the free block has no
  // nonzero left below the diagonal, so the step names free unknown
  // `step`.
  const std::size_t step = error.pivot_index();
  const std::size_t unknown = step < free_.size() ? free_[step] : step;
  linalg::SingularMatrixError named(unknown);
  if (netlist_ == nullptr || netlist_->system_size() != n_) throw named;
  std::string message(named.what());
  message += " (unknown: " + circuit::mna_unknown_name(*netlist_, unknown) + ")";
  throw linalg::SingularMatrixError(unknown, message);
}

}  // namespace mayo::sim
