#include "audit/connectivity.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace mayo::audit {
namespace {

using circuit::Capacitor;
using circuit::CurrentSource;
using circuit::Device;
using circuit::Diode;
using circuit::Inductor;
using circuit::kGround;
using circuit::Mosfet;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::Vcvs;
using circuit::VoltageSource;

/// Plain union-find with path halving; deterministic for a fixed edge
/// insertion order.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int find(int a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }

  /// Joins the two sets; returns false when already connected (the edge
  /// closes a cycle).
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[std::max(a, b)] = std::min(a, b);
    return true;
  }

 private:
  std::vector<int> parent_;
};

/// Flat view of one device's graph contribution.
struct DeviceEdges {
  /// Every node the device touches, led by the pair its stamp couples: the
  /// device is self-looped (AUD-006) when those two are one node.
  std::vector<NodeId> terminals;
  std::vector<std::pair<NodeId, NodeId>> conduction;  // DC Jacobian edges
  bool zero_impedance_branch = false;  // V / VCVS / L: ideal voltage branch
  std::pair<NodeId, NodeId> branch_edge{kGround, kGround};
  bool current_source = false;
  std::pair<NodeId, NodeId> source_edge{kGround, kGround};
};

DeviceEdges classify(const Device& device, bool capacitors_conduct) {
  DeviceEdges e;
  if (const auto* r = dynamic_cast<const Resistor*>(&device)) {
    e.terminals = {r->node_a(), r->node_b()};
    e.conduction = {{r->node_a(), r->node_b()}};
  } else if (const auto* c = dynamic_cast<const Capacitor*>(&device)) {
    e.terminals = {c->node_a(), c->node_b()};
    if (capacitors_conduct) e.conduction = {{c->node_a(), c->node_b()}};
  } else if (const auto* l = dynamic_cast<const Inductor*>(&device)) {
    e.terminals = {l->node_a(), l->node_b()};
    e.conduction = {{l->node_a(), l->node_b()}};
    e.zero_impedance_branch = true;
    e.branch_edge = {l->node_a(), l->node_b()};
  } else if (const auto* v = dynamic_cast<const VoltageSource*>(&device)) {
    e.terminals = {v->node_p(), v->node_n()};
    e.conduction = {{v->node_p(), v->node_n()}};
    e.zero_impedance_branch = true;
    e.branch_edge = {v->node_p(), v->node_n()};
  } else if (const auto* i = dynamic_cast<const CurrentSource*>(&device)) {
    e.terminals = {i->node_p(), i->node_n()};
    e.current_source = true;
    e.source_edge = {i->node_p(), i->node_n()};
  } else if (const auto* vc = dynamic_cast<const Vcvs*>(&device)) {
    e.terminals = {vc->node_p(), vc->node_n(), vc->control_p(),
                   vc->control_n()};
    e.conduction = {{vc->node_p(), vc->node_n()}};
    e.zero_impedance_branch = true;
    e.branch_edge = {vc->node_p(), vc->node_n()};
  } else if (const auto* d = dynamic_cast<const Diode*>(&device)) {
    e.terminals = {d->anode(), d->cathode()};
    e.conduction = {{d->anode(), d->cathode()}};
  } else if (const auto* m = dynamic_cast<const Mosfet*>(&device)) {
    // Drain and source lead: drain == gate is the diode connection of
    // every current mirror, not a self-loop.
    e.terminals = {m->drain(), m->source(), m->gate(), m->bulk()};
    // Only the channel conducts at DC; the gate and bulk rows get no
    // Jacobian entries from the device (level-1 model, no leakage).
    e.conduction = {{m->drain(), m->source()}};
  }
  return e;
}

}  // namespace

void audit_connectivity(const Netlist& netlist, AuditReport& report,
                        bool capacitors_conduct) {
  const std::size_t num_nodes = netlist.num_nodes();
  UnionFind full(num_nodes);
  UnionFind conduction(num_nodes);
  std::vector<std::size_t> incidence(num_nodes, 0);

  // -- classification sweep + AUD-006 self-loops (device order) --
  struct BranchEdge {
    const Device* device;
    std::pair<NodeId, NodeId> edge;
  };
  std::vector<BranchEdge> branch_edges;
  std::vector<BranchEdge> source_edges;
  for (const auto& device : netlist) {
    const DeviceEdges e = classify(*device, capacitors_conduct);
    for (const NodeId t : e.terminals) ++incidence[t];
    for (std::size_t i = 1; i < e.terminals.size(); ++i)
      full.unite(e.terminals[0], e.terminals[i]);
    for (const auto& [a, b] : e.conduction)
      if (a != b) conduction.unite(a, b);
    const bool self_loop =
        e.terminals.size() >= 2 && e.terminals[0] == e.terminals[1];
    if (self_loop) {
      report.add({
          "AUD-006",
          e.zero_impedance_branch ? Severity::kError : Severity::kWarning,
          "device '" + device->name() + "' connects node '" +
              netlist.node_name(e.terminals[0]) +
              "' to itself" +
              (e.zero_impedance_branch
                   ? "; its branch equation is identically zero"
                   : "; the stamp cancels to nothing"),
          "device",
          device->name(),
          "connect the device between two distinct nodes or remove it",
      });
    } else {
      if (e.zero_impedance_branch) branch_edges.push_back({device.get(), e.branch_edge});
      if (e.current_source) source_edges.push_back({device.get(), e.source_edge});
    }
  }

  // -- AUD-005: components of the full graph not containing ground --
  // One finding per component, represented by its lowest node id; nodes
  // never touched by any device are excluded (AUD-002 covers them).
  const int ground_root = full.find(kGround);
  std::map<int, std::vector<NodeId>> stray_components;
  for (std::size_t n = 1; n < num_nodes; ++n) {
    if (incidence[n] == 0) continue;
    const int root = full.find(static_cast<int>(n));
    if (root != ground_root)
      stray_components[root].push_back(static_cast<NodeId>(n));
  }
  for (const auto& [root, nodes] : stray_components) {
    std::string message = "subcircuit of " + std::to_string(nodes.size()) +
                          (nodes.size() == 1 ? " node (" : " nodes (");
    for (std::size_t i = 0; i < nodes.size() && i < 4; ++i) {
      if (i > 0) message += ", ";
      message += "'" + netlist.node_name(nodes[i]) + "'";
    }
    if (nodes.size() > 4) message += ", ...";
    message += ") has no connection to ground";
    report.add({
        "AUD-005",
        Severity::kError,
        std::move(message),
        "node",
        netlist.node_name(nodes.front()),
        "tie the subcircuit to the rest of the circuit or to node 0",
    });
  }

  // -- AUD-002: unused and dangling nodes (node order) --
  for (std::size_t n = 1; n < num_nodes; ++n) {
    if (incidence[n] == 0) {
      report.add({
          "AUD-002",
          Severity::kWarning,
          "node '" + netlist.node_name(static_cast<NodeId>(n)) +
              "' is declared but no device connects to it",
          "node",
          netlist.node_name(static_cast<NodeId>(n)),
          "remove the node or connect a device",
      });
    } else if (incidence[n] == 1) {
      report.add({
          "AUD-002",
          Severity::kWarning,
          "node '" + netlist.node_name(static_cast<NodeId>(n)) +
              "' is dangling: only one device terminal touches it",
          "node",
          netlist.node_name(static_cast<NodeId>(n)),
          "a dangling node carries no current; check for a typo in a "
          "node name",
      });
    }
  }

  // -- AUD-001: ground-connected nodes without a DC conduction path --
  // Reported only for nodes inside ground's full component: a whole
  // floating subcircuit is already AUD-005.
  const int ground_conduction = conduction.find(kGround);
  for (std::size_t n = 1; n < num_nodes; ++n) {
    if (incidence[n] == 0) continue;
    if (full.find(static_cast<int>(n)) != ground_root) continue;
    if (conduction.find(static_cast<int>(n)) == ground_conduction) continue;
    report.add({
        "AUD-001",
        Severity::kError,
        "node '" + netlist.node_name(static_cast<NodeId>(n)) +
            "' has no DC conduction path to ground" +
            (capacitors_conduct
                 ? ""
                 : " (capacitors are open at DC; current sources do not "
                   "define a node voltage)"),
        "node",
        netlist.node_name(static_cast<NodeId>(n)),
        "add a DC path (resistor, source, or device channel) from the "
        "node to the rest of the circuit",
    });
  }

  // -- AUD-003: zero-impedance loops of V / VCVS / L branches --
  // An edge joining two already-connected endpoints closes a loop whose
  // KVL sum is overdetermined; the closing device (insertion order) is
  // reported.
  {
    UnionFind branches(num_nodes);
    for (const BranchEdge& b : branch_edges) {
      if (!branches.unite(b.edge.first, b.edge.second)) {
        report.add({
            "AUD-003",
            Severity::kError,
            "device '" + b.device->name() +
                "' closes a loop of ideal voltage branches between nodes "
                "'" +
                netlist.node_name(b.edge.first) + "' and '" +
                netlist.node_name(b.edge.second) + "'",
            "device",
            b.device->name(),
            "break the loop with a series resistance or remove the "
            "redundant source",
        });
      }
    }
  }

  // -- AUD-004: current sources bridging two DC conduction components --
  for (const BranchEdge& s : source_edges) {
    if (conduction.find(s.edge.first) != conduction.find(s.edge.second)) {
      report.add({
          "AUD-004",
          Severity::kError,
          "current source '" + s.device->name() +
              "' is the only DC connection between nodes '" +
              netlist.node_name(s.edge.first) + "' and '" +
              netlist.node_name(s.edge.second) +
              "'; KCL cannot balance an isolated forced current",
          "device",
          s.device->name(),
          "provide a conduction return path (e.g. a parallel resistor) "
          "for the forced current",
      });
    }
  }
}

}  // namespace mayo::audit
