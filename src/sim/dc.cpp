#include "sim/dc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "sim/solver.hpp"

namespace mayo::sim {

using circuit::Conditions;
using circuit::DcStamp;
using circuit::Netlist;
using linalg::Vector;

namespace {

/// Reusable buffers for the Newton iterations of one solve_dc call: the
/// Jacobian is stamped straight into the linear-system workspace and
/// factored in place, so an iteration allocates nothing after the first.
struct NewtonScratch {
  Vector residual;
  Vector step;
};

/// One damped Newton solve with a fixed extra shunt gmin.  Returns true on
/// convergence; `x` holds the final iterate either way.
bool newton(Netlist& netlist, const Conditions& conditions,
            const DcOptions& options, double gmin, Vector& x,
            int& iteration_counter, LinearSystem& system,
            NewtonScratch& scratch) {
  const std::size_t n = netlist.system_size();
  const std::size_t num_nodes = netlist.num_nodes();
  system.set_diagnostic_netlist(&netlist);
  scratch.residual.resize(n);
  scratch.step.resize(n);
  Vector& residual = scratch.residual;
  Vector& step = scratch.step;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++iteration_counter;
    linalg::SystemMatrix& jacobian = system.begin(n);
    residual.fill(0.0);
    DcStamp stamp(x, jacobian, residual, num_nodes, conditions);
    for (const auto& device : netlist) device->stamp_dc(stamp);
    // Shunt gmin from every node to ground keeps the system nonsingular
    // even when channels are cut off.
    for (std::size_t k = 0; k + 1 < num_nodes; ++k) {
      jacobian.add(static_cast<int>(k), static_cast<int>(k), gmin);
      residual[k] += gmin * x[k];
    }

    try {
      system.factor();
    } catch (const linalg::SingularMatrixError&) {
      return false;
    }
    system.solve_into(residual.data(), step.data());

    // Damping: clamp the node-voltage part of the update.
    double scale = 1.0;
    for (std::size_t k = 0; k + 1 < num_nodes; ++k) {
      const double mag = std::abs(step[k]);
      if (mag > options.max_step_v) scale = std::min(scale, options.max_step_v / mag);
    }
    double max_dv = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double delta = -scale * step[k];
      x[k] += delta;
      if (k + 1 < num_nodes) max_dv = std::max(max_dv, std::abs(delta));
    }

    const double max_res = residual.max_abs();
    if (max_dv < options.vntol && max_res < options.abstol && scale == 1.0)
      return true;
  }
  return false;
}

/// RAII scaling of all independent sources for source stepping.
class SourceScaler {
 public:
  explicit SourceScaler(Netlist& netlist) {
    for (std::size_t i = 0; i < netlist.num_devices(); ++i) {
      if (auto* vs = dynamic_cast<circuit::VoltageSource*>(&netlist.device(i)))
        vsources_.push_back({vs, vs->dc_value()});
      else if (auto* is = dynamic_cast<circuit::CurrentSource*>(&netlist.device(i)))
        isources_.push_back({is, is->dc_value()});
    }
  }
  ~SourceScaler() { apply(1.0); }

  SourceScaler(const SourceScaler&) = delete;
  SourceScaler& operator=(const SourceScaler&) = delete;

  void apply(double factor) {
    for (auto& [vs, value] : vsources_) vs->set_dc_value(factor * value);
    for (auto& [is, value] : isources_) is->set_dc_value(factor * value);
  }

 private:
  std::vector<std::pair<circuit::VoltageSource*, double>> vsources_;
  std::vector<std::pair<circuit::CurrentSource*, double>> isources_;
};

/// The three-attempt continuation ladder (plain Newton, gmin stepping,
/// source stepping).  Separated from solve_dc so the obs tallies cover
/// every exit path exactly once.
DcResult solve_dc_impl(Netlist& netlist, const Conditions& conditions,
                       const DcOptions& options, const Vector* initial) {
  DcResult result;
  result.solution = (initial != nullptr && initial->size() == netlist.system_size())
                        ? *initial
                        : Vector(netlist.system_size());
  // One linear-system workspace serves every Newton attempt of this solve
  // (the caller-owned one when provided, so its factor buffers stay
  // allocated across solves).
  LinearSystem local_system;
  LinearSystem& system =
      options.workspace != nullptr ? *options.workspace : local_system;
  NewtonScratch scratch;

  // Attempt 1: plain Newton from the seed.
  if (newton(netlist, conditions, options, options.gmin_floor, result.solution,
             result.newton_iterations, system, scratch)) {
    result.converged = true;
    return result;
  }

  // Attempt 2: gmin stepping from a fresh start.
  if (options.allow_gmin_stepping) {
    Vector x(netlist.system_size());
    bool ok = true;
    for (double gmin = 1e-2; gmin >= options.gmin_floor / 2.0; gmin *= 0.01) {
      ++result.continuation_steps;
      if (!newton(netlist, conditions, options, std::max(gmin, options.gmin_floor),
                  x, result.newton_iterations, system, scratch)) {
        ok = false;
        break;
      }
    }
    if (ok && newton(netlist, conditions, options, options.gmin_floor, x,
                     result.newton_iterations, system, scratch)) {
      result.solution = x;
      result.converged = true;
      return result;
    }
  }

  // Attempt 3: source stepping.
  if (options.allow_source_stepping) {
    SourceScaler scaler(netlist);
    Vector x(netlist.system_size());
    bool ok = true;
    for (double factor : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      ++result.continuation_steps;
      scaler.apply(factor);
      if (!newton(netlist, conditions, options, options.gmin_floor, x,
                  result.newton_iterations, system, scratch)) {
        ok = false;
        break;
      }
    }
    scaler.apply(1.0);
    if (ok) {
      result.solution = x;
      result.converged = true;
      return result;
    }
  }

  result.converged = false;
  return result;
}

}  // namespace

DcResult solve_dc(Netlist& netlist, const Conditions& conditions,
                  const DcOptions& options, const Vector* initial) {
  audit::enforce_boundary(netlist, options.audit,
                          /*capacitors_conduct=*/false);
  DcResult result = solve_dc_impl(netlist, conditions, options, initial);
  obs::Counters& tallies = obs::registry().counters;
  tallies.dc_solves.add();
  tallies.dc_newton_iterations.add(
      static_cast<std::uint64_t>(result.newton_iterations));
  if (!result.converged) tallies.dc_nonconverged.add();
  return result;
}

}  // namespace mayo::sim
