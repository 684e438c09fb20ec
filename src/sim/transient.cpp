#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "audit/audit.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "sim/solver.hpp"

namespace mayo::sim {

using circuit::Conditions;
using circuit::Netlist;
using circuit::TranStamp;
using linalg::Vector;

std::vector<double> TranResult::node_voltage(circuit::NodeId node) const {
  std::vector<double> out;
  out.reserve(solutions.size());
  for (const Vector& x : solutions)
    out.push_back(node == circuit::kGround ? 0.0 : x[node - 1]);
  return out;
}

namespace {
/// Reusable buffers for every Newton step of one solve_transient call: the
/// Jacobian is stamped straight into the linear-system workspace and
/// factored in place, so a time step allocates nothing after the first.
struct NewtonScratch {
  Vector residual;
  Vector step;
};

/// Newton solve of one implicit step (BE, or BDF2 when `x_prev2` is given).
/// `x` is seeded with the previous time point and holds the converged
/// solution on success.
bool newton_step(Netlist& netlist, const Conditions& conditions,
                 const DcOptions& options, const Vector& x_prev, double h,
                 double t, Vector& x, int& iteration_counter,
                 LinearSystem& system, NewtonScratch& scratch,
                 const Vector* x_prev2 = nullptr) {
  const std::size_t n = netlist.system_size();
  const std::size_t num_nodes = netlist.num_nodes();
  scratch.residual.resize(n);
  scratch.step.resize(n);
  Vector& residual = scratch.residual;
  Vector& step = scratch.step;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++iteration_counter;
    linalg::SystemMatrix& jacobian = system.begin(n);
    residual.fill(0.0);
    TranStamp stamp(x, jacobian, residual, num_nodes, conditions, x_prev, h, t,
                    x_prev2);
    for (const auto& device : netlist) device->stamp_tran(stamp);
    for (std::size_t k = 0; k + 1 < num_nodes; ++k) {
      jacobian.add(static_cast<int>(k), static_cast<int>(k), kGminFloor);
      residual[k] += kGminFloor * x[k];
    }

    try {
      system.factor();
    } catch (const linalg::SingularMatrixError&) {
      return false;
    }
    system.solve_into(residual.data(), step.data());

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
    if (max_dv < kVntol * 10.0 && residual.max_abs() < kAbstol * 10.0)
      return true;
  }
  return false;
}

constexpr std::size_t kNoSeed = static_cast<std::size_t>(-1);

/// Index j with seed.time[j] == t_prev and seed.time[j + 1] == t, both
/// solutions of size n; kNoSeed when the seed has no such step.  `cursor`
/// is the first seed point not before the previous call's t_prev, so a
/// run scans the seed once.
std::size_t seed_step(const TranResult& seed, double t_prev, double t,
                      std::size_t n, std::size_t& cursor) {
  const std::vector<double>& time = seed.time;
  while (cursor < time.size() && time[cursor] < t_prev) ++cursor;
  const std::size_t j = cursor;
  if (j + 1 < time.size() && j + 1 < seed.solutions.size() &&
      time[j] == t_prev && time[j + 1] == t && seed.solutions[j].size() == n &&
      seed.solutions[j + 1].size() == n)
    return j;
  return kNoSeed;
}
}  // namespace

TranResult solve_transient(Netlist& netlist, const Vector& initial,
                           const Conditions& conditions,
                           const TranOptions& options) {
  if (initial.size() != netlist.system_size())
    throw std::invalid_argument("solve_transient: initial state size mismatch");
  if (!(options.dt > 0.0) || !(options.t_stop > 0.0))
    throw std::invalid_argument("solve_transient: dt and t_stop must be positive");
  const bool stops = options.stop_node != circuit::kGround;
  if (stops && (options.stop_node < 0 ||
                static_cast<std::size_t>(options.stop_node) >=
                    netlist.num_nodes() ||
                !std::isfinite(options.stop_level)))
    throw std::invalid_argument(
        "solve_transient: stop_node must be a node of the netlist and "
        "stop_level finite");
  // Capacitors stamp companion conductances every step, so they count as
  // conduction edges for the transient boundary audit.
  audit::enforce_boundary(netlist, options.newton.audit,
                          /*capacitors_conduct=*/true);

  obs::Counters& tallies = obs::registry().counters;
  tallies.tran_solves.add();

  TranResult result;
  result.time.push_back(0.0);
  result.solutions.push_back(initial);

  Vector x_prev = initial;
  // A seed that fails to converge a step is dropped for the rest of the
  // run (see below); until then every step it covers may seed.
  bool seed_ok = options.seed != nullptr;
  std::size_t seed_cursor = 0;
  Vector x_prev2;  // two steps back; empty until two equal steps accepted
  // One linear-system workspace serves every Newton step of this run (the
  // caller-owned one when TranOptions::newton provides it).
  LinearSystem local_system;
  LinearSystem& system = options.newton.workspace != nullptr
                             ? *options.newton.workspace
                             : local_system;
  system.set_netlist(&netlist);
  NewtonScratch scratch;
  // The stop reads one unknown; its side of the level at t = 0 sets the
  // direction of the crossing.
  const std::size_t stop_index =
      stops ? static_cast<std::size_t>(options.stop_node - 1) : 0;
  const bool rising = stops && initial[stop_index] < options.stop_level;
  const int steps = static_cast<int>(std::ceil(options.t_stop / options.dt));
  result.time.reserve(static_cast<std::size_t>(steps) + 1);
  result.solutions.reserve(static_cast<std::size_t>(steps) + 1);
  for (int k = 1; k <= steps; ++k) {
    const double t =
        std::min(static_cast<double>(k) * options.dt, options.t_stop);
    const double h = t - result.time.back();
    if (h <= 0.0) break;
    // BDF2 requires two equally spaced history points (full dt steps).
    const bool use_bdf2 = options.method == TranMethod::kBdf2 &&
                          !x_prev2.empty() &&
                          std::abs(h - options.dt) < 1e-15;
    // Newton start: previous point plus the seed's increment over this
    // step when the seed has one, otherwise the previous time point alone.
    // The delta form carries the solution's standing offset from the seed
    // (e.g. a mismatch sample's DC shift against a nominal-response seed)
    // forward into the start, which typically lands an iteration closer
    // to convergence than the raw seed point.  The seed never enters the
    // integration formula itself, so it affects the iteration count and
    // the last-bit Newton endpoint, never the method.
    const std::size_t j =
        seed_ok ? seed_step(*options.seed, result.time.back(), t,
                            netlist.system_size(), seed_cursor)
                : kNoSeed;
    const bool seeded = j != kNoSeed;
    Vector x = x_prev;  // hot-ok: becomes the stored trajectory point
    if (seeded) {
      const Vector& seed_prev = options.seed->solutions[j];
      const Vector& seed_now = options.seed->solutions[j + 1];
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] += seed_now[i] - seed_prev[i];
    }
    bool step_ok = newton_step(netlist, conditions, options.newton, x_prev, h,
                               t, x, result.newton_iterations, system, scratch,
                               use_bdf2 ? &x_prev2 : nullptr);
    if (!step_ok && seeded) {
      // The seed increment threw Newton off course.  A seed that bad once
      // stays bad (the trajectories have already diverged), so dropping it
      // for the rest of the run beats burning max_iterations per step and
      // then distorting the time grid with half-step retries.  The retry
      // starts from the previous point alone, which makes the remainder of
      // the run bitwise identical to a never-seeded run.
      seed_ok = false;
      tallies.tran_seed_resets.add();
      x = x_prev;
      step_ok = newton_step(netlist, conditions, options.newton, x_prev, h, t,
                            x, result.newton_iterations, system, scratch,
                            use_bdf2 ? &x_prev2 : nullptr);
    }
    if (!step_ok) {
      // Retry once with half steps to get through sharp source edges.
      Vector x_half = x_prev;  // hot-ok: rare non-convergence retry path
      const double t_mid = result.time.back() + 0.5 * h;
      const bool first_half = newton_step(netlist, conditions, options.newton,
                                          x_prev, 0.5 * h, t_mid, x_half,
                                          result.newton_iterations, system,
                                          scratch);
      x = x_half;
      const bool second_half =
          first_half && newton_step(netlist, conditions, options.newton, x_half,
                                    0.5 * h, t, x, result.newton_iterations,
                                    system, scratch);
      if (!second_half) {
        result.converged = false;
        tallies.tran_nonconverged.add();
        tallies.tran_newton_iterations.add(
            static_cast<std::uint64_t>(result.newton_iterations));
        return result;
      }
    }
    result.time.push_back(t);
    result.solutions.push_back(x);
    tallies.tran_steps.add();
    // Accepted samples are spaced by h regardless of internal retries;
    // only a full-dt spacing qualifies as BDF2 history.
    if (std::abs(h - options.dt) < 1e-15)
      x_prev2 = x_prev;
    else
      x_prev2.resize(0);  // drops BDF2 history without reallocating
    x_prev = std::move(x);
    if (stops && result.time.size() >= 3 &&
        (rising ? x_prev[stop_index] >= options.stop_level
                : x_prev[stop_index] <= options.stop_level)) {
      result.stopped = true;
      break;
    }
  }
  result.converged = true;
  tallies.tran_newton_iterations.add(
      static_cast<std::uint64_t>(result.newton_iterations));
  return result;
}

}  // namespace mayo::sim
