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
  system.set_diagnostic_netlist(&netlist);
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
      jacobian.add(static_cast<int>(k), static_cast<int>(k),
                   options.gmin_floor);
      residual[k] += options.gmin_floor * x[k];
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
    if (max_dv < options.vntol * 10.0 && residual.max_abs() < options.abstol * 10.0)
      return true;
  }
  return false;
}

/// Step, in base steps, after an accepted step of `stride` base steps (see
/// TranOptions::max_dt): the largest power of two p <= 2 * stride with
/// p * dt <= max_dt whose backward-Euler truncation estimate
/// 1/2 (p dt)^2 max|v''| stays within 10 * vntol, and never below 1.  v''
/// is the second divided difference of the last three accepted node
/// voltages; 10 * vntol is the update size the step's own Newton loop
/// accepts as converged, so a longer step errs by no more than Newton
/// already tolerates.
int next_stride(const TranResult& result, std::size_t num_nodes, int stride,
                const TranOptions& options) {
  const std::size_t m = result.time.size();
  if (m < 3 || 2.0 * options.dt > options.max_dt) return 1;
  const double t0 = result.time[m - 3];
  const double t1 = result.time[m - 2];
  const double t2 = result.time[m - 1];
  const Vector& v0 = result.solutions[m - 3];
  const Vector& v1 = result.solutions[m - 2];
  const Vector& v2 = result.solutions[m - 1];
  double curvature = 0.0;  // max |v''| over node voltages; NaN sticks
  for (std::size_t i = 0; i + 1 < num_nodes; ++i) {
    const double second = std::abs(
        2.0 * ((v2[i] - v1[i]) / (t2 - t1) - (v1[i] - v0[i]) / (t1 - t0)) /
        (t2 - t0));
    if (std::isnan(second) || second > curvature) curvature = second;
  }
  const double bound = 10.0 * options.newton.vntol;
  int next = 1;
  while (next <= stride) {
    const double h = static_cast<double>(2 * next) * options.dt;
    if (h > options.max_dt || !(0.5 * h * h * curvature <= bound)) break;
    next *= 2;
  }
  return next;
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
  if (!(options.max_dt >= 0.0))
    throw std::invalid_argument("solve_transient: max_dt must be non-negative");
  if (options.max_dt > options.dt && options.method == TranMethod::kBdf2)
    throw std::invalid_argument(
        "solve_transient: step growth (max_dt > dt) estimates backward "
        "Euler's truncation error, not BDF2's");
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
  NewtonScratch scratch;
  const int steps = static_cast<int>(std::ceil(options.t_stop / options.dt));
  result.time.reserve(static_cast<std::size_t>(steps) + 1);
  result.solutions.reserve(static_cast<std::size_t>(steps) + 1);
  // Accepted times are k * dt; each step advances k by `stride`.
  int stride = 1;
  for (int k = 0; k < steps;) {
    int k_next = std::min(k + stride, steps);
    double t =
        std::min(static_cast<double>(k_next) * options.dt, options.t_stop);
    double h = t - result.time.back();
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
    if (!step_ok && k_next - k > 1) {
      // A grown step failed: fall back to the base step before halving.
      // (Growth implies backward Euler, so there is no BDF2 history.)
      k_next = k + 1;
      t = std::min(static_cast<double>(k_next) * options.dt, options.t_stop);
      h = t - result.time.back();
      x = x_prev;
      step_ok = newton_step(netlist, conditions, options.newton, x_prev, h, t,
                            x, result.newton_iterations, system, scratch);
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
    stride = next_stride(result, netlist.num_nodes(), k_next - k, options);
    k = k_next;
  }
  result.converged = true;
  tallies.tran_newton_iterations.add(
      static_cast<std::uint64_t>(result.newton_iterations));
  return result;
}

double max_slope(const std::vector<double>& time,
                 const std::vector<double>& values) {
  if (time.size() != values.size())
    throw std::invalid_argument("max_slope: size mismatch");
  double best = 0.0;
  for (std::size_t k = 1; k < time.size(); ++k) {
    const double h = time[k] - time[k - 1];
    if (h <= 0.0) continue;
    best = std::max(best, (values[k] - values[k - 1]) / h);
  }
  return best;
}

double max_negative_slope(const std::vector<double>& time,
                          const std::vector<double>& values) {
  if (time.size() != values.size())
    throw std::invalid_argument("max_negative_slope: size mismatch");
  double best = 0.0;
  for (std::size_t k = 1; k < time.size(); ++k) {
    const double h = time[k] - time[k - 1];
    if (h <= 0.0) continue;
    best = std::max(best, -(values[k] - values[k - 1]) / h);
  }
  return best;
}

}  // namespace mayo::sim
