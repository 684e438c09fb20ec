#include "sim/measure.hpp"

#include "sim/ac.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mayo::sim {

using circuit::Conditions;
using circuit::Netlist;
using circuit::NodeId;
using linalg::Vector;

double to_db(std::complex<double> h) { return 20.0 * std::log10(std::abs(h)); }

double phase_deg(std::complex<double> h) {
  return std::arg(h) * 180.0 / std::numbers::pi;
}

namespace {
/// log |h| clamped away from -inf so a notch-exact zero cannot poison the
/// Ridders update with non-finite arithmetic.
double log_mag(std::complex<double> h) {
  const double mag = std::abs(h);
  return std::log(mag > 1e-300 ? mag : 1e-300);
}
}  // namespace

GainBandwidth measure_gain_bandwidth(AcSession& session, NodeId out,
                                     double f_low, double f_high,
                                     const FtBracket* bracket,
                                     std::optional<std::complex<double>> h_low) {
  GainBandwidth result;
  const auto h_at = [&](double f) { return session.node_voltage(f, out); };

  if (!h_low) h_low = h_at(f_low);
  result.a0_db = to_db(*h_low);
  const double mag_low = std::abs(*h_low);
  if (mag_low <= 1.0) {
    // Already below unity at f_low: no meaningful crossing.
    return result;
  }

  double f_lo_bracket = 0.0;
  double f_hi_bracket = 0.0;
  double mag_lo_bracket = 0.0;
  std::complex<double> h_hi_bracket;

  // Seeded path: verify the caller's bracket with two solves, then go
  // straight to the refinement.  A seed that no longer brackets (the
  // crossing moved past it) silently falls back to the grid scan below.
  if (bracket != nullptr && bracket->f_lo > 0.0 &&
      bracket->f_hi > bracket->f_lo && bracket->f_lo >= f_low &&
      bracket->f_hi <= f_high) {
    const double seed_mag_lo = std::abs(h_at(bracket->f_lo));
    if (seed_mag_lo > 1.0) {
      const std::complex<double> seed_h_hi = h_at(bracket->f_hi);
      if (std::abs(seed_h_hi) <= 1.0) {
        f_lo_bracket = bracket->f_lo;
        f_hi_bracket = bracket->f_hi;
        mag_lo_bracket = seed_mag_lo;
        h_hi_bracket = seed_h_hi;
      }
    }
  }

  if (f_hi_bracket == 0.0) {
    // Bracket |H| = 1 on a log grid (8 points per decade is plenty for the
    // -20 dB/dec slope of a compensated opamp).  The f_low endpoint reuses
    // the magnitude already computed for a0.
    const int per_decade = 8;
    const double decades = std::log10(f_high / f_low);
    const int total = static_cast<int>(std::ceil(decades * per_decade)) + 1;
    double f_prev = f_low;
    double mag_prev = mag_low;
    for (int i = 1; i < total; ++i) {
      const double f = f_low * std::pow(10.0, decades * static_cast<double>(i) /
                                                  (total - 1));
      const std::complex<double> h = h_at(f);
      if (std::abs(h) <= 1.0) {
        f_lo_bracket = f_prev;
        f_hi_bracket = f;
        mag_lo_bracket = mag_prev;
        h_hi_bracket = h;
        break;
      }
      f_prev = f;
      mag_prev = std::abs(h);
    }
  }
  if (f_hi_bracket == 0.0) return result;  // never dropped below unity

  // Ridders refinement on x = log f, g(x) = log |H|: the transfer
  // magnitude of a compensated amplifier is near-linear in these
  // coordinates around the crossing, so the exponentially-fitted false
  // position converges in two or three iterations where the former fixed
  // bisection spent a dozen solves.  Every evaluated point keeps its full
  // phasor, so the final refinement solve is also the phase-margin probe.
  double x_lo = std::log(f_lo_bracket);
  double x_hi = std::log(f_hi_bracket);
  double g_lo = std::log(mag_lo_bracket);  // > 0 by construction
  double g_hi = log_mag(h_hi_bracket);     // <= 0 by construction
  // Fallbacks when the loop cannot improve: the upper bracket endpoint is
  // the nearest point with a solved phasor.
  double f_best = f_hi_bracket;
  std::complex<double> h_best = h_hi_bracket;
  const double x_tol = std::log(1.0005);
  for (int iter = 0; iter < 20 && x_hi - x_lo >= x_tol && g_hi < 0.0;
       ++iter) {
    const double x_mid = 0.5 * (x_lo + x_hi);
    const std::complex<double> h_mid = h_at(std::exp(x_mid));
    const double g_mid = log_mag(h_mid);
    f_best = std::exp(x_mid);
    h_best = h_mid;
    if (g_mid == 0.0) break;  // exact crossing
    const double s = std::sqrt(g_mid * g_mid - g_lo * g_hi);
    if (!(s > 0.0)) break;
    // g_lo > 0 > g_hi, so the update moves from x_mid toward the root.
    const double x_new = x_mid + (x_mid - x_lo) * g_mid / s;
    const std::complex<double> h_new = h_at(std::exp(x_new));
    const double g_new = log_mag(h_new);
    f_best = std::exp(x_new);
    h_best = h_new;
    if (g_new == 0.0) break;  // exact crossing
    // Re-bracket from the two fresh evaluations; the ordering x_lo < x_hi
    // is preserved because x_new lands on the root side of x_mid.
    if ((g_mid > 0.0) != (g_new > 0.0)) {
      if (g_mid > 0.0) {
        x_lo = x_mid;
        g_lo = g_mid;
        x_hi = x_new;
        g_hi = g_new;
      } else {
        x_lo = x_new;
        g_lo = g_new;
        x_hi = x_mid;
        g_hi = g_mid;
      }
    } else if (g_new > 0.0) {
      x_lo = x_new;
      g_lo = g_new;
    } else {
      x_hi = x_new;
      g_hi = g_new;
    }
  }
  result.ft_hz = f_best;
  result.ft_found = true;
  result.phase_margin_deg = 180.0 + phase_deg(h_best);
  // 180 + arg(h) lies in (0, 360]; wrap into (-180, 180] so a loop phase
  // past -180 deg reads as the negative margin it is, not one near +360.
  if (result.phase_margin_deg > 180.0) result.phase_margin_deg -= 360.0;
  return result;
}

GainBandwidth measure_gain_bandwidth(const Netlist& netlist,
                                     const Vector& operating_point,
                                     const Conditions& conditions, NodeId out,
                                     double f_low, double f_high,
                                     const FtBracket* bracket) {
  AcSession session(netlist, operating_point, conditions);
  return measure_gain_bandwidth(session, out, f_low, f_high, bracket);
}

double measure_supply_power(
    const Netlist& netlist, const Vector& operating_point,
    const std::vector<const circuit::VoltageSource*>& supplies) {
  double power = 0.0;
  const std::size_t node_vars = netlist.num_nodes() - 1;
  for (const auto* supply : supplies) {
    if (supply == nullptr) continue;
    const double current =
        operating_point[node_vars + static_cast<std::size_t>(supply->branch())];
    power += std::abs(current * supply->dc_value());
  }
  return power;
}

double measure_slew_rate(const std::vector<double>& time,
                         const std::vector<double>& v, double v_end) {
  if (v.size() < 3 || time.size() != v.size()) return 0.0;
  const double v_start = v.front();
  const double delta = v_end - v_start;
  if (std::abs(delta) < 1e-6) return 0.0;
  // First crossing of `level` in the direction of the edge, linearly
  // interpolated between samples; -1 when the waveform never crosses.
  const auto crossing = [&](double level) {
    for (std::size_t k = 1; k < v.size(); ++k) {
      const bool crossed = delta > 0.0 ? (v[k - 1] < level && v[k] >= level)
                                       : (v[k - 1] > level && v[k] <= level);
      if (crossed) {
        const double f = (level - v[k - 1]) / (v[k] - v[k - 1]);
        return time[k - 1] + f * (time[k] - time[k - 1]);
      }
    }
    return -1.0;
  };
  const double t10 = crossing(swing_level(v_start, v_end, 0.1));
  const double t90 = crossing(swing_level(v_start, v_end, 0.9));
  if (t10 < 0.0 || t90 < 0.0 || t90 <= t10) return 0.0;
  return 0.8 * std::abs(delta) / (t90 - t10);
}

std::vector<MosOperatingPoint> mos_operating_points(
    const Netlist& netlist, const Vector& operating_point,
    const Conditions& conditions) {
  std::vector<MosOperatingPoint> out;
  const auto voltage = [&](NodeId n) {
    return n == circuit::kGround ? 0.0
                                 : operating_point[static_cast<std::size_t>(n - 1)];
  };
  for (const auto* mos : netlist.mosfets()) {
    const circuit::MosEval eval = mos->evaluate_at(
        voltage(mos->drain()), voltage(mos->gate()), voltage(mos->source()),
        voltage(mos->bulk()), conditions.temperature_k);
    MosOperatingPoint op;
    op.name = mos->name();
    op.id = std::abs(eval.id);
    op.vov = eval.vov;
    op.vdsat = eval.vdsat;
    op.region = eval.region;
    // Polarity-frame vds (positive in normal operation).
    const double p = mos->type() == circuit::MosType::kNmos ? 1.0 : -1.0;
    op.vds = p * (voltage(mos->drain()) - voltage(mos->source()));
    op.sat_margin = op.vds - op.vdsat;
    out.push_back(std::move(op));
  }
  return out;
}

}  // namespace mayo::sim
