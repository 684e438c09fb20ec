#include "circuit/mos_model.hpp"

#include <algorithm>
#include <cmath>

namespace mayo::circuit {

namespace {
constexpr double kEpsOx = 3.9 * 8.854e-12;  // F/m, SiO2 permittivity
// Smoothing half-width for the effective overdrive [V].  Keeps id and its
// derivatives continuous through the cutoff boundary so Newton never sees a
// dead (zero-derivative) device.
constexpr double kOverdriveSmoothing = 2e-3;
// Floor on the body sqrt argument to avoid the singularity at forward bias.
constexpr double kPhiFloor = 0.05;
// Minimal drain-source conductance stamped by every channel [S].
constexpr double kGminDs = 1e-12;

/// Smooth max(vov, 0): veff = (vov + sqrt(vov^2 + 4 delta^2)) / 2.
double smooth_overdrive(double vov, double* dveff_dvov) {
  const double delta = kOverdriveSmoothing;
  const double root = std::sqrt(vov * vov + 4.0 * delta * delta);
  if (dveff_dvov != nullptr) *dveff_dvov = 0.5 * (1.0 + vov / root);
  return 0.5 * (vov + root);
}

/// beta = kp * kp_scale * mu_factor * W / L, in exactly that product order.
double beta_at(const MosProcess& p, const MosGeometry& g,
               const MosVariation& var, double mu_factor) {
  return p.kp * var.kp_scale * mu_factor * g.w / g.l;
}

/// Core evaluation assuming vds >= 0.  Returns id and derivatives w.r.t.
/// (vgs, vds, vbs) in the given frame.
MosEval eval_forward(const MosProcess& p, const MosGeometry& g,
                     const MosVariation& var, double vgs, double vds,
                     double vbs, double temperature_k, double mu_factor) {
  MosEval out;
  out.vth = mos_vth(p, var, vbs, temperature_k);
  out.vov = vgs - out.vth;

  double dveff_dvov = 0.0;
  const double veff = smooth_overdrive(out.vov, &dveff_dvov);
  out.vdsat = veff;

  const double beta = beta_at(p, g, var, mu_factor);
  const double lambda = p.lambda_l / g.l;

  // dvth/dvbs for the body-effect conductance.  When the sqrt argument is
  // clamped (strong forward bulk bias), vth no longer depends on vbs and
  // the derivative must vanish with it.
  const double phi_arg_raw = p.phi - vbs;
  const double phi_arg = std::max(phi_arg_raw, kPhiFloor);
  const double dvth_dvbs =
      phi_arg_raw > kPhiFloor ? -p.gamma / (2.0 * std::sqrt(phi_arg)) : 0.0;

  double did_dveff = 0.0;
  if (vds < veff) {
    // Triode.  (1 + lambda*vds) is applied here as well so that id and
    // did/dvds are continuous at vds == veff.
    const double clm = 1.0 + lambda * vds;
    const double shape = (veff - 0.5 * vds) * vds;
    out.id = beta * shape * clm;
    did_dveff = beta * vds * clm;
    out.gds = beta * (veff - vds) * clm + beta * shape * lambda;
    out.region = MosRegion::kTriode;
  } else {
    // Saturation.
    const double clm = 1.0 + lambda * vds;
    out.id = 0.5 * beta * veff * veff * clm;
    did_dveff = beta * veff * clm;
    out.gds = 0.5 * beta * veff * veff * lambda;
    out.region = MosRegion::kSaturation;
  }
  if (out.vov < 0.0) out.region = MosRegion::kCutoff;

  out.gm = did_dveff * dveff_dvov;            // dId/dVgs
  out.gmb = -out.gm * dvth_dvbs;              // dId/dVbs = gm * (-dvth/dvbs)
  // Keep the channel numerically alive.
  out.gds += kGminDs;
  out.id += kGminDs * vds;
  return out;
}
}  // namespace

double mos_cox(const MosProcess& process) { return kEpsOx / process.tox; }

double mos_mu_factor(const MosProcess& process, double temperature_k) {
  return std::pow(temperature_k / process.tnom, -process.mu_exp);
}

double mos_beta(const MosProcess& process, const MosGeometry& geometry,
                const MosVariation& variation, double temperature_k) {
  return beta_at(process, geometry, variation,
                 mos_mu_factor(process, temperature_k));
}

double mos_vth(const MosProcess& process, const MosVariation& variation,
               double vbs, double temperature_k) {
  const double phi_arg = std::max(process.phi - vbs, kPhiFloor);
  const double body =
      process.gamma * (std::sqrt(phi_arg) - std::sqrt(process.phi));
  const double temp = -process.vth_tc * (temperature_k - process.tnom);
  return process.vth0 + variation.dvth + body + temp;
}

MosEval mos_eval(const MosProcess& process, const MosGeometry& geometry,
                 const MosVariation& variation, const MosBias& bias,
                 double temperature_k) {
  return mos_eval(process, geometry, variation, bias, temperature_k,
                  mos_mu_factor(process, temperature_k));
}

MosEval mos_eval(const MosProcess& process, const MosGeometry& geometry,
                 const MosVariation& variation, const MosBias& bias,
                 double temperature_k, double mu_factor) {
  if (bias.vds >= 0.0) {
    return eval_forward(process, geometry, variation, bias.vgs, bias.vds,
                        bias.vbs, temperature_k, mu_factor);
  }
  // Source/drain exchange: evaluate the mirrored device and map the
  // derivatives back to the original terminal frame.
  //   vgs' = vgd = vgs - vds,  vds' = -vds,  vbs' = vbd = vbs - vds
  const double vgs2 = bias.vgs - bias.vds;
  const double vds2 = -bias.vds;
  const double vbs2 = bias.vbs - bias.vds;
  MosEval fwd = eval_forward(process, geometry, variation, vgs2, vds2, vbs2,
                             temperature_k, mu_factor);
  MosEval out = fwd;
  out.swapped = true;
  // Chain rule on id = -id'(vgs - vds, -vds, vbs - vds): the current into
  // the original drain shrinks as the gate opens (it flows out of that
  // terminal), so dId/dVgs is negative here.
  out.id = -fwd.id;
  out.gm = -fwd.gm;                      // dId/dVgs
  out.gds = fwd.gm + fwd.gds + fwd.gmb;  // dId/dVds
  out.gmb = -fwd.gmb;                    // dId/dVbs
  return out;
}

MosCaps mos_caps(const MosProcess& process, const MosGeometry& geometry) {
  MosCaps caps;
  const double cox = mos_cox(process);
  caps.cgs = (2.0 / 3.0) * geometry.w * geometry.l * cox +
             process.cgso * geometry.w;
  caps.cgd = process.cgdo * geometry.w;
  const double diff_area = geometry.w * process.ldiff;
  caps.cdb = process.cj * diff_area;
  caps.csb = process.cj * diff_area;
  return caps;
}

}  // namespace mayo::circuit
