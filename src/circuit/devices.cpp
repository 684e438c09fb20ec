#include "circuit/devices.hpp"

#include <cmath>
#include <stdexcept>

namespace mayo::circuit {

// -------------------------------------------------------------- Resistor --

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (!(resistance > 0.0))
    throw std::invalid_argument("Resistor " + this->name() +
                                ": resistance must be positive");
}

void Resistor::set_resistance(double r) {
  if (!(r > 0.0))
    throw std::invalid_argument("Resistor " + name() +
                                ": resistance must be positive");
  resistance_ = r;
}

void Resistor::stamp_dc(DcStamp& stamp) const {
  const double g = 1.0 / resistance_;
  const double i = g * (stamp.v(a_) - stamp.v(b_));
  stamp.add_current(a_, i);
  stamp.add_current(b_, -i);
  stamp.add_conductance(a_, b_, g);
}

void Resistor::stamp_ac(AcStamp& stamp) const {
  stamp.add_admittance(a_, b_, 1.0 / resistance_);
}

// ------------------------------------------------------------- Capacitor --

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  if (!(capacitance > 0.0))
    throw std::invalid_argument("Capacitor " + this->name() +
                                ": capacitance must be positive");
}

void Capacitor::set_capacitance(double c) {
  if (!(c > 0.0))
    throw std::invalid_argument("Capacitor " + name() +
                                ": capacitance must be positive");
  capacitance_ = c;
}

void Capacitor::stamp_dc(DcStamp&) const {
  // Open circuit at DC.
}

void Capacitor::stamp_ac(AcStamp& stamp) const {
  stamp.add_capacitance(a_, b_, capacitance_);
}

void Capacitor::stamp_tran(TranStamp& stamp) const {
  stamp.add_capacitor(a_, b_, capacitance_);
}

// --------------------------------------------------------- VoltageSource --

VoltageSource::VoltageSource(std::string name, NodeId p, NodeId n,
                             double dc_value)
    : Device(std::move(name)), p_(p), n_(n), dc_(dc_value) {}

void VoltageSource::set_waveform(std::function<double(double)> waveform) {
  waveform_ = std::move(waveform);
}

void VoltageSource::stamp_dc(DcStamp& stamp) const {
  const int b = first_branch();
  const int brow = stamp.branch_index(b);
  const double i = stamp.branch(b);
  stamp.add_current(p_, i);
  stamp.add_current(n_, -i);
  stamp.add_jacobian(stamp.node_index(p_), brow, 1.0);
  stamp.add_jacobian(stamp.node_index(n_), brow, -1.0);
  stamp.add_branch_residual(b, stamp.v(p_) - stamp.v(n_) - dc_);
  stamp.add_jacobian(brow, stamp.node_index(p_), 1.0);
  stamp.add_jacobian(brow, stamp.node_index(n_), -1.0);
}

void VoltageSource::stamp_ac(AcStamp& stamp) const {
  const int brow = stamp.branch_index(first_branch());
  stamp.add(stamp.node_index(p_), brow, 1.0);
  stamp.add(stamp.node_index(n_), brow, -1.0);
  stamp.add(brow, stamp.node_index(p_), 1.0);
  stamp.add(brow, stamp.node_index(n_), -1.0);
  stamp.add_rhs(brow, ac_);
}

void VoltageSource::stamp_tran(TranStamp& stamp) const {
  const double value = waveform_ ? waveform_(stamp.time()) : dc_;
  const int b = first_branch();
  const int brow = stamp.branch_index(b);
  const double i = stamp.branch(b);
  stamp.add_current(p_, i);
  stamp.add_current(n_, -i);
  stamp.add_jacobian(stamp.node_index(p_), brow, 1.0);
  stamp.add_jacobian(stamp.node_index(n_), brow, -1.0);
  stamp.add_branch_residual(b, stamp.v(p_) - stamp.v(n_) - value);
  stamp.add_jacobian(brow, stamp.node_index(p_), 1.0);
  stamp.add_jacobian(brow, stamp.node_index(n_), -1.0);
}

// --------------------------------------------------------- CurrentSource --

CurrentSource::CurrentSource(std::string name, NodeId p, NodeId n,
                             double dc_value)
    : Device(std::move(name)), p_(p), n_(n), dc_(dc_value) {}

void CurrentSource::stamp_dc(DcStamp& stamp) const {
  stamp.add_current(p_, dc_);
  stamp.add_current(n_, -dc_);
}

void CurrentSource::stamp_ac(AcStamp& stamp) const {
  // Moving the source current to the right-hand side flips the sign.
  stamp.add_rhs(stamp.node_index(p_), -ac_);
  stamp.add_rhs(stamp.node_index(n_), ac_);
}

// -------------------------------------------------------------- Inductor --

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance)
    : Device(std::move(name)), a_(a), b_(b), inductance_(inductance) {
  if (!(inductance > 0.0))
    throw std::invalid_argument("Inductor " + this->name() +
                                ": inductance must be positive");
}

void Inductor::set_inductance(double l) {
  if (!(l > 0.0))
    throw std::invalid_argument("Inductor " + name() +
                                ": inductance must be positive");
  inductance_ = l;
}

void Inductor::stamp_dc(DcStamp& stamp) const {
  // Short circuit at DC: v(a) - v(b) = 0, branch current i flows a -> b.
  const int b = first_branch();
  const int brow = stamp.branch_index(b);
  const double i = stamp.branch(b);
  stamp.add_current(a_, i);
  stamp.add_current(b_, -i);
  stamp.add_jacobian(stamp.node_index(a_), brow, 1.0);
  stamp.add_jacobian(stamp.node_index(b_), brow, -1.0);
  stamp.add_branch_residual(b, stamp.v(a_) - stamp.v(b_));
  stamp.add_jacobian(brow, stamp.node_index(a_), 1.0);
  stamp.add_jacobian(brow, stamp.node_index(b_), -1.0);
}

void Inductor::stamp_ac(AcStamp& stamp) const {
  // Branch equation: v(a) - v(b) - j omega L i = 0; the reactive branch
  // term goes to the C matrix as -L (assembled as -j omega L).
  const int brow = stamp.branch_index(first_branch());
  stamp.add(stamp.node_index(a_), brow, 1.0);
  stamp.add(stamp.node_index(b_), brow, -1.0);
  stamp.add(brow, stamp.node_index(a_), 1.0);
  stamp.add(brow, stamp.node_index(b_), -1.0);
  stamp.add_jomega(brow, brow, -inductance_);
}

void Inductor::stamp_tran(TranStamp& stamp) const {
  // Companion: v = L di/dt with the stamp's active integration formula.
  const int b = first_branch();
  const int brow = stamp.branch_index(b);
  const double i = stamp.branch(b);
  stamp.add_current(a_, i);
  stamp.add_current(b_, -i);
  stamp.add_jacobian(stamp.node_index(a_), brow, 1.0);
  stamp.add_jacobian(stamp.node_index(b_), brow, -1.0);
  const double i_prev = stamp.branch_prev(b);
  double req;
  double v_l;
  if (stamp.bdf2()) {
    const double i_prev2 = stamp.branch_prev2(b);
    req = 1.5 * inductance_ / stamp.step();
    v_l = inductance_ * (3.0 * i - 4.0 * i_prev + i_prev2) / (2.0 * stamp.step());
  } else {
    req = inductance_ / stamp.step();
    v_l = req * (i - i_prev);
  }
  stamp.add_branch_residual(b, stamp.v(a_) - stamp.v(b_) - v_l);
  stamp.add_jacobian(brow, stamp.node_index(a_), 1.0);
  stamp.add_jacobian(brow, stamp.node_index(b_), -1.0);
  stamp.add_jacobian(brow, brow, -req);
}

// ----------------------------------------------------------------- Diode --

Diode::Diode(std::string name, NodeId anode, NodeId cathode,
             double saturation_current, double emission_coefficient, double eg,
             double xti, double tnom)
    : Device(std::move(name)),
      anode_(anode),
      cathode_(cathode),
      is_(saturation_current),
      n_(emission_coefficient),
      eg_(eg),
      xti_(xti),
      tnom_(tnom) {
  if (!(saturation_current > 0.0))
    throw std::invalid_argument("Diode " + this->name() +
                                ": IS must be positive");
  if (!(emission_coefficient > 0.0))
    throw std::invalid_argument("Diode " + this->name() +
                                ": n must be positive");
  if (!(tnom > 0.0))
    throw std::invalid_argument("Diode " + this->name() +
                                ": Tnom must be positive");
}

void Diode::set_saturation_current(double is) {
  if (!(is > 0.0))
    throw std::invalid_argument("Diode " + name() + ": IS must be positive");
  is_ = is;
}

namespace {
constexpr double kBoltzmannOverQ = 8.617333262e-5;  // V/K
}  // namespace

Diode::SaturationTerms Diode::saturation_terms(double temperature_k) const {
  return saturation_memo_.get(temperature_k, [this](double t) {
    // SPICE temperature law for the saturation current.
    const double ratio = t / tnom_;
    const double vt_nom = n_ * kBoltzmannOverQ * tnom_;
    return SaturationTerms{std::pow(ratio, xti_ / n_),
                           std::exp(eg_ / vt_nom * (ratio - 1.0) / ratio)};
  });
}

Diode::Eval Diode::evaluate(double v, double temperature_k) const {
  const double vt = n_ * kBoltzmannOverQ * temperature_k;
  const SaturationTerms terms = saturation_terms(temperature_k);
  const double is_t = is_ * terms.power * terms.bandgap;
  const double x = v / vt;
  // Linearize beyond x_max to keep Newton iterates finite (standard
  // junction-limiting alternative).
  constexpr double kXMax = 40.0;
  Eval out;
  if (x <= kXMax) {
    const double e = std::exp(x);
    out.id = is_t * (e - 1.0);
    out.gd = is_t * e / vt;
  } else {
    const double e = std::exp(kXMax);
    out.id = is_t * (e * (1.0 + (x - kXMax)) - 1.0);
    out.gd = is_t * e / vt;
  }
  return out;
}

void Diode::stamp_dc(DcStamp& stamp) const {
  const double v = stamp.v(anode_) - stamp.v(cathode_);
  const Eval e = evaluate(v, stamp.temperature());
  stamp.add_current(anode_, e.id);
  stamp.add_current(cathode_, -e.id);
  stamp.add_conductance(anode_, cathode_, e.gd);
}

void Diode::stamp_ac(AcStamp& stamp) const {
  const double v = stamp.v(anode_) - stamp.v(cathode_);
  const Eval e = evaluate(v, stamp.temperature());
  stamp.add_admittance(anode_, cathode_, e.gd);
}

// ------------------------------------------------------------------ Vcvs --

Vcvs::Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn,
           double gain)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::stamp_dc(DcStamp& stamp) const {
  const int b = first_branch();
  const int brow = stamp.branch_index(b);
  const double i = stamp.branch(b);
  stamp.add_current(p_, i);
  stamp.add_current(n_, -i);
  stamp.add_jacobian(stamp.node_index(p_), brow, 1.0);
  stamp.add_jacobian(stamp.node_index(n_), brow, -1.0);
  stamp.add_branch_residual(b, stamp.v(p_) - stamp.v(n_) -
                                   gain_ * (stamp.v(cp_) - stamp.v(cn_)));
  stamp.add_jacobian(brow, stamp.node_index(p_), 1.0);
  stamp.add_jacobian(brow, stamp.node_index(n_), -1.0);
  stamp.add_jacobian(brow, stamp.node_index(cp_), -gain_);
  stamp.add_jacobian(brow, stamp.node_index(cn_), gain_);
}

void Vcvs::stamp_ac(AcStamp& stamp) const {
  const int brow = stamp.branch_index(first_branch());
  stamp.add(stamp.node_index(p_), brow, 1.0);
  stamp.add(stamp.node_index(n_), brow, -1.0);
  stamp.add(brow, stamp.node_index(p_), 1.0);
  stamp.add(brow, stamp.node_index(n_), -1.0);
  stamp.add(brow, stamp.node_index(cp_), -gain_);
  stamp.add(brow, stamp.node_index(cn_), gain_);
}

// ---------------------------------------------------------------- Mosfet --

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, NodeId bulk, const MosProcess& process,
               MosGeometry geometry)
    : Device(std::move(name)),
      type_(type),
      drain_(drain),
      gate_(gate),
      source_(source),
      bulk_(bulk),
      process_(process),
      geometry_(geometry) {
  if (!(geometry.w > 0.0) || !(geometry.l > 0.0))
    throw std::invalid_argument("Mosfet " + this->name() +
                                ": W and L must be positive");
}

void Mosfet::set_geometry(MosGeometry geometry) {
  if (!(geometry.w > 0.0) || !(geometry.l > 0.0))
    throw std::invalid_argument("Mosfet " + name() +
                                ": W and L must be positive");
  geometry_ = geometry;
}

void Mosfet::set_width(double w) { set_geometry({w, geometry_.l}); }
void Mosfet::set_length(double l) { set_geometry({geometry_.w, l}); }

MosBias Mosfet::bias_from(double vd, double vg, double vs, double vb) const {
  const double p = type_ == MosType::kNmos ? 1.0 : -1.0;
  return {p * (vg - vs), p * (vd - vs), p * (vb - vs)};
}

MosEval Mosfet::evaluate_at(double vd, double vg, double vs, double vb,
                            double temperature_k) const {
  const double mu_factor = mu_factor_.get(temperature_k, [this](double t) {
    return mos_mu_factor(process_, t);
  });
  return mos_eval(process_, geometry_, variation_, bias_from(vd, vg, vs, vb),
                  temperature_k, mu_factor);
}

MosEval Mosfet::evaluate(const DcStamp& stamp) const {
  return evaluate_at(stamp.v(drain_), stamp.v(gate_), stamp.v(source_),
                     stamp.v(bulk_), stamp.temperature());
}

void Mosfet::stamp_channel(DcStamp& stamp) const {
  const double p = type_ == MosType::kNmos ? 1.0 : -1.0;
  const MosEval e = evaluate(stamp);
  // Physical drain current (into the drain terminal): p * id.  The
  // conductances are invariant under the polarity flip (p^2 == 1).
  const double id_phys = p * e.id;
  stamp.add_current(drain_, id_phys);
  stamp.add_current(source_, -id_phys);

  const int rd = stamp.node_index(drain_);
  const int rs = stamp.node_index(source_);
  const int cg = stamp.node_index(gate_);
  const int cd = stamp.node_index(drain_);
  const int cs = stamp.node_index(source_);
  const int cb = stamp.node_index(bulk_);
  const double gsum = e.gm + e.gds + e.gmb;

  stamp.add_jacobian(rd, cg, e.gm);
  stamp.add_jacobian(rd, cd, e.gds);
  stamp.add_jacobian(rd, cb, e.gmb);
  stamp.add_jacobian(rd, cs, -gsum);
  stamp.add_jacobian(rs, cg, -e.gm);
  stamp.add_jacobian(rs, cd, -e.gds);
  stamp.add_jacobian(rs, cb, -e.gmb);
  stamp.add_jacobian(rs, cs, gsum);
}

void Mosfet::stamp_dc(DcStamp& stamp) const { stamp_channel(stamp); }

void Mosfet::stamp_ac(AcStamp& stamp) const {
  // Small-signal conductances from the DC operating point.
  const double vd = stamp.v(drain_);
  const double vg = stamp.v(gate_);
  const double vs = stamp.v(source_);
  const double vb = stamp.v(bulk_);
  const MosEval e = evaluate_at(vd, vg, vs, vb, stamp.temperature());

  const int rd = stamp.node_index(drain_);
  const int rs = stamp.node_index(source_);
  const int cg = stamp.node_index(gate_);
  const int cd = stamp.node_index(drain_);
  const int cs = stamp.node_index(source_);
  const int cb = stamp.node_index(bulk_);
  const double gsum = e.gm + e.gds + e.gmb;

  stamp.add(rd, cg, e.gm);
  stamp.add(rd, cd, e.gds);
  stamp.add(rd, cb, e.gmb);
  stamp.add(rd, cs, -gsum);
  stamp.add(rs, cg, -e.gm);
  stamp.add(rs, cd, -e.gds);
  stamp.add(rs, cb, -e.gmb);
  stamp.add(rs, cs, gsum);

  const MosCaps caps = mos_caps(process_, geometry_);
  stamp.add_capacitance(gate_, source_, caps.cgs);
  stamp.add_capacitance(gate_, drain_, caps.cgd);
  stamp.add_capacitance(drain_, bulk_, caps.cdb);
  stamp.add_capacitance(source_, bulk_, caps.csb);
}

void Mosfet::stamp_tran(TranStamp& stamp) const {
  stamp_channel(stamp);
  const MosCaps caps = mos_caps(process_, geometry_);
  stamp.add_capacitor(gate_, source_, caps.cgs);
  stamp.add_capacitor(gate_, drain_, caps.cgd);
  stamp.add_capacitor(drain_, bulk_, caps.cdb);
  stamp.add_capacitor(source_, bulk_, caps.csb);
}

}  // namespace mayo::circuit
