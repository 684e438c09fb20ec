// mayo/circuit -- circuit elements.
//
// Each device knows how to stamp itself into the DC, AC and transient MNA
// systems (see stamp.hpp for the conventions).  Devices carry their
// *instance* parameters (geometry, values, statistical perturbations) as
// mutable state so that a testbench can re-bind design/statistical/
// operating parameters between simulator runs without rebuilding the
// netlist.
#pragma once

#include <bit>
#include <complex>
#include <cstdint>
#include <functional>
#include <string>

#include "circuit/mos_model.hpp"
#include "circuit/stamp.hpp"

namespace mayo::circuit {

class VoltageSource;

/// Abstract circuit element.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Stamps residual and Jacobian of the nonlinear DC system.
  virtual void stamp_dc(DcStamp& stamp) const = 0;
  /// Stamps the complex small-signal system at the DC operating point.
  virtual void stamp_ac(AcStamp& stamp) const = 0;
  /// Stamps one backward-Euler step; defaults to the DC stamp (static
  /// elements).  Reactive elements override this.
  virtual void stamp_tran(TranStamp& stamp) const { stamp_dc(stamp); }

  /// Number of extra MNA branch variables this device needs.
  virtual int branch_count() const { return 0; }
  /// This device if it is an independent voltage source, else nullptr:
  /// the solvers find the sources whose nodes they eliminate
  /// (sim/source_tree.hpp) with one virtual call per device.
  virtual const VoltageSource* as_voltage_source() const { return nullptr; }
  /// Called by the netlist when branch variables are assigned.
  void set_first_branch(int index) { first_branch_ = index; }
  int first_branch() const { return first_branch_; }

 private:
  std::string name_;
  int first_branch_ = -1;
};

/// Linear resistor between nodes a and b.
class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;

  double resistance() const { return resistance_; }
  void set_resistance(double r);
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  NodeId a_;
  NodeId b_;
  double resistance_;
};

/// Linear capacitor between nodes a and b (open in DC).
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;
  void stamp_tran(TranStamp& stamp) const override;

  double capacitance() const { return capacitance_; }
  void set_capacitance(double c);
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  NodeId a_;
  NodeId b_;
  double capacitance_;
};

/// Independent voltage source from p to n (one MNA branch variable; the
/// branch current flows from p through the source to n).  Optional AC
/// magnitude for small-signal excitation and optional time-domain waveform
/// v(t) for transient analysis (defaults to the DC value).
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId p, NodeId n, double dc_value);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;
  void stamp_tran(TranStamp& stamp) const override;
  int branch_count() const override { return 1; }
  const VoltageSource* as_voltage_source() const override { return this; }

  double dc_value() const { return dc_; }
  void set_dc_value(double v) { dc_ = v; }
  std::complex<double> ac_value() const { return ac_; }
  void set_ac_value(std::complex<double> v) { ac_ = v; }
  /// Transient waveform; if unset, the DC value is used for all t.
  void set_waveform(std::function<double(double)> waveform);
  void clear_waveform() { waveform_ = nullptr; }

  /// Index of this source's branch variable within the MNA vector layout
  /// (usable with DcStamp::branch / solution vectors).
  int branch() const { return first_branch(); }
  NodeId node_p() const { return p_; }
  NodeId node_n() const { return n_; }

 private:
  NodeId p_;
  NodeId n_;
  double dc_;
  std::complex<double> ac_{0.0, 0.0};
  std::function<double(double)> waveform_;
};

/// Independent current source; the current flows from p through the source
/// to n (extracted from node p, injected into node n), matching SPICE.
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, NodeId p, NodeId n, double dc_value);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;

  double dc_value() const { return dc_; }
  void set_dc_value(double v) { dc_ = v; }
  std::complex<double> ac_value() const { return ac_; }
  void set_ac_value(std::complex<double> v) { ac_ = v; }
  NodeId node_p() const { return p_; }
  NodeId node_n() const { return n_; }

 private:
  NodeId p_;
  NodeId n_;
  double dc_;
  std::complex<double> ac_{0.0, 0.0};
};

/// Linear voltage-controlled voltage source: v(p) - v(n) = gain * (v(cp) - v(cn)).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gain);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;
  int branch_count() const override { return 1; }

  double gain() const { return gain_; }
  void set_gain(double g) { gain_ = g; }
  NodeId node_p() const { return p_; }
  NodeId node_n() const { return n_; }
  NodeId control_p() const { return cp_; }
  NodeId control_n() const { return cn_; }

 private:
  NodeId p_;
  NodeId n_;
  NodeId cp_;
  NodeId cn_;
  double gain_;
};

/// Linear inductor between nodes a and b.  Uses one MNA branch variable
/// (its current); a short at DC, v = L di/dt in transient (backward Euler
/// companion), j omega L in AC.
class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;
  void stamp_tran(TranStamp& stamp) const override;
  int branch_count() const override { return 1; }

  double inductance() const { return inductance_; }
  void set_inductance(double l);
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  NodeId a_;
  NodeId b_;
  double inductance_;
};

/// Per-instance memo of a model constant that depends only on the
/// temperature and on parameters fixed at construction (the pow/exp terms
/// of the temperature laws).  A solve holds the temperature fixed, so a
/// device computes the constant once per temperature instead of once per
/// Newton iteration.  The key is the exact bit pattern of T, so the memo
/// returns exactly what `compute(T)` would.  A device belongs to one
/// netlist and a netlist to one worker, so the memo needs no locking.
template <typename Value>
class TemperatureMemo {
 public:
  template <typename Compute>
  const Value& get(double temperature_k, Compute&& compute) {
    const auto key = std::bit_cast<std::uint64_t>(temperature_k);
    if (!valid_ || key != key_) {
      value_ = compute(temperature_k);
      key_ = key;
      valid_ = true;
    }
    return value_;
  }

 private:
  bool valid_ = false;
  std::uint64_t key_ = 0;
  Value value_{};
};

/// Junction diode (Shockley model with overflow-safe linearized tail).
/// i = IS(T) * (exp(v / (n Vt)) - 1), Vt = kT/q from the stamp conditions,
/// with the standard saturation-current temperature law
/// IS(T) = IS * (T/Tnom)^(XTI/n) * exp(Eg/(n Vt(Tnom)) * (T/Tnom - 1)),
/// which makes the forward drop CTAT as in real junctions.
class Diode final : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, double saturation_current,
        double emission_coefficient = 1.0, double eg = 1.11, double xti = 3.0,
        double tnom = 300.15);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;

  double saturation_current() const { return is_; }
  void set_saturation_current(double is);
  double emission_coefficient() const { return n_; }
  double bandgap_energy() const { return eg_; }
  double xti() const { return xti_; }
  NodeId anode() const { return anode_; }
  NodeId cathode() const { return cathode_; }

  /// Current and conductance at a junction voltage (exposed for tests).
  struct Eval {
    double id = 0.0;
    double gd = 0.0;
  };
  Eval evaluate(double v, double temperature_k) const;

 private:
  /// The two temperature terms of IS(T): (T/Tnom)^(XTI/n) and the
  /// bandgap exp().  Kept apart from IS so set_saturation_current()
  /// leaves the memo valid and IS(T) keeps its product order.
  struct SaturationTerms {
    double power = 0.0;
    double bandgap = 0.0;
  };
  SaturationTerms saturation_terms(double temperature_k) const;

  NodeId anode_;
  NodeId cathode_;
  double is_;
  double n_;
  double eg_;
  double xti_;
  double tnom_;
  mutable TemperatureMemo<SaturationTerms> saturation_memo_;
};

/// MOS transistor polarity.
enum class MosType { kNmos, kPmos };

/// Four-terminal MOSFET using the level-1 model of mos_model.hpp.
/// Geometry and statistical variation are mutable instance state; the
/// process parameters are fixed at construction.
class Mosfet final : public Device {
 public:
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, NodeId bulk, const MosProcess& process,
         MosGeometry geometry);

  void stamp_dc(DcStamp& stamp) const override;
  void stamp_ac(AcStamp& stamp) const override;
  void stamp_tran(TranStamp& stamp) const override;

  MosType type() const { return type_; }
  const MosGeometry& geometry() const { return geometry_; }
  void set_geometry(MosGeometry geometry);
  void set_width(double w);
  void set_length(double l);
  const MosVariation& variation() const { return variation_; }
  void set_variation(MosVariation variation) { variation_ = variation; }
  const MosProcess& process() const { return process_; }

  /// Evaluates the model at the voltages of `x` (DC solution layout).
  MosEval evaluate(const DcStamp& stamp) const;
  /// Model evaluation from explicit terminal voltages (physical frame).
  MosEval evaluate_at(double vd, double vg, double vs, double vb,
                      double temperature_k) const;

  NodeId drain() const { return drain_; }
  NodeId gate() const { return gate_; }
  NodeId source() const { return source_; }
  NodeId bulk() const { return bulk_; }

 private:
  /// Polarity-normalized bias from physical node voltages.
  MosBias bias_from(double vd, double vg, double vs, double vb) const;
  /// Stamps the channel current + conductances (shared by dc/tran).
  void stamp_channel(DcStamp& stamp) const;

  MosType type_;
  NodeId drain_;
  NodeId gate_;
  NodeId source_;
  NodeId bulk_;
  MosProcess process_;
  MosGeometry geometry_;
  MosVariation variation_;
  /// mos_mu_factor(process_, T); process_ is fixed, so T is the only key.
  mutable TemperatureMemo<double> mu_factor_;
};

}  // namespace mayo::circuit
