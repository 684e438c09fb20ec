#include "circuits/miller.hpp"

#include <array>
#include <stdexcept>

#include "circuit/netlist.hpp"

namespace mayo::circuits {

using circuit::Capacitor;
using circuit::CurrentSource;
using circuit::kGround;
using circuit::MosGeometry;
using circuit::Mosfet;
using circuit::MosType;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;
using linalg::Vector;

using Design = MillerDesign;
using Stats = MillerStats;

struct Miller::Bench final : OpampModel::Bench {
  Mosfet* mb = nullptr;
  CurrentSource* iref = nullptr;
  Capacitor* cc = nullptr;
};

std::unique_ptr<Miller::Bench> Miller::build_bench(const Options& opt,
                                                   bool unity) {
  auto bench = std::make_unique<Miller::Bench>();
  Netlist& nl = bench->netlist;

  const NodeId vdd = nl.add_node("vdd");
  const NodeId inp = nl.add_node("inp");
  const NodeId out = nl.add_node("out");
  const NodeId inn = unity ? out : nl.add_node("inn");
  const NodeId tail = nl.add_node("tail");
  const NodeId x1 = nl.add_node("x1");   // mirror diode side
  const NodeId x2 = nl.add_node("x2");   // first-stage output
  const NodeId xc = nl.add_node("xc");   // Rz/Cc joint
  const NodeId bn1 = nl.add_node("bn1");
  bench->out = out;

  const auto& proc_n = opt.process.nmos;
  const auto& proc_p = opt.process.pmos;
  const MosGeometry bias_geom{opt.bias_width, opt.length};
  const MosGeometry default_geom{20e-6, opt.length};

  bench->vdd = &nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  bench->vinp = &nl.add<VoltageSource>("Vinp", inp, kGround, 2.5);
  if (!unity) {
    const NodeId fb = nl.add_node("fb");
    bench->vinn = &nl.add<VoltageSource>("Vinn", inn, fb, 0.0);
    nl.add<Resistor>("Rfb", out, fb, 1e9);
    nl.add<Capacitor>("Cfb", fb, kGround, 1.0);
  }

  bench->iref = &nl.add<CurrentSource>("Iref", vdd, bn1, 20e-6);
  bench->mb = &nl.add<Mosfet>("MB", MosType::kNmos, bn1, bn1, kGround,
                              kGround, proc_n, bias_geom);

  // Signal path, M1..M7 in constraint order.
  const auto signal = [&](const char* name, MosType type, NodeId drain,
                          NodeId gate, NodeId source, NodeId bulk) {
    bench->signal.push_back(&nl.add<Mosfet>(
        name, type, drain, gate, source, bulk,
        type == MosType::kNmos ? proc_n : proc_p, default_geom));
  };
  // First stage: M1 (inn) diode side, M2 (inp) output side, PMOS mirror.
  signal("M1", MosType::kNmos, x1, inn, tail, kGround);
  signal("M2", MosType::kNmos, x2, inp, tail, kGround);
  signal("M3", MosType::kPmos, x1, x1, vdd, vdd);
  signal("M4", MosType::kPmos, x2, x1, vdd, vdd);
  signal("M5", MosType::kNmos, tail, bn1, kGround, kGround);
  // Second stage.
  signal("M6", MosType::kPmos, out, x2, vdd, vdd);
  signal("M7", MosType::kNmos, out, bn1, kGround, kGround);

  // Compensation and load.
  nl.add<Resistor>("Rz", x2, xc, opt.rz);
  bench->cc = &nl.add<Capacitor>("Cc", xc, out, 20e-12);
  nl.add<Capacitor>("CL", out, kGround, opt.load_cap);
  return bench;
}

Miller::Miller() : Miller(Options()) {}

Miller::Miller(Options options)
    : OpampModel({.performances = {Performance::kA0, Performance::kFt,
                                   Performance::kPhaseMargin,
                                   Performance::kSlewRate,
                                   Performance::kPower},
                  // Two-stage opamp: the crossing sits in the low-MHz
                  // range, 1 GHz is ample headroom.
                  .ft_high = 1e9,
                  .num_statistical = Stats::kCount,
                  .sat_margin = options.sat_margin,
                  .sr_step = options.sr_step,
                  .sr_t_stop = options.sr_t_stop,
                  .sr_dt = options.sr_dt,
                  .theta_nominal = {options.process.envelope.temp_nom_k,
                                    options.process.envelope.vdd_nom}},
                 build_bench(options, /*unity=*/false),
                 build_bench(options, /*unity=*/true)),
      options_(std::move(options)) {}

std::unique_ptr<core::PerformanceModel> Miller::clone() const {
  return std::make_unique<Miller>(options_);
}

void Miller::apply(OpampModel::Bench& base, const Vector& d, const Vector& s,
                   const Vector& theta) const {
  if (d.size() != Design::kCount)
    throw std::invalid_argument("Miller: design vector size mismatch");
  if (s.size() != Stats::kCount)
    throw std::invalid_argument("Miller: statistical vector size mismatch");
  if (theta.size() != 2)
    throw std::invalid_argument("Miller: operating vector size mismatch");
  auto& bench = static_cast<Bench&>(base);  // built by build_bench

  const double l = options_.length;
  const std::array<double, 7> widths = {
      d[Design::kWIn],  d[Design::kWIn],   d[Design::kWLoad],
      d[Design::kWLoad], d[Design::kWTail], d[Design::kWP2],
      d[Design::kWN2]};

  const circuit::MosVariation var_n{s[Stats::kDvthnGlobal],
                                    1.0 + s[Stats::kDkpnGlobal]};
  const circuit::MosVariation var_p{s[Stats::kDvthpGlobal],
                                    1.0 + s[Stats::kDkppGlobal]};
  for (std::size_t i = 0; i < widths.size(); ++i) {
    Mosfet* mos = bench.signal[i];
    mos->set_geometry({widths[i], l});
    mos->set_variation(mos->type() == MosType::kPmos ? var_p : var_n);
  }
  bench.mb->set_variation(var_n);

  const double vdd = theta[1];
  bench.vdd->set_dc_value(vdd);
  bench.vinp->set_dc_value(0.5 * vdd);
  bench.iref->set_dc_value(d[Design::kIref]);
  bench.cc->set_capacitance(d[Design::kCc]);
}

std::vector<std::string> Miller::performance_names() {
  return {"A0", "ft", "PM", "SRp", "Power"};
}

std::vector<std::string> Miller::statistical_names() {
  return {"dvthn_g", "dvthp_g", "dkpn_g", "dkpp_g"};
}

Vector Miller::initial_design() {
  Vector d(Design::kCount);
  d[Design::kWIn] = 50e-6;
  d[Design::kWLoad] = 40e-6;
  d[Design::kWTail] = 58e-6;
  d[Design::kWP2] = 400e-6;
  d[Design::kWN2] = 100e-6;
  d[Design::kIref] = 20e-6;
  d[Design::kCc] = 20e-12;
  return d;
}

core::YieldProblem Miller::make_problem() { return make_problem(Options()); }

core::YieldProblem Miller::make_problem(Options options) {
  core::YieldProblem problem;
  const Process& process = options.process;
  problem.model = std::make_shared<Miller>(options);

  // Bounds calibrated so the initial design starts at a moderate yield with
  // PM and SR marginal (paper Table 6 signature: 33.7% initial yield).
  problem.specs = {
      {"A0", core::SpecKind::kLowerBound, 92.4, "dB", 0.5},
      {"ft", core::SpecKind::kLowerBound, 1.3, "MHz", 0.1},
      {"PM", core::SpecKind::kLowerBound, 67.3, "deg", 0.5},
      {"SRp", core::SpecKind::kLowerBound, 2.505, "V/us", 0.05},
      {"Power", core::SpecKind::kUpperBound, 1.45, "mW", 0.02},
  };

  problem.design.names = {"w_in", "w_load", "w_tail", "w_p2",
                          "w_n2", "iref", "cc"};
  problem.design.lower =
      Vector{10e-6, 10e-6, 10e-6, 50e-6, 20e-6, 5e-6, 5e-12};
  problem.design.upper =
      Vector{200e-6, 200e-6, 200e-6, 800e-6, 300e-6, 60e-6, 60e-12};
  problem.design.nominal = initial_design();

  problem.operating.names = {"temp", "vdd"};
  problem.operating.lower = Vector{273.15, process.envelope.vdd_min};
  problem.operating.upper = Vector{358.15, process.envelope.vdd_max};
  problem.operating.nominal =
      Vector{process.envelope.temp_nom_k, process.envelope.vdd_nom};

  auto& cov = problem.statistical;
  cov.add(stats::StatParam::global("dvthn_g", 0.0,
                                   process.statistics.sigma_vth_global));
  cov.add(stats::StatParam::global("dvthp_g", 0.0,
                                   process.statistics.sigma_vth_global));
  const std::size_t kpn_index = cov.add(stats::StatParam::global(
      "dkpn_g", 0.0, process.statistics.sigma_kp_global));
  const std::size_t kpp_index = cov.add(stats::StatParam::global(
      "dkpp_g", 0.0, process.statistics.sigma_kp_global));
  cov.set_correlation(kpn_index, kpp_index, process.statistics.rho_kp);

  problem.validate();
  return problem;
}

}  // namespace mayo::circuits
