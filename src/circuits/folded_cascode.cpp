#include "circuits/folded_cascode.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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

using Design = FoldedCascodeDesign;
using Stats = FoldedCascodeStats;

// --------------------------------------------------------------- topology --

struct FoldedCascode::Bench final : OpampModel::Bench {
  Mosfet* mb1 = nullptr;
  Mosfet* mb2 = nullptr;
  Mosfet* mb3 = nullptr;
  CurrentSource* iref = nullptr;
};

std::unique_ptr<FoldedCascode::Bench> FoldedCascode::build_bench(
    const FoldedCascode::Options& opt, bool unity) {
  auto bench = std::make_unique<FoldedCascode::Bench>();
  Netlist& nl = bench->netlist;

  const NodeId vdd = nl.add_node("vdd");
  const NodeId inp = nl.add_node("inp");
  const NodeId out = nl.add_node("out");
  // In the unity-gain bench the inverting input IS the output node.
  const NodeId inn = unity ? out : nl.add_node("inn");
  const NodeId tail = nl.add_node("tail");
  const NodeId n1 = nl.add_node("n1");
  const NodeId n2 = nl.add_node("n2");
  const NodeId cg = nl.add_node("cg");    // mirror gate / left cascode drain
  const NodeId s7 = nl.add_node("s7");
  const NodeId s8 = nl.add_node("s8");
  const NodeId bn1 = nl.add_node("bn1");
  const NodeId bp1 = nl.add_node("bp1");
  const NodeId bp2 = nl.add_node("bp2");
  const NodeId bn2 = nl.add_node("bn2");
  bench->out = out;

  const auto& proc_n = opt.process.nmos;
  const auto& proc_p = opt.process.pmos;
  const MosGeometry bias_geom{opt.bias_width, opt.length};
  const MosGeometry default_geom{20e-6, opt.length};

  // Supplies and inputs.
  bench->vdd = &nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  bench->vinp = &nl.add<VoltageSource>("Vinp", inp, kGround, 2.5);
  if (!unity) {
    // DC feedback that is transparent at AC: Vinn (AC excitation handle)
    // sits between the inverting input and the R/C loop filter.
    const NodeId fb = nl.add_node("fb");
    bench->vinn = &nl.add<VoltageSource>("Vinn", inn, fb, 0.0);
    nl.add<Resistor>("Rfb", out, fb, 1e9);
    nl.add<Capacitor>("Cfb", fb, kGround, 1.0);
  }

  // Bias generation: Iref -> NMOS diode MB1 (bn1); MB3 mirrors Iref and
  // pulls through the PMOS diode MB2 (bp1); cascode gates are
  // supply-referenced voltage sources.
  bench->iref = &nl.add<CurrentSource>("Iref", vdd, bn1, 50e-6);
  bench->mb1 = &nl.add<Mosfet>("MB1", MosType::kNmos, bn1, bn1, kGround,
                               kGround, proc_n, bias_geom);
  bench->mb2 = &nl.add<Mosfet>("MB2", MosType::kPmos, bp1, bp1, vdd, vdd,
                               proc_p, bias_geom);
  bench->mb3 = &nl.add<Mosfet>("MB3", MosType::kNmos, bp1, bn1, kGround,
                               kGround, proc_n, bias_geom);
  nl.add<VoltageSource>("Vbp2", vdd, bp2, opt.vcasc_p);
  nl.add<VoltageSource>("Vbn2", bn2, kGround, opt.vcasc_n);

  // Signal path, M0..M10 in constraint order.
  const auto signal = [&](const char* name, MosType type, NodeId drain,
                          NodeId gate, NodeId source, NodeId bulk) {
    bench->signal.push_back(&nl.add<Mosfet>(
        name, type, drain, gate, source, bulk,
        type == MosType::kNmos ? proc_n : proc_p, default_geom));
  };
  signal("M0", MosType::kNmos, tail, bn1, kGround, kGround);
  signal("M1", MosType::kNmos, n1, inp, tail, kGround);
  signal("M2", MosType::kNmos, n2, inn, tail, kGround);
  signal("M3", MosType::kPmos, n1, bp1, vdd, vdd);
  signal("M4", MosType::kPmos, n2, bp1, vdd, vdd);
  signal("M5", MosType::kPmos, cg, bp2, n1, vdd);
  signal("M6", MosType::kPmos, out, bp2, n2, vdd);
  signal("M7", MosType::kNmos, cg, bn2, s7, kGround);
  signal("M8", MosType::kNmos, out, bn2, s8, kGround);
  signal("M9", MosType::kNmos, s7, cg, kGround, kGround);
  signal("M10", MosType::kNmos, s8, cg, kGround, kGround);

  nl.add<Capacitor>("CL", out, kGround, opt.load_cap);
  return bench;
}

// ------------------------------------------------------------ construction --

FoldedCascode::FoldedCascode() : FoldedCascode(Options()) {}

FoldedCascode::FoldedCascode(Options options)
    : OpampModel({.performances = {Performance::kA0, Performance::kFt,
                                   Performance::kCmrr, Performance::kSlewRate,
                                   Performance::kPower},
                  .ft_high = 10e9,
                  .num_statistical = Stats::kCount,
                  .sat_margin = options.sat_margin,
                  .sr_step = options.sr_step,
                  .sr_t_stop = options.sr_t_stop,
                  .sr_dt = options.sr_dt,
                  .theta_nominal = {options.process.envelope.temp_nom_k,
                                    options.process.envelope.vdd_nom},
                  .solver = options.solver},
                 build_bench(options, /*unity=*/false),
                 build_bench(options, /*unity=*/true)),
      options_(std::move(options)) {}

std::unique_ptr<core::PerformanceModel> FoldedCascode::clone() const {
  return std::make_unique<FoldedCascode>(options_);
}

// --------------------------------------------------------------- binding --

void FoldedCascode::apply(OpampModel::Bench& base, const Vector& d,
                          const Vector& s, const Vector& theta) const {
  if (d.size() != Design::kCount)
    throw std::invalid_argument("FoldedCascode: design vector size mismatch");
  if (s.size() != Stats::kCount)
    throw std::invalid_argument("FoldedCascode: statistical vector size mismatch");
  if (theta.size() != 2)
    throw std::invalid_argument("FoldedCascode: operating vector size mismatch");
  auto& bench = static_cast<Bench&>(base);  // built by build_bench

  const double l = options_.length;
  const std::array<double, 11> widths = {
      d[Design::kWTail], d[Design::kWIn],   d[Design::kWIn],
      d[Design::kWSrc],  d[Design::kWSrc],  d[Design::kWPcas],
      d[Design::kWPcas], d[Design::kWNcas], d[Design::kWNcas],
      d[Design::kWMir],  d[Design::kWMir]};

  const circuit::MosVariation var_n{s[Stats::kDvthnGlobal],
                                    1.0 + s[Stats::kDkpnGlobal]};
  const circuit::MosVariation var_p{s[Stats::kDvthpGlobal],
                                    1.0 + s[Stats::kDkppGlobal]};
  for (std::size_t i = 0; i < widths.size(); ++i) {
    Mosfet* mos = bench.signal[i];
    mos->set_geometry({widths[i], l});
    circuit::MosVariation var = mos->type() == MosType::kPmos ? var_p : var_n;
    // Local mismatch of M1..M10 (index i-1 into the local block).
    if (i >= 1) var.dvth += s[Stats::kLocalFirst + (i - 1)];
    mos->set_variation(var);
  }
  bench.mb1->set_variation(var_n);
  bench.mb2->set_variation(var_p);
  bench.mb3->set_variation(var_n);

  const double vdd = theta[1];
  bench.vdd->set_dc_value(vdd);
  bench.vinp->set_dc_value(0.5 * vdd);
  bench.iref->set_dc_value(d[Design::kIref]);
}

// ------------------------------------------------------------ problem glue --

std::vector<std::string> FoldedCascode::performance_names() {
  return {"A0", "ft", "CMRR", "SRp", "Power"};
}

std::vector<std::string> FoldedCascode::statistical_names() {
  std::vector<std::string> names = {"dvthn_g", "dvthp_g", "dkpn_g", "dkpp_g"};
  for (int i = 1; i <= 10; ++i)
    names.push_back("dvth_M" + std::to_string(i));
  return names;
}

std::string FoldedCascode::pair_label(std::size_t stat_k, std::size_t stat_l) {
  const std::size_t lo = std::min(stat_k, stat_l);
  const std::size_t hi = std::max(stat_k, stat_l);
  if (lo < Stats::kLocalFirst) return {};
  const std::size_t a = lo - Stats::kLocalFirst;  // 0 = M1
  const std::size_t b = hi - Stats::kLocalFirst;
  if (a == 0 && b == 1) return "M1/M2 (input pair)";
  if (a == 2 && b == 3) return "M3/M4 (PMOS current sources)";
  if (a == 4 && b == 5) return "M5/M6 (PMOS cascodes)";
  if (a == 6 && b == 7) return "M7/M8 (NMOS cascodes)";
  if (a == 8 && b == 9) return "M9/M10 (mirror pair)";
  return {};
}

linalg::Vector FoldedCascode::initial_design() {
  Vector d(Design::kCount);
  d[Design::kWIn] = 28e-6;
  d[Design::kWTail] = 24e-6;
  d[Design::kWSrc] = 32e-6;
  d[Design::kWPcas] = 40e-6;
  d[Design::kWNcas] = 40e-6;
  d[Design::kWMir] = 40e-6;
  d[Design::kIref] = 50e-6;
  return d;
}

core::YieldProblem FoldedCascode::make_problem() {
  return make_problem(Options());
}

core::YieldProblem FoldedCascode::make_problem(Options options) {
  core::YieldProblem problem;
  const Process& process = options.process;
  const double length = options.length;
  problem.model = std::make_shared<FoldedCascode>(options);

  // Specifications: paper-style set (Table 1) with bounds calibrated to
  // this process so that the initial design reproduces the paper's
  // pass/fail signature (ft and CMRR fail, SR marginal, A0/power pass).
  problem.specs = {
      {"A0", core::SpecKind::kLowerBound, 66.0, "dB", 1.0},
      {"ft", core::SpecKind::kLowerBound, 40.0, "MHz", 1.0},
      {"CMRR", core::SpecKind::kLowerBound, 80.0, "dB", 1.0},
      {"SRp", core::SpecKind::kLowerBound, 29.8, "V/us", 0.5},
      {"Power", core::SpecKind::kUpperBound, 2.0, "mW", 0.05},
  };

  problem.design.names = {"w_in", "w_tail", "w_src", "w_pcas",
                          "w_ncas", "w_mir", "iref"};
  // The input pair and the current budget are capped (input capacitance /
  // power-frame arguments), so the optimizer has to combine several levers:
  // gain via w_in, speed via bias current, CMRR variance via mirror/source
  // area (the Pelgrom C(d) mechanism).
  problem.design.lower = Vector{8e-6, 8e-6, 8e-6, 8e-6, 8e-6, 8e-6, 20e-6};
  problem.design.upper =
      Vector{80e-6, 120e-6, 300e-6, 300e-6, 300e-6, 300e-6, 100e-6};
  problem.design.nominal = initial_design();

  problem.operating.names = {"temp", "vdd"};
  problem.operating.lower = Vector{273.15, process.envelope.vdd_min};
  problem.operating.upper = Vector{358.15, process.envelope.vdd_max};
  problem.operating.nominal =
      Vector{process.envelope.temp_nom_k, process.envelope.vdd_nom};

  // Statistical model: 4 globals (correlated gain factors) + 10 Pelgrom
  // locals whose sigma depends on the *current* width -- the C(d)
  // dependence of paper Sec. 4.
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

  struct LocalSpec {
    const char* name;
    std::size_t width_index;
    bool pmos;
  };
  const LocalSpec locals[] = {
      {"dvth_M1", Design::kWIn, false},   {"dvth_M2", Design::kWIn, false},
      {"dvth_M3", Design::kWSrc, true},   {"dvth_M4", Design::kWSrc, true},
      {"dvth_M5", Design::kWPcas, true},  {"dvth_M6", Design::kWPcas, true},
      {"dvth_M7", Design::kWNcas, false}, {"dvth_M8", Design::kWNcas, false},
      {"dvth_M9", Design::kWMir, false},  {"dvth_M10", Design::kWMir, false},
  };
  for (const LocalSpec& local : locals) {
    const double avt = local.pmos ? process.statistics.avt_p
                                  : process.statistics.avt_n;
    stats::StatParam param;
    param.name = local.name;
    param.nominal = 0.0;
    param.sigma = [avt, length,
                   index = local.width_index](const linalg::DesignVec& d) {
      return avt / std::sqrt(2.0 * d[index] * length);
    };
    cov.add(std::move(param));
  }

  problem.validate();
  return problem;
}

}  // namespace mayo::circuits
