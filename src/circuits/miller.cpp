#include "circuits/miller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/netlist.hpp"
#include "core/probe_cache.hpp"
#include "obs/obs.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"

namespace mayo::circuits {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::CurrentSource;
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

struct Miller::Bench {
  Netlist netlist;
  bool unity = false;

  // Signal transistors M1..M7 in constraint order.
  std::array<Mosfet*, 7> signal{};
  Mosfet* mb = nullptr;

  VoltageSource* vdd = nullptr;
  VoltageSource* vinp = nullptr;
  VoltageSource* vinn = nullptr;  // null in the unity-gain bench
  CurrentSource* iref = nullptr;
  Capacitor* cc = nullptr;
  NodeId out = circuit::kGround;
};

// Per-(d, theta) reusable results, all computed at the nominal statistical
// point with cold solves (pure function of (d, theta)); see the folded
// cascode for the rationale.
struct Miller::DesignContext {
  std::vector<std::uint64_t> key;  ///< raw bits of (d, theta)

  bool ac_done = false;
  bool ac_converged = false;
  Vector op_ac;

  bool ft_done = false;
  bool ft_valid = false;
  sim::FtBracket ft_bracket;

  bool sr_done = false;
  bool sr_converged = false;
  Vector op_sr;
  bool traj_valid = false;
  std::vector<Vector> sr_traj;
};

namespace {
// AC sweep bounds of the ft measurement (two-stage opamp: crossing sits in
// the low-MHz range, 1 GHz is ample headroom).
constexpr double kFtLow = 1.0;
constexpr double kFtHigh = 1e9;
constexpr double kFtWiden = 1.6;
constexpr std::size_t kContextCapacity = 16;
}  // namespace

std::unique_ptr<Miller::Bench> Miller::build_bench(const Options& opt,
                                                   bool unity) {
  auto bench = std::make_unique<Miller::Bench>();
  bench->unity = unity;
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

  bench->vdd = &nl.add<VoltageSource>("Vdd", vdd, circuit::kGround, 5.0);
  bench->vinp = &nl.add<VoltageSource>("Vinp", inp, circuit::kGround, 2.5);
  if (!unity) {
    const NodeId fb = nl.add_node("fb");
    bench->vinn = &nl.add<VoltageSource>("Vinn", inn, fb, 0.0);
    nl.add<Resistor>("Rfb", out, fb, 1e9);
    nl.add<Capacitor>("Cfb", fb, circuit::kGround, 1.0);
  }

  bench->iref = &nl.add<CurrentSource>("Iref", vdd, bn1, 20e-6);
  bench->mb = &nl.add<Mosfet>("MB", MosType::kNmos, bn1, bn1, circuit::kGround,
                              circuit::kGround, proc_n, bias_geom);

  // First stage: M1 (inn) diode side, M2 (inp) output side, PMOS mirror.
  bench->signal[0] = &nl.add<Mosfet>("M1", MosType::kNmos, x1, inn, tail,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[1] = &nl.add<Mosfet>("M2", MosType::kNmos, x2, inp, tail,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[2] = &nl.add<Mosfet>("M3", MosType::kPmos, x1, x1, vdd, vdd,
                                     proc_p, default_geom);
  bench->signal[3] = &nl.add<Mosfet>("M4", MosType::kPmos, x2, x1, vdd, vdd,
                                     proc_p, default_geom);
  bench->signal[4] = &nl.add<Mosfet>("M5", MosType::kNmos, tail, bn1,
                                     circuit::kGround, circuit::kGround,
                                     proc_n, default_geom);
  // Second stage.
  bench->signal[5] = &nl.add<Mosfet>("M6", MosType::kPmos, out, x2, vdd, vdd,
                                     proc_p, default_geom);
  bench->signal[6] = &nl.add<Mosfet>("M7", MosType::kNmos, out, bn1,
                                     circuit::kGround, circuit::kGround,
                                     proc_n, default_geom);

  // Compensation and load.
  nl.add<Resistor>("Rz", x2, xc, opt.rz);
  bench->cc = &nl.add<Capacitor>("Cc", xc, out, 20e-12);
  nl.add<Capacitor>("CL", out, circuit::kGround, opt.load_cap);
  return bench;
}

Miller::Miller() : Miller(Options()) {}

Miller::Miller(Options options)
    : options_(std::move(options)),
      ac_bench_(build_bench(options_, /*unity=*/false)),
      sr_bench_(build_bench(options_, /*unity=*/true)) {
  ac_session_.set_solver(options_.solver);
}

Miller::~Miller() = default;

void Miller::apply(Bench& bench, const Vector& d, const Vector& s,
                   const Vector& theta) const {
  if (d.size() != Design::kCount)
    throw std::invalid_argument("Miller: design vector size mismatch");
  if (s.size() != Stats::kCount)
    throw std::invalid_argument("Miller: statistical vector size mismatch");
  if (theta.size() != 2)
    throw std::invalid_argument("Miller: operating vector size mismatch");

  const double l = options_.length;
  const std::array<double, 7> widths = {
      d[Design::kWIn],  d[Design::kWIn],   d[Design::kWLoad],
      d[Design::kWLoad], d[Design::kWTail], d[Design::kWP2],
      d[Design::kWN2]};

  circuit::MosVariation var_n{s[Stats::kDvthnGlobal],
                              1.0 + s[Stats::kDkpnGlobal]};
  circuit::MosVariation var_p{s[Stats::kDvthpGlobal],
                              1.0 + s[Stats::kDkppGlobal]};

  for (std::size_t i = 0; i < 7; ++i) {
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

Miller::DesignContext& Miller::design_context(const Vector& d,
                                              const Vector& theta) {
  context_key_.clear();
  core::ProbeCache::append_bits(context_key_, d);
  core::ProbeCache::append_bits(context_key_, theta);
  obs::CacheCounters& stats = obs::registry().counters.design_context;
  for (auto& ctx : contexts_) {
    if (ctx->key == context_key_) {
      stats.hits.add();
      return *ctx;
    }
  }
  stats.misses.add();
  if (contexts_.size() >= kContextCapacity) {
    contexts_.erase(contexts_.begin());
    stats.evictions.add();
  }
  contexts_.push_back(std::make_unique<DesignContext>());
  contexts_.back()->key = context_key_;
  return *contexts_.back();
}

void Miller::ensure_ac_section(DesignContext& ctx, const Vector& d,
                               const Vector& theta) {
  if (ctx.ac_done) return;
  ctx.ac_done = true;
  Bench& ac = *ac_bench_;
  const Vector s0(Stats::kCount);
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  sim::DcOptions dc;
  dc.solver = options_.solver;
  dc.workspace = &newton_ac_;
  const sim::DcResult op = sim::solve_dc(ac.netlist, conditions, dc);
  ctx.ac_converged = op.converged;
  if (op.converged) ctx.op_ac = op.solution;
}

void Miller::ensure_ft_section(DesignContext& ctx, const Vector& d,
                               const Vector& theta) {
  if (ctx.ft_done) return;
  ensure_ac_section(ctx, d, theta);
  ctx.ft_done = true;
  if (!ctx.ac_converged) return;
  Bench& ac = *ac_bench_;
  const Vector s0(Stats::kCount);
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, ctx.op_ac, conditions);
  const sim::GainBandwidth gb =
      sim::measure_gain_bandwidth(ac_session_, ac.out, kFtLow, kFtHigh);
  if (!gb.ft_found) return;
  ctx.ft_bracket.f_lo = std::max(kFtLow, gb.ft_hz / kFtWiden);
  ctx.ft_bracket.f_hi = std::min(kFtHigh, gb.ft_hz * kFtWiden);
  ctx.ft_valid = ctx.ft_bracket.f_hi > ctx.ft_bracket.f_lo;
}

void Miller::ensure_sr_section(DesignContext& ctx, const Vector& d,
                               const Vector& theta) {
  if (ctx.sr_done) return;
  ctx.sr_done = true;
  Bench& sr = *sr_bench_;
  const Vector s0(Stats::kCount);
  apply(sr, d, s0, theta);
  const double vcm = 0.5 * theta[1];
  sr.vinp->set_dc_value(vcm);
  const Conditions conditions{theta[0]};
  sim::DcOptions dc;
  dc.solver = options_.solver;
  dc.workspace = &newton_sr_;
  const sim::DcResult op = sim::solve_dc(sr.netlist, conditions, dc);
  ctx.sr_converged = op.converged;
  if (!op.converged) return;
  ctx.op_sr = op.solution;
  const double step = options_.sr_step;
  sr.vinp->set_waveform([vcm, step](double t) {
    return t <= 0.0 ? vcm : vcm + step;
  });
  sim::TranOptions tran;
  tran.t_stop = options_.sr_t_stop;
  tran.dt = options_.sr_dt;
  tran.newton.solver = options_.solver;
  tran.newton.workspace = &newton_sr_;
  const sim::TranResult tr =
      sim::solve_transient(sr.netlist, op.solution, conditions, tran);
  sr.vinp->clear_waveform();
  if (tr.converged) {
    ctx.sr_traj = tr.solutions;
    ctx.traj_valid = true;
  }
}

void Miller::measure_ac(DesignContext& ctx, const Vector& d, const Vector& s,
                        const Vector& theta, Measurements& out) {
  const Conditions conditions{theta[0]};
  Bench& ac = *ac_bench_;
  apply(ac, d, s, theta);
  sim::DcOptions ac_dc;
  ac_dc.solver = options_.solver;
  ac_dc.workspace = &newton_ac_;
  sim::DcResult op = sim::solve_dc(
      ac.netlist, conditions, ac_dc, ctx.ac_converged ? &ctx.op_ac : nullptr);
  if (!op.converged) return;  // ac_valid stays false

  out.power_mw =
      1e3 * sim::measure_supply_power(ac.netlist, op.solution, {ac.vdd});

  // One session stamp serves the whole A0/ft/PM measurement.
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, op.solution, conditions);
  const sim::GainBandwidth gb =
      sim::measure_gain_bandwidth(ac_session_, ac.out, kFtLow, kFtHigh,
                                  ctx.ft_valid ? &ctx.ft_bracket : nullptr);
  out.a0_db = gb.a0_db;
  out.ft_mhz = gb.ft_found ? gb.ft_hz / 1e6 : 0.0;
  out.pm_deg = gb.ft_found ? gb.phase_margin_deg : 0.0;
  out.ac_valid = true;
}

void Miller::measure_sr(DesignContext& ctx, const Vector& d, const Vector& s,
                        const Vector& theta, Measurements& out) {
  const Conditions conditions{theta[0]};
  Bench& sr = *sr_bench_;
  apply(sr, d, s, theta);
  const double vcm = 0.5 * theta[1];
  sr.vinp->set_dc_value(vcm);
  sim::DcOptions sr_dc;
  sr_dc.solver = options_.solver;
  sr_dc.workspace = &newton_sr_;
  sim::DcResult sr_op = sim::solve_dc(
      sr.netlist, conditions, sr_dc, ctx.sr_converged ? &ctx.op_sr : nullptr);
  if (!sr_op.converged) return;  // sr_valid stays false

  const double step = options_.sr_step;
  sr.vinp->set_waveform([vcm, step](double t) {
    return t <= 0.0 ? vcm : vcm + step;
  });
  sim::TranOptions tran;
  tran.t_stop = options_.sr_t_stop;
  tran.dt = options_.sr_dt;
  tran.newton.solver = options_.solver;
  tran.newton.workspace = &newton_sr_;
  tran.seed_trajectory = ctx.traj_valid ? &ctx.sr_traj : nullptr;
  const sim::TranResult tr =
      sim::solve_transient(sr.netlist, sr_op.solution, conditions, tran);
  sr.vinp->clear_waveform();
  if (!tr.converged) return;
  out.sr_v_per_us =
      1e-6 * sim::measure_slew_rate(tr.time, tr.node_voltage(sr.out));
  out.sr_valid = true;
}

void Miller::measure_with_context(DesignContext& ctx, const Vector& d,
                                  const Vector& s, const Vector& theta,
                                  core::AnalysisMask analyses,
                                  Measurements& out) {
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    measure_ac(ctx, d, s, theta, out);
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    measure_sr(ctx, d, s, theta, out);
}

Miller::DesignContext& Miller::prepared_context(const Vector& d,
                                                const Vector& theta,
                                                core::AnalysisMask analyses) {
  DesignContext& ctx = design_context(d, theta);
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    ensure_ft_section(ctx, d, theta);  // builds the AC section too
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    ensure_sr_section(ctx, d, theta);
  return ctx;
}

Miller::Measurements Miller::measure(const Vector& d, const Vector& s,
                                     const Vector& theta) {
  Measurements out;
  measure_with_context(prepared_context(d, theta, kAllAnalyses), d, s, theta,
                       kAllAnalyses, out);
  return out;
}

std::size_t Miller::analysis_of(std::size_t performance) const {
  return performance == 3 ? kSlewAnalysis : kAcAnalysis;
}

namespace {
/// Writes the performances into out[0..4]; a bench that failed to converge
/// (or did not run) penalizes only its own performances.
void pack_performances(const Miller::Measurements& m, double* out) {
  const bool ok = m.ac_valid;
  out[0] = ok ? m.a0_db : -20.0;
  out[1] = ok ? m.ft_mhz : 0.0;
  out[2] = ok ? m.pm_deg : 0.0;
  out[4] = ok ? m.power_mw : 10.0;
  out[3] = m.sr_valid ? m.sr_v_per_us : 0.0;
}
}  // namespace

linalg::PerfVec Miller::evaluate(const linalg::DesignVec& d,
                                 const linalg::StatPhysVec& s,
                                 const linalg::OperatingVec& theta) {
  return evaluate_analyses(d, s, theta, kAllAnalyses);
}

linalg::PerfVec Miller::evaluate_analyses(
    const linalg::DesignVec& d_tagged, const linalg::StatPhysVec& s_tagged,
    const linalg::OperatingVec& theta_tagged, core::AnalysisMask analyses) {
  // Unwrap once: bench internals are untyped numeric code.
  const Vector& d = d_tagged.raw();          // space-ok: model boundary
  const Vector& s = s_tagged.raw();          // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();  // space-ok: model boundary
  Measurements m;
  measure_with_context(prepared_context(d, theta, analyses), d, s, theta,
                       analyses, m);
  linalg::PerfVec out(5);
  pack_performances(m, &out[0]);
  return out;
}

void Miller::evaluate_batch(const linalg::DesignVec& d_tagged,
                            linalg::StatPhysBlock s_tagged,
                            const linalg::OperatingVec& theta_tagged,
                            linalg::PerfBlockView out_tagged) {
  // Unwrap once at the model boundary; internals are untyped.
  const Vector& d = d_tagged.raw();                // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();        // space-ok: model boundary
  linalg::ConstMatrixView s_block = s_tagged.raw();  // space-ok: model boundary
  linalg::MatrixView out = out_tagged.raw();         // space-ok: model boundary
  if (out.rows() != s_block.rows() || out.cols() != num_performances())
    throw std::invalid_argument("Miller::evaluate_batch: out shape mismatch");
  DesignContext& ctx = prepared_context(d, theta, kAllAnalyses);
  if (batch_s_.size() != s_block.cols()) batch_s_ = Vector(s_block.cols());
  for (std::size_t j = 0; j < s_block.rows(); ++j) {
    const double* row = s_block.row(j);
    for (std::size_t i = 0; i < batch_s_.size(); ++i) batch_s_[i] = row[i];
    Measurements m;
    measure_with_context(ctx, d, batch_s_, theta, kAllAnalyses, m);
    pack_performances(m, out.row(j));
  }
}

Vector Miller::constraints(const linalg::DesignVec& d_tagged) {
  const Vector& d = d_tagged.raw();  // space-ok: untyped bench internals
  const Vector s0(Stats::kCount);
  Vector theta{options_.process.envelope.temp_nom_k,
               options_.process.envelope.vdd_nom};
  DesignContext& ctx = design_context(d, theta);
  ensure_ac_section(ctx, d, theta);
  Vector margins(7);
  if (!ctx.ac_converged) {
    margins.fill(-1.0);
    return margins;
  }
  Bench& ac = *ac_bench_;
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  for (std::size_t i = 0; i < 7; ++i) {
    const Mosfet* mos = ac.signal[i];
    const auto voltage = [&](NodeId n) {
      return n == circuit::kGround ? 0.0 : ctx.op_ac[n - 1];
    };
    const circuit::MosEval eval = mos->evaluate_at(
        voltage(mos->drain()), voltage(mos->gate()), voltage(mos->source()),
        voltage(mos->bulk()), conditions.temperature_k);
    const double p = mos->type() == MosType::kNmos ? 1.0 : -1.0;
    const double vds = p * (voltage(mos->drain()) - voltage(mos->source()));
    margins[i] = vds - eval.vdsat - options_.sat_margin;
  }
  return margins;
}

std::unique_ptr<core::PerformanceModel> Miller::clone() const {
  return std::make_unique<Miller>(options_);
}

std::vector<std::string> Miller::constraint_names() const {
  return {"sat(M1)", "sat(M2)", "sat(M3)", "sat(M4)",
          "sat(M5)", "sat(M6)", "sat(M7)"};
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
