#include "circuits/folded_cascode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/netlist.hpp"
#include "core/probe_cache.hpp"
#include "obs/obs.hpp"
#include "sim/ac.hpp"
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

using Design = FoldedCascodeDesign;
using Stats = FoldedCascodeStats;

// --------------------------------------------------------------- topology --

struct FoldedCascode::Bench {
  Netlist netlist;
  bool unity = false;

  // Signal transistors M0..M10 in constraint order.
  std::array<Mosfet*, 11> signal{};
  Mosfet* mb1 = nullptr;
  Mosfet* mb2 = nullptr;
  Mosfet* mb3 = nullptr;

  VoltageSource* vdd = nullptr;
  VoltageSource* vinp = nullptr;
  VoltageSource* vinn = nullptr;  // null in the unity-gain bench
  VoltageSource* vbp2 = nullptr;
  VoltageSource* vbn2 = nullptr;
  CurrentSource* iref = nullptr;
  Capacitor* cl = nullptr;
  NodeId out = circuit::kGround;
};

// Per-(d, theta) reusable results.  Everything in here is computed at the
// NOMINAL statistical point with cold solves, i.e. it is a pure function
// of (d, theta): evaluation results can depend on the context only through
// warm-start seeds, never on the history of earlier calls.  (The previous
// scheme kept the last DC solution as a warm start, which made results
// depend on the evaluation order.)
struct FoldedCascode::DesignContext {
  std::vector<std::uint64_t> key;  ///< raw bits of (d, theta)

  bool ac_done = false;
  bool ac_converged = false;
  Vector op_ac;  ///< nominal DC operating point of the AC bench

  bool ft_done = false;
  bool ft_valid = false;
  sim::FtBracket ft_bracket;  ///< nominal unity-gain crossing, widened

  bool sr_done = false;
  bool sr_converged = false;
  Vector op_sr;  ///< nominal DC operating point of the unity-gain bench
  bool traj_valid = false;
  std::vector<Vector> sr_traj;  ///< nominal step-response trajectory
};

namespace {
/// AC sweep bounds of the ft measurement (shared by the nominal sweep in
/// the context and the per-sample seeded measurement).
constexpr double kFtLow = 1.0;
constexpr double kFtHigh = 10e9;
/// Headroom factor applied to the nominal crossing on both sides; mismatch
/// rarely moves ft by more than tens of percent, and an escaped crossing
/// just falls back to the full sweep.
constexpr double kFtWiden = 1.6;
/// Bounded FIFO of design contexts (coordinate searches revisit a handful
/// of designs; old entries can always be rebuilt).
constexpr std::size_t kContextCapacity = 16;
}  // namespace

std::unique_ptr<FoldedCascode::Bench> FoldedCascode::build_bench(
    const FoldedCascode::Options& opt, bool unity) {
  auto bench = std::make_unique<FoldedCascode::Bench>();
  bench->unity = unity;
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
  bench->vdd = &nl.add<VoltageSource>("Vdd", vdd, circuit::kGround, 5.0);
  bench->vinp = &nl.add<VoltageSource>("Vinp", inp, circuit::kGround, 2.5);
  if (!unity) {
    // DC feedback that is transparent at AC: Vinn (AC excitation handle)
    // sits between the inverting input and the R/C loop filter.
    const NodeId fb = nl.add_node("fb");
    bench->vinn = &nl.add<VoltageSource>("Vinn", inn, fb, 0.0);
    nl.add<Resistor>("Rfb", out, fb, 1e9);
    nl.add<Capacitor>("Cfb", fb, circuit::kGround, 1.0);
  }

  // Bias generation: Iref -> NMOS diode MB1 (bn1); MB3 mirrors Iref and
  // pulls through the PMOS diode MB2 (bp1); cascode gates are
  // supply-referenced voltage sources.
  bench->iref = &nl.add<CurrentSource>("Iref", vdd, bn1, 50e-6);
  bench->mb1 = &nl.add<Mosfet>("MB1", MosType::kNmos, bn1, bn1,
                               circuit::kGround, circuit::kGround, proc_n,
                               bias_geom);
  bench->mb2 =
      &nl.add<Mosfet>("MB2", MosType::kPmos, bp1, bp1, vdd, vdd, proc_p,
                      bias_geom);
  bench->mb3 = &nl.add<Mosfet>("MB3", MosType::kNmos, bp1, bn1,
                               circuit::kGround, circuit::kGround, proc_n,
                               bias_geom);
  bench->vbp2 = &nl.add<VoltageSource>("Vbp2", vdd, bp2, opt.vcasc_p);
  bench->vbn2 = &nl.add<VoltageSource>("Vbn2", bn2, circuit::kGround,
                                       opt.vcasc_n);

  // Signal path.
  bench->signal[0] = &nl.add<Mosfet>("M0", MosType::kNmos, tail, bn1,
                                     circuit::kGround, circuit::kGround,
                                     proc_n, default_geom);
  bench->signal[1] = &nl.add<Mosfet>("M1", MosType::kNmos, n1, inp, tail,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[2] = &nl.add<Mosfet>("M2", MosType::kNmos, n2, inn, tail,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[3] = &nl.add<Mosfet>("M3", MosType::kPmos, n1, bp1, vdd, vdd,
                                     proc_p, default_geom);
  bench->signal[4] = &nl.add<Mosfet>("M4", MosType::kPmos, n2, bp1, vdd, vdd,
                                     proc_p, default_geom);
  bench->signal[5] = &nl.add<Mosfet>("M5", MosType::kPmos, cg, bp2, n1, vdd,
                                     proc_p, default_geom);
  bench->signal[6] = &nl.add<Mosfet>("M6", MosType::kPmos, out, bp2, n2, vdd,
                                     proc_p, default_geom);
  bench->signal[7] = &nl.add<Mosfet>("M7", MosType::kNmos, cg, bn2, s7,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[8] = &nl.add<Mosfet>("M8", MosType::kNmos, out, bn2, s8,
                                     circuit::kGround, proc_n, default_geom);
  bench->signal[9] = &nl.add<Mosfet>("M9", MosType::kNmos, s7, cg,
                                     circuit::kGround, circuit::kGround,
                                     proc_n, default_geom);
  bench->signal[10] = &nl.add<Mosfet>("M10", MosType::kNmos, s8, cg,
                                      circuit::kGround, circuit::kGround,
                                      proc_n, default_geom);

  bench->cl = &nl.add<Capacitor>("CL", out, circuit::kGround, opt.load_cap);
  return bench;
}

// ------------------------------------------------------------ construction --

FoldedCascode::FoldedCascode() : FoldedCascode(Options()) {}

FoldedCascode::FoldedCascode(Options options)
    : options_(std::move(options)),
      ac_bench_(build_bench(options_, /*unity=*/false)),
      sr_bench_(build_bench(options_, /*unity=*/true)) {
  ac_session_.set_solver(options_.solver);
}

FoldedCascode::~FoldedCascode() = default;

// --------------------------------------------------------------- binding --

void FoldedCascode::apply(Bench& bench, const Vector& d, const Vector& s,
                          const Vector& theta) const {
  if (d.size() != Design::kCount)
    throw std::invalid_argument("FoldedCascode: design vector size mismatch");
  if (s.size() != Stats::kCount)
    throw std::invalid_argument("FoldedCascode: statistical vector size mismatch");
  if (theta.size() != 2)
    throw std::invalid_argument("FoldedCascode: operating vector size mismatch");

  const double l = options_.length;
  const std::array<double, 11> widths = {
      d[Design::kWTail], d[Design::kWIn],   d[Design::kWIn],
      d[Design::kWSrc],  d[Design::kWSrc],  d[Design::kWPcas],
      d[Design::kWPcas], d[Design::kWNcas], d[Design::kWNcas],
      d[Design::kWMir],  d[Design::kWMir]};

  const double dvthn = s[Stats::kDvthnGlobal];
  const double dvthp = s[Stats::kDvthpGlobal];
  const double kpn = 1.0 + s[Stats::kDkpnGlobal];
  const double kpp = 1.0 + s[Stats::kDkppGlobal];

  for (std::size_t i = 0; i < 11; ++i) {
    Mosfet* mos = bench.signal[i];
    mos->set_geometry({widths[i], l});
    circuit::MosVariation var;
    const bool is_pmos = mos->type() == MosType::kPmos;
    var.dvth = is_pmos ? dvthp : dvthn;
    var.kp_scale = is_pmos ? kpp : kpn;
    // Local mismatch of M1..M10 (index i-1 into the local block).
    if (i >= 1) var.dvth += s[Stats::kLocalFirst + (i - 1)];
    mos->set_variation(var);
  }
  for (Mosfet* mos : {bench.mb1, bench.mb3}) {
    circuit::MosVariation var;
    var.dvth = dvthn;
    var.kp_scale = kpn;
    mos->set_variation(var);
  }
  {
    circuit::MosVariation var;
    var.dvth = dvthp;
    var.kp_scale = kpp;
    bench.mb2->set_variation(var);
  }

  const double vdd = theta[1];
  bench.vdd->set_dc_value(vdd);
  bench.vinp->set_dc_value(0.5 * vdd);
  bench.iref->set_dc_value(d[Design::kIref]);
}

// --------------------------------------------------------------- contexts --

FoldedCascode::DesignContext& FoldedCascode::design_context(
    const Vector& d, const Vector& theta) {
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

void FoldedCascode::ensure_ac_section(DesignContext& ctx, const Vector& d,
                                      const Vector& theta) {
  if (ctx.ac_done) return;
  ctx.ac_done = true;
  Bench& ac = *ac_bench_;
  const Vector s0(Stats::kCount);
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  // Cold solve: no warm start, so the context stays a pure function of
  // (d, theta) regardless of what was evaluated before.
  sim::DcOptions dc;
  dc.solver = options_.solver;
  dc.workspace = &newton_ac_;
  const sim::DcResult op = sim::solve_dc(ac.netlist, conditions, dc);
  ctx.ac_converged = op.converged;
  if (op.converged) ctx.op_ac = op.solution;
}

void FoldedCascode::ensure_ft_section(DesignContext& ctx, const Vector& d,
                                      const Vector& theta) {
  if (ctx.ft_done) return;
  ensure_ac_section(ctx, d, theta);
  ctx.ft_done = true;
  if (!ctx.ac_converged) return;  // ft_valid stays false
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

void FoldedCascode::ensure_sr_section(DesignContext& ctx, const Vector& d,
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
  // Nominal step response: its trajectory seeds every sample's per-step
  // Newton iteration.
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

// ----------------------------------------------------------- measurements --

void FoldedCascode::measure_ac(DesignContext& ctx, const Vector& d,
                               const Vector& s, const Vector& theta,
                               Measurements& out) {
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

  // Differential excitation; the nominal crossing seeds the ft search.
  // One session stamp serves the whole A0/ft measurement.
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, op.solution, conditions);
  const sim::GainBandwidth gb =
      sim::measure_gain_bandwidth(ac_session_, ac.out, kFtLow, kFtHigh,
                                  ctx.ft_valid ? &ctx.ft_bracket : nullptr);
  out.a0_db = gb.a0_db;
  out.ft_mhz = gb.ft_found ? gb.ft_hz / 1e6 : 0.0;

  // Common-mode excitation for CMRR: only the excitation vector changed,
  // but a re-stamp is one device sweep -- far cheaper than a solve.
  ac.vinp->set_ac_value({1.0, 0.0});
  ac.vinn->set_ac_value({1.0, 0.0});
  ac_session_.stamp(ac.netlist, op.solution, conditions);
  const double acm_db = sim::to_db(ac_session_.node_voltage(1.0, ac.out));
  out.cmrr_db = out.a0_db - acm_db;
  out.ac_valid = true;
}

void FoldedCascode::measure_sr(DesignContext& ctx, const Vector& d,
                               const Vector& s, const Vector& theta,
                               Measurements& out) {
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

void FoldedCascode::measure_with_context(DesignContext& ctx, const Vector& d,
                                         const Vector& s, const Vector& theta,
                                         core::AnalysisMask analyses,
                                         Measurements& out) {
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    measure_ac(ctx, d, s, theta, out);
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    measure_sr(ctx, d, s, theta, out);
}

FoldedCascode::DesignContext& FoldedCascode::prepared_context(
    const Vector& d, const Vector& theta, core::AnalysisMask analyses) {
  DesignContext& ctx = design_context(d, theta);
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    ensure_ft_section(ctx, d, theta);  // builds the AC section too
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    ensure_sr_section(ctx, d, theta);
  return ctx;
}

FoldedCascode::Measurements FoldedCascode::measure(const Vector& d,
                                                   const Vector& s,
                                                   const Vector& theta) {
  Measurements out;
  measure_with_context(prepared_context(d, theta, kAllAnalyses), d, s, theta,
                       kAllAnalyses, out);
  return out;
}

std::size_t FoldedCascode::analysis_of(std::size_t performance) const {
  return performance == 3 ? kSlewAnalysis : kAcAnalysis;
}

namespace {
/// Writes the performances into out[0..4].  A bench that failed to
/// converge (or did not run) gets finite penalty values that fail its own
/// specifications decisively; the other bench's entries do not depend on
/// it, so a row never depends on which analyses were requested together.
void pack_performances(const FoldedCascode::Measurements& m, double* out) {
  const bool ok = m.ac_valid;
  out[0] = ok ? m.a0_db : -20.0;    // A0 [dB]
  out[1] = ok ? m.ft_mhz : 0.0;     // ft [MHz]
  out[2] = ok ? m.cmrr_db : 0.0;    // CMRR [dB]
  out[4] = ok ? m.power_mw : 10.0;  // Power [mW]
  out[3] = m.sr_valid ? m.sr_v_per_us : 0.0;  // SR [V/us]
}
}  // namespace

linalg::PerfVec FoldedCascode::evaluate(const linalg::DesignVec& d,
                                        const linalg::StatPhysVec& s,
                                        const linalg::OperatingVec& theta) {
  return evaluate_analyses(d, s, theta, kAllAnalyses);
}

linalg::PerfVec FoldedCascode::evaluate_analyses(
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

void FoldedCascode::evaluate_batch(const linalg::DesignVec& d_tagged,
                                   linalg::StatPhysBlock s_tagged,
                                   const linalg::OperatingVec& theta_tagged,
                                   linalg::PerfBlockView out_tagged) {
  // Unwrap once at the model boundary; internals are untyped.
  const Vector& d = d_tagged.raw();                // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();        // space-ok: model boundary
  linalg::ConstMatrixView s_block = s_tagged.raw();  // space-ok: model boundary
  linalg::MatrixView out = out_tagged.raw();         // space-ok: model boundary
  if (out.rows() != s_block.rows() || out.cols() != num_performances())
    throw std::invalid_argument(
        "FoldedCascode::evaluate_batch: out shape mismatch");
  // Hoist the nominal solves (bias point, ft bracket, slew trajectory) out
  // of the sample loop; every row then runs the same per-sample code as
  // evaluate(), so the results are bitwise-identical to the scalar path.
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

Vector FoldedCascode::saturation_margins(const Vector& d) {
  const Vector s0(Stats::kCount);
  Vector theta{options_.process.envelope.temp_nom_k,
               options_.process.envelope.vdd_nom};
  DesignContext& ctx = design_context(d, theta);
  ensure_ac_section(ctx, d, theta);
  Vector margins(11);
  if (!ctx.ac_converged) {
    margins.fill(-1.0);
    return margins;
  }
  // The constraint point IS the context's nominal operating point: only
  // the device state needs re-binding, no extra DC solve.
  Bench& ac = *ac_bench_;
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  for (std::size_t i = 0; i < 11; ++i) {
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

Vector FoldedCascode::constraints(const linalg::DesignVec& d) {
  return saturation_margins(d.raw());  // space-ok: untyped model-detail helper
}

std::unique_ptr<core::PerformanceModel> FoldedCascode::clone() const {
  return std::make_unique<FoldedCascode>(options_);
}

std::vector<std::string> FoldedCascode::constraint_names() const {
  return {"sat(M0)", "sat(M1)", "sat(M2)", "sat(M3)",  "sat(M4)", "sat(M5)",
          "sat(M6)", "sat(M7)", "sat(M8)", "sat(M9)", "sat(M10)"};
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
