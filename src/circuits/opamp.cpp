#include "circuits/opamp.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace mayo::circuits {

using circuit::Conditions;
using circuit::NodeId;
using linalg::Vector;

// Per-(d, theta) reusable results.  Everything in here is computed at the
// NOMINAL statistical point with cold solves, i.e. it is a pure function
// of (d, theta): evaluation results can depend on the context only through
// warm-start seeds, never on the history of earlier calls.  (The previous
// scheme kept the last DC solution as a warm start, which made results
// depend on the evaluation order.)
struct OpampModel::DesignContext {
  bool ac_done = false;
  bool ac_converged = false;
  Vector op_ac;  ///< nominal DC operating point of the AC bench

  bool ft_done = false;
  bool ft_valid = false;
  sim::FtBracket ft_bracket;  ///< nominal unity-gain crossing, widened

  bool sr_done = false;
  bool sr_converged = false;
  Vector op_sr;  ///< nominal DC operating point of the unity-gain bench
  sim::TranResult sr_tran;  ///< nominal step response (seeds if converged)
};

namespace {
/// Lower AC sweep bound of the ft measurement (shared by the nominal sweep
/// in the context and the per-sample seeded measurement).
constexpr double kFtLow = 1.0;
/// Headroom factor applied to the nominal crossing on both sides; mismatch
/// rarely moves ft by more than tens of percent, and an escaped crossing
/// just falls back to the full sweep.
constexpr double kFtWiden = 1.6;
/// Bounded FIFO of design contexts (coordinate searches revisit a handful
/// of designs; old entries can always be rebuilt).
constexpr std::size_t kContextCapacity = 16;
}  // namespace

OpampModel::OpampModel(Setup setup, std::unique_ptr<Bench> ac_bench,
                       std::unique_ptr<Bench> sr_bench)
    : setup_(std::move(setup)),
      measures_cmrr_(std::find(setup_.performances.begin(),
                               setup_.performances.end(),
                               Performance::kCmrr) !=
                     setup_.performances.end()),
      s_nominal_(setup_.num_statistical),
      ac_bench_(std::move(ac_bench)),
      sr_bench_(std::move(sr_bench)),
      contexts_(kContextCapacity, nullptr,
                &obs::registry().counters.design_context) {}

OpampModel::~OpampModel() = default;

// --------------------------------------------------------------- contexts --

OpampModel::DesignContext& OpampModel::design_context(const Vector& d,
                                                      const Vector& theta) {
  context_key_.clear();
  core::ProbeCache::append_bits(context_key_, d);
  core::ProbeCache::append_bits(context_key_, theta);
  if (std::unique_ptr<DesignContext>* hit = contexts_.find(context_key_))
    return **hit;
  return *contexts_.insert(context_key_, std::make_unique<DesignContext>());
}

sim::DcResult OpampModel::solve_op(Bench& bench, const Conditions& conditions,
                                   const Vector* warm_start) {
  sim::DcOptions dc;
  dc.workspace = &bench.newton;
  return sim::solve_dc(bench.netlist, conditions, dc, warm_start);
}

sim::GainBandwidth OpampModel::gain_bandwidth(const Vector& op,
                                              const Conditions& conditions,
                                              const sim::FtBracket* bracket) {
  Bench& ac = *ac_bench_;
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, op, conditions);
  return sim::measure_gain_bandwidth(ac_session_, ac.out, kFtLow,
                                     setup_.ft_high, bracket);
}

sim::TranResult OpampModel::step_response(const Vector& op,
                                          const Vector& theta,
                                          const sim::TranResult* seed) {
  Bench& sr = *sr_bench_;
  const double vcm = 0.5 * theta[1];
  const double step = setup_.sr_step;
  sr.vinp->set_waveform([vcm, step](double t) {
    return t <= 0.0 ? vcm : vcm + step;
  });
  sim::TranOptions tran;
  tran.t_stop = setup_.sr_t_stop;
  tran.dt = setup_.sr_dt;
  // The input steps at t = 0+ and the output settles well before t_stop,
  // so the step may grow up to the whole run on the flat tail.
  tran.max_dt = setup_.sr_t_stop;
  tran.newton.workspace = &sr.newton;
  tran.seed = seed;
  sim::TranResult tr =
      sim::solve_transient(sr.netlist, op, Conditions{theta[0]}, tran);
  sr.vinp->clear_waveform();
  return tr;
}

void OpampModel::ensure_ac_section(DesignContext& ctx, const Vector& d,
                                   const Vector& theta) {
  if (ctx.ac_done) return;
  ctx.ac_done = true;
  apply(*ac_bench_, d, s_nominal_, theta);
  // Cold solve: no warm start, so the context stays a pure function of
  // (d, theta) regardless of what was evaluated before.
  const sim::DcResult op =
      solve_op(*ac_bench_, Conditions{theta[0]}, nullptr);
  ctx.ac_converged = op.converged;
  if (op.converged) ctx.op_ac = op.solution;
}

void OpampModel::ensure_ft_section(DesignContext& ctx, const Vector& d,
                                   const Vector& theta) {
  if (ctx.ft_done) return;
  ensure_ac_section(ctx, d, theta);
  ctx.ft_done = true;
  if (!ctx.ac_converged) return;  // ft_valid stays false
  apply(*ac_bench_, d, s_nominal_, theta);
  const sim::GainBandwidth gb =
      gain_bandwidth(ctx.op_ac, Conditions{theta[0]}, nullptr);
  if (!gb.ft_found) return;
  ctx.ft_bracket.f_lo = std::max(kFtLow, gb.ft_hz / kFtWiden);
  ctx.ft_bracket.f_hi = std::min(setup_.ft_high, gb.ft_hz * kFtWiden);
  ctx.ft_valid = ctx.ft_bracket.f_hi > ctx.ft_bracket.f_lo;
}

void OpampModel::ensure_sr_section(DesignContext& ctx, const Vector& d,
                                   const Vector& theta) {
  if (ctx.sr_done) return;
  ctx.sr_done = true;
  apply(*sr_bench_, d, s_nominal_, theta);
  const sim::DcResult op =
      solve_op(*sr_bench_, Conditions{theta[0]}, nullptr);
  ctx.sr_converged = op.converged;
  if (!op.converged) return;
  ctx.op_sr = op.solution;
  // Nominal step response: it seeds the Newton iteration of every
  // sample's steps that fall on its own grid.
  ctx.sr_tran = step_response(op.solution, theta, nullptr);
}

OpampModel::DesignContext& OpampModel::prepared_context(
    const Vector& d, const Vector& theta, core::AnalysisMask analyses) {
  DesignContext& ctx = design_context(d, theta);
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    ensure_ft_section(ctx, d, theta);  // builds the AC section too
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    ensure_sr_section(ctx, d, theta);
  return ctx;
}

// ----------------------------------------------------------- measurements --

void OpampModel::measure_ac(DesignContext& ctx, const Vector& d,
                            const Vector& s, const Vector& theta,
                            Measurements& out) {
  const Conditions conditions{theta[0]};
  Bench& ac = *ac_bench_;
  apply(ac, d, s, theta);
  const sim::DcResult op =
      solve_op(ac, conditions, ctx.ac_converged ? &ctx.op_ac : nullptr);
  if (!op.converged) return;  // ac_valid stays false

  out.power_mw =
      1e3 * sim::measure_supply_power(ac.netlist, op.solution, {ac.vdd});

  // One session stamp serves the whole A0/ft/PM measurement; the nominal
  // crossing seeds the ft search.
  const sim::GainBandwidth gb = gain_bandwidth(
      op.solution, conditions, ctx.ft_valid ? &ctx.ft_bracket : nullptr);
  out.a0_db = gb.a0_db;
  out.ft_mhz = gb.ft_found ? gb.ft_hz / 1e6 : 0.0;
  out.pm_deg = gb.ft_found ? gb.phase_margin_deg : 0.0;

  if (measures_cmrr_) {
    // Common-mode excitation for CMRR: only the excitation vector changed,
    // but a re-stamp is one device sweep -- far cheaper than a solve.
    ac.vinp->set_ac_value({1.0, 0.0});
    ac.vinn->set_ac_value({1.0, 0.0});
    ac_session_.stamp(ac.netlist, op.solution, conditions);
    const double acm_db = sim::to_db(ac_session_.node_voltage(1.0, ac.out));
    out.cmrr_db = out.a0_db - acm_db;
  }
  out.ac_valid = true;
}

void OpampModel::measure_sr(DesignContext& ctx, const Vector& d,
                            const Vector& s, const Vector& theta,
                            Measurements& out) {
  Bench& sr = *sr_bench_;
  apply(sr, d, s, theta);
  const sim::DcResult op = solve_op(sr, Conditions{theta[0]},
                                    ctx.sr_converged ? &ctx.op_sr : nullptr);
  if (!op.converged) return;  // sr_valid stays false
  const sim::TranResult tr = step_response(
      op.solution, theta, ctx.sr_tran.converged ? &ctx.sr_tran : nullptr);
  if (!tr.converged) return;
  out.sr_v_per_us =
      1e-6 * sim::measure_slew_rate(tr.time, tr.node_voltage(sr.out));
  out.sr_valid = true;
}

void OpampModel::measure_with_context(DesignContext& ctx, const Vector& d,
                                      const Vector& s, const Vector& theta,
                                      core::AnalysisMask analyses,
                                      Measurements& out) {
  if ((analyses & core::analysis_bit(kAcAnalysis)) != 0)
    measure_ac(ctx, d, s, theta, out);
  if ((analyses & core::analysis_bit(kSlewAnalysis)) != 0)
    measure_sr(ctx, d, s, theta, out);
}

OpampModel::Measurements OpampModel::measure(const Vector& d, const Vector& s,
                                             const Vector& theta) {
  Measurements out;
  measure_with_context(prepared_context(d, theta, kAllAnalyses), d, s, theta,
                       kAllAnalyses, out);
  return out;
}

// ------------------------------------------------------------- evaluation --

std::size_t OpampModel::analysis_of(std::size_t performance) const {
  return setup_.performances.at(performance) == Performance::kSlewRate
             ? kSlewAnalysis
             : kAcAnalysis;
}

void OpampModel::pack_performances(const Measurements& m, double* out) const {
  // A bench that failed to converge (or did not run) gets finite penalty
  // values that fail its own specifications decisively; the other bench's
  // entries do not depend on it, so a row never depends on which analyses
  // were requested together.
  const bool ac = m.ac_valid;
  for (std::size_t i = 0; i < setup_.performances.size(); ++i) {
    switch (setup_.performances[i]) {
      case Performance::kA0: out[i] = ac ? m.a0_db : -20.0; break;
      case Performance::kFt: out[i] = ac ? m.ft_mhz : 0.0; break;
      case Performance::kCmrr: out[i] = ac ? m.cmrr_db : 0.0; break;
      case Performance::kPhaseMargin: out[i] = ac ? m.pm_deg : 0.0; break;
      case Performance::kPower: out[i] = ac ? m.power_mw : 10.0; break;
      case Performance::kSlewRate:
        out[i] = m.sr_valid ? m.sr_v_per_us : 0.0;
        break;
    }
  }
}

linalg::PerfVec OpampModel::evaluate(const linalg::DesignVec& d,
                                     const linalg::StatPhysVec& s,
                                     const linalg::OperatingVec& theta) {
  return evaluate_analyses(d, s, theta, kAllAnalyses);
}

linalg::PerfVec OpampModel::evaluate_analyses(
    const linalg::DesignVec& d_tagged, const linalg::StatPhysVec& s_tagged,
    const linalg::OperatingVec& theta_tagged, core::AnalysisMask analyses) {
  // Unwrap once: bench internals are untyped numeric code.
  const Vector& d = d_tagged.raw();          // space-ok: model boundary
  const Vector& s = s_tagged.raw();          // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();  // space-ok: model boundary
  Measurements m;
  measure_with_context(prepared_context(d, theta, analyses), d, s, theta,
                       analyses, m);
  linalg::PerfVec out(num_performances());
  pack_performances(m, &out[0]);
  return out;
}

void OpampModel::evaluate_batch(const linalg::DesignVec& d,
                                linalg::StatPhysBlock s_block,
                                const linalg::OperatingVec& theta,
                                linalg::PerfBlockView out) {
  evaluate_batch_analyses(d, s_block, theta, kAllAnalyses, out);
}

void OpampModel::evaluate_batch_analyses(
    const linalg::DesignVec& d_tagged, linalg::StatPhysBlock s_tagged,
    const linalg::OperatingVec& theta_tagged, core::AnalysisMask analyses,
    linalg::PerfBlockView out_tagged) {
  // Unwrap once at the model boundary; internals are untyped.
  const Vector& d = d_tagged.raw();                // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();        // space-ok: model boundary
  linalg::ConstMatrixView s_block = s_tagged.raw();  // space-ok: model boundary
  linalg::MatrixView out = out_tagged.raw();         // space-ok: model boundary
  if (out.rows() != s_block.rows() || out.cols() != num_performances())
    throw std::invalid_argument(
        "OpampModel::evaluate_batch_analyses: out shape mismatch");
  // Hoist the nominal solves the requested benches seed from (bias point,
  // ft bracket, slew trajectory) out of the sample loop; every row then
  // runs the same per-sample code as evaluate_analyses(), so the results
  // are bitwise-identical to the scalar path.
  DesignContext& ctx = prepared_context(d, theta, analyses);
  if (batch_s_.size() != s_block.cols()) batch_s_ = Vector(s_block.cols());
  for (std::size_t j = 0; j < s_block.rows(); ++j) {
    const double* row = s_block.row(j);
    for (std::size_t i = 0; i < batch_s_.size(); ++i) batch_s_[i] = row[i];
    Measurements m;
    measure_with_context(ctx, d, batch_s_, theta, analyses, m);
    pack_performances(m, out.row(j));
  }
}

// ------------------------------------------------------------ constraints --

std::vector<std::string> OpampModel::constraint_names() const {
  std::vector<std::string> names;
  for (const circuit::Mosfet* mos : ac_bench_->signal) {
    std::string name = "sat(";
    name += mos->name();
    name += ')';
    names.push_back(std::move(name));
  }
  return names;
}

Vector OpampModel::saturation_margins(const Vector& d) {
  const Vector& theta = setup_.theta_nominal;
  DesignContext& ctx = design_context(d, theta);
  ensure_ac_section(ctx, d, theta);
  Vector margins(num_constraints());
  if (!ctx.ac_converged) {
    margins.fill(-1.0);
    return margins;
  }
  // The constraint point IS the context's nominal operating point: only
  // the device state needs re-binding, no extra DC solve.
  apply(*ac_bench_, d, s_nominal_, theta);
  const auto voltage = [&](NodeId n) {
    return n == circuit::kGround ? 0.0 : ctx.op_ac[n - 1];
  };
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const circuit::Mosfet* mos = ac_bench_->signal[i];
    const circuit::MosEval eval = mos->evaluate_at(
        voltage(mos->drain()), voltage(mos->gate()), voltage(mos->source()),
        voltage(mos->bulk()), theta[0]);
    const double p = mos->type() == circuit::MosType::kNmos ? 1.0 : -1.0;
    const double vds = p * (voltage(mos->drain()) - voltage(mos->source()));
    margins[i] = vds - eval.vdsat - setup_.sat_margin;
  }
  return margins;
}

Vector OpampModel::constraints(const linalg::DesignVec& d) {
  return saturation_margins(d.raw());  // space-ok: untyped model-detail helper
}

}  // namespace mayo::circuits
