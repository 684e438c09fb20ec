// Scratch calibration: folded-cascode measurements, pair sensitivities and
// quick Monte-Carlo spreads used to pick the spec bounds.
#include <cstdio>

#include "circuits/folded_cascode.hpp"
#include "core/evaluator.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

using namespace mayo;
using FC = circuits::FoldedCascode;
using St = circuits::FoldedCascodeStats;

int main() {
  auto problem = FC::make_problem();
  auto* fc = dynamic_cast<FC*>(problem.model.get());
  linalg::Vector d = FC::initial_design();
  linalg::Vector theta = problem.operating.nominal;
  linalg::Vector s(St::kCount);

  auto m = fc->measure(d, s, theta);
  std::printf("nominal: valid=%d/%d A0=%.2f dB ft=%.2f MHz CMRR=%.2f dB SR=%.2f V/us P=%.3f mW\n",
              m.ac_valid, m.sr_valid, m.a0_db, m.ft_mhz, m.cmrr_db, m.sr_v_per_us, m.power_mw);
  for (double t : {273.15, 358.15})
    for (double v : {4.75, 5.25}) {
      linalg::Vector th{t, v};
      auto c = fc->measure(d, s, th);
      std::printf("T=%3.0fC V=%.2f: A0=%.2f ft=%.2f CMRR=%.2f SR=%.2f P=%.3f\n",
                  t - 273.15, v, c.a0_db, c.ft_mhz, c.cmrr_db, c.sr_v_per_us, c.power_mw);
    }
  auto cons = fc->saturation_margins(d);
  std::printf("sat margins:");
  for (auto x : cons) std::printf(" %.3f", x);
  std::printf("\n\n");

  // vth pair sensitivities (+-5 mV on each matched pair, mismatch line)
  const char* pair_names[] = {"M1/M2", "M3/M4", "M5/M6", "M7/M8", "M9/M10"};
  for (int p = 0; p < 5; ++p) {
    linalg::Vector sp(St::kCount);
    sp[St::kLocalFirst + 2 * p] = 0.005;
    sp[St::kLocalFirst + 2 * p + 1] = -0.005;
    auto mm = fc->measure(d, sp, theta);
    std::printf("vth ML %-6s +-5mV : CMRR=%7.2f dB (delta %+6.2f)  A0=%.2f ft=%.2f SR=%.2f\n",
                pair_names[p], mm.cmrr_db, mm.cmrr_db - m.cmrr_db, mm.a0_db, mm.ft_mhz,
                mm.sr_v_per_us);
    // neutral line check
    sp[St::kLocalFirst + 2 * p + 1] = 0.005;
    auto mn = fc->measure(d, sp, theta);
    std::printf("vth NL %-6s +/+5mV: CMRR=%7.2f dB (delta %+6.2f)\n", pair_names[p],
                mn.cmrr_db, mn.cmrr_db - m.cmrr_db);
  }

  // global sensitivities
  for (int g = 0; g < 4; ++g) {
    linalg::Vector sg(St::kCount);
    sg[g] = (g < 2) ? 0.03 : 0.04;
    auto mg = fc->measure(d, sg, theta);
    std::printf("global[%d]+1sig: A0=%.2f ft=%.2f CMRR=%.2f SR=%.2f P=%.3f\n", g,
                mg.a0_db, mg.ft_mhz, mg.cmrr_db, mg.sr_v_per_us, mg.power_mw);
  }

  // quick MC at hot corner for sigmas
  core::Evaluator ev(problem);
  const linalg::DesignVec d_tag(d);
  linalg::OperatingVec hot{358.15, 5.25};
  stats::RunningStats st[5];
  stats::Rng rng(7);
  for (int i = 0; i < 80; ++i) {
    linalg::StatUnitVec sh(St::kCount);
    for (std::size_t k = 0; k < sh.size(); ++k) sh[k] = rng.normal();
    auto vals = ev.performances(d_tag, sh, hot);
    for (int k = 0; k < 5; ++k) st[k].add(vals[k]);
  }
  const char* names[] = {"A0", "ft", "CMRR", "SR", "P"};
  for (int k = 0; k < 5; ++k)
    std::printf("MC hot %-4s mean=%8.3f sigma=%7.3f min=%8.3f max=%8.3f\n", names[k],
                st[k].mean(), st[k].stddev(), st[k].min(), st[k].max());
  return 0;
}
