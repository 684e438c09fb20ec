// Scratch calibration for the Miller opamp spec bounds.
#include <cstdio>
#include "circuits/miller.hpp"
#include "core/evaluator.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
using namespace mayo;
using M = circuits::Miller;
int main() {
  auto problem = M::make_problem();
  auto* mm = dynamic_cast<M*>(problem.model.get());
  linalg::Vector d = M::initial_design();
  linalg::Vector s(circuits::MillerStats::kCount);
  auto m0 = mm->measure(d, s, problem.operating.nominal);
  std::printf("nominal: valid=%d/%d A0=%.2f ft=%.3f PM=%.2f SR=%.3f P=%.4f\n",
              m0.ac_valid, m0.sr_valid, m0.a0_db, m0.ft_mhz, m0.pm_deg, m0.sr_v_per_us, m0.power_mw);
  for (double t : {273.15, 358.15}) for (double v : {4.75, 5.25}) {
    linalg::Vector th{t, v};
    auto c = mm->measure(d, s, th);
    std::printf("T=%3.0fC V=%.2f: A0=%.2f ft=%.3f PM=%.2f SR=%.3f P=%.4f (valid %d/%d)\n",
                t-273.15, v, c.a0_db, c.ft_mhz, c.pm_deg, c.sr_v_per_us, c.power_mw,
                c.ac_valid, c.sr_valid);
  }
  auto cons = mm->constraints(linalg::DesignVec(d));
  std::printf("sat margins:");
  for (auto x : cons) std::printf(" %.3f", x);
  std::printf("\n");
  core::Evaluator ev(problem);
  const linalg::DesignVec d_tag(d);
  linalg::OperatingVec hot{358.15, 4.75};
  stats::RunningStats st[5];
  stats::Rng rng(9);
  for (int i = 0; i < 80; ++i) {
    linalg::StatUnitVec sh(4);
    for (int k = 0; k < 4; ++k) sh[k] = rng.normal();
    auto vals = ev.performances(d_tag, sh, hot);
    for (int k = 0; k < 5; ++k) st[k].add(vals[k]);
  }
  const char* names[] = {"A0","ft","PM","SR","P"};
  for (int k = 0; k < 5; ++k)
    std::printf("MC hot %-3s mean=%9.4f sigma=%8.4f min=%9.4f max=%9.4f\n",
                names[k], st[k].mean(), st[k].stddev(), st[k].min(), st[k].max());
  return 0;
}
