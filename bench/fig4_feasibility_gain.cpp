// Paper Figure 4: performance behaviour of A0 over the feasibility region.
// Inside F (all saturation margins positive) the gain is a weakly
// nonlinear function of the design parameter; outside (a device leaves
// saturation) it collapses -- the reason the feasibility region doubles as
// the trust region of the spec-wise linearizations (Sec. 5.1).
//
// Sweep: the PMOS current-source width w_src.  Shrinking it starves the
// cascode branch and pushes M3/M4 out of saturation.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/folded_cascode.hpp"

using namespace mayo;
using Design = circuits::FoldedCascodeDesign;
using Stats = circuits::FoldedCascodeStats;

int main() {
  bench::section("Figure 4: A0 across the feasibility-region boundary (sweep w_src)");

  auto problem = circuits::FoldedCascode::make_problem();
  auto* model = dynamic_cast<circuits::FoldedCascode*>(problem.model.get());
  const linalg::Vector theta = problem.operating.nominal;
  const linalg::Vector s(Stats::kCount);

  std::printf("%10s %10s %14s %10s\n", "w_src [um]", "A0 [dB]",
              "min sat margin", "feasible");

  struct Sample {
    double w;
    double a0;
    double margin;
  };
  std::vector<Sample> inside;
  std::vector<Sample> outside;
  for (double w_um = 8.0; w_um <= 60.0 + 1e-9; w_um += 2.0) {
    linalg::Vector d = circuits::FoldedCascode::initial_design();
    d[Design::kWSrc] = w_um * 1e-6;
    const auto m = model->measure(d, s, theta);
    const linalg::Vector margins = model->saturation_margins(d);
    const double min_margin = *std::min_element(margins.begin(), margins.end());
    std::printf("%10.1f %10.2f %14.3f %10s\n", w_um,
                m.ac_valid ? m.a0_db : -999.0, min_margin,
                min_margin >= 0.0 ? "yes" : "NO");
    (min_margin >= 0.0 ? inside : outside).push_back({w_um, m.a0_db, min_margin});
  }

  // Quantify "weakly nonlinear inside, collapsing outside": compare the
  // max gain step between adjacent sweep points inside vs. outside F.
  const auto max_step = [](const std::vector<Sample>& samples) {
    double worst = 0.0;
    for (std::size_t i = 1; i < samples.size(); ++i)
      worst = std::max(worst, std::abs(samples[i].a0 - samples[i - 1].a0));
    return worst;
  };
  const double step_inside = max_step(inside);
  const double step_outside = max_step(outside);

  std::printf("\nPaper-vs-measured claims:\n");
  bench::claim("the sweep crosses the v_sat >= 0 boundary", "yes",
               std::to_string(outside.size()) + " infeasible points",
               !outside.empty() && !inside.empty());
  bench::claim("A0 weakly nonlinear inside F",
               "smooth over F",
               core::fmt(step_inside, 2) + " dB max step inside",
               step_inside < 8.0);
  bench::claim("A0 collapses outside F", "strong degradation",
               core::fmt(step_outside, 2) + " dB max step outside",
               step_outside > 2.0 * step_inside);
  if (!inside.empty() && !outside.empty()) {
    const double best_inside =
        std::max_element(inside.begin(), inside.end(), [](auto& a, auto& b) {
          return a.a0 < b.a0;
        })->a0;
    const double worst_outside =
        std::min_element(outside.begin(), outside.end(), [](auto& a, auto& b) {
          return a.a0 < b.a0;
        })->a0;
    bench::claim("gain loss across the boundary is large", "tens of dB",
                 core::fmt(best_inside - worst_outside, 1) + " dB",
                 best_inside - worst_outside > 10.0);
  }
  return 0;
}
