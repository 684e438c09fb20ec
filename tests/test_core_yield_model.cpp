#include "core/yield_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/lu.hpp"
#include "stats/normal.hpp"
#include "stats/rng.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::Vector;

/// One handmade linear model: margin = m0 + g_s . s + g_d . (d - d_f).
SpecLinearization make_model(std::size_t spec, double m0, Vector g_s,
                             Vector g_d, Vector d_f) {
  SpecLinearization lin;
  lin.spec = spec;
  lin.s_wc = linalg::StatUnitVec(g_s.size());
  lin.margin_wc = m0;
  lin.grad_s = linalg::StatUnitVec(std::move(g_s));
  lin.grad_d = linalg::DesignVec(std::move(g_d));
  lin.d_f = linalg::DesignVec(std::move(d_f));
  lin.theta_wc = linalg::OperatingVec{0.0};
  return lin;
}

TEST(LinearYieldModel, SingleSpecMatchesPhiBeta) {
  // margin = 1 - s0: passes iff s0 <= 1 -> yield = Phi(1).
  const stats::SampleSet samples(20000, 2, 7);
  std::vector<SpecLinearization> models = {
      make_model(0, 1.0, Vector{-1.0, 0.0}, Vector{0.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  EXPECT_NEAR(model.yield(), stats::yield_from_beta(1.0), 0.01);
}

TEST(LinearYieldModel, TwoIndependentSpecsMultiply) {
  // Independent margins on s0 and s1 with beta = 1 each.
  const stats::SampleSet samples(40000, 2, 11);
  std::vector<SpecLinearization> models = {
      make_model(0, 1.0, Vector{-1.0, 0.0}, Vector{0.0}, Vector{0.0}),
      make_model(1, 1.0, Vector{0.0, -1.0}, Vector{0.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  const double phi1 = stats::yield_from_beta(1.0);
  EXPECT_NEAR(model.yield(), phi1 * phi1, 0.01);
}

TEST(LinearYieldModel, DesignOffsetShiftsYield) {
  // margin = 1 - s0 + (d - 0): moving d by +1 gives beta = 2.
  const stats::SampleSet samples(20000, 1, 3);
  std::vector<SpecLinearization> models = {
      make_model(0, 1.0, Vector{-1.0}, Vector{1.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  model.set_design(linalg::DesignVec{1.0});
  EXPECT_NEAR(model.yield(), stats::yield_from_beta(2.0), 0.01);
}

TEST(LinearYieldModel, ApplyCoordinateMatchesSetDesign) {
  const stats::SampleSet samples(5000, 2, 5);
  std::vector<SpecLinearization> models = {
      make_model(0, 0.5, Vector{-1.0, 0.3}, Vector{0.7, -0.2}, Vector{0.0, 0.0}),
      make_model(1, 1.5, Vector{0.4, -0.8}, Vector{-0.3, 0.9}, Vector{0.0, 0.0})};
  LinearYieldModel incremental(models, samples);
  LinearYieldModel reference(models, samples);
  incremental.apply_coordinate(0, 0.8);
  incremental.apply_coordinate(1, -0.4);
  incremental.apply_coordinate(0, 0.1);
  reference.set_design(linalg::DesignVec{0.9, -0.4});
  EXPECT_EQ(incremental.passing(), reference.passing());
  for (std::size_t l = 0; l < 2; ++l)
    EXPECT_NEAR(incremental.sample_margin(l, 17),
                reference.sample_margin(l, 17), 1e-10);
}

TEST(LinearYieldModel, BadSamplesPerSpecCombinesMirrors) {
  const stats::SampleSet samples(10000, 1, 9);
  // Spec 0: primary passes s <= 1, mirror passes s >= -1 -> bad when
  // |s| > 1 -> ~31.7% bad.
  std::vector<SpecLinearization> models = {
      make_model(0, 1.0, Vector{-1.0}, Vector{}, Vector{}),
      make_model(0, 1.0, Vector{1.0}, Vector{}, Vector{})};
  models[0].d_f = linalg::DesignVec{0.0};
  models[0].grad_d = linalg::DesignVec{0.0};
  models[1].d_f = linalg::DesignVec{0.0};
  models[1].grad_d = linalg::DesignVec{0.0};
  models[1].is_mirror = true;
  LinearYieldModel model(models, samples);
  const auto bad = model.bad_samples_per_spec(1);
  EXPECT_NEAR(static_cast<double>(bad[0]) / samples.count(), 0.3173, 0.02);
  EXPECT_NEAR(model.yield(), 1.0 - 0.3173, 0.02);
}

TEST(LinearYieldModel, BestAlphaFindsExactOptimum) {
  // margin_0 = 1 - s0 + alpha (improves with alpha),
  // margin_1 = 1 + s1 - alpha (degrades with alpha).
  // Optimal alpha balances the two: by symmetry alpha* ~ 0... but with
  // different betas the plateau moves.  Use brute force as the oracle.
  const stats::SampleSet samples(2000, 2, 21);
  std::vector<SpecLinearization> models = {
      make_model(0, 0.2, Vector{-1.0, 0.0}, Vector{1.0}, Vector{0.0}),
      make_model(1, 1.8, Vector{0.0, 1.0}, Vector{-1.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  const auto scan = model.best_alpha(0, -3.0, 3.0);

  // Brute-force oracle on a fine grid.
  std::size_t best_count = 0;
  for (double alpha = -3.0; alpha <= 3.0; alpha += 0.001) {
    LinearYieldModel probe(models, samples);
    probe.set_design(linalg::DesignVec{alpha});
    best_count = std::max(best_count, probe.passing());
  }
  EXPECT_EQ(scan.passing, best_count);

  // The returned alpha actually achieves the count.
  LinearYieldModel check(models, samples);
  check.set_design(linalg::DesignVec{scan.alpha});
  EXPECT_EQ(check.passing(), best_count);
}

TEST(LinearYieldModel, BestAlphaPrefersPlateauNearZero) {
  // A model where every sample passes for alpha in [1, 2] OR [-9, -8]...
  // Construct: margin = (s0 shifted) such that intervals are symmetric;
  // simpler: single sample-free check -- all samples pass everywhere in
  // alpha (zero slope), plateau should contain 0 and return alpha = 0.
  const stats::SampleSet samples(100, 1, 2);
  std::vector<SpecLinearization> models = {
      make_model(0, 10.0, Vector{-0.1}, Vector{0.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  const auto scan = model.best_alpha(0, -5.0, 5.0);
  EXPECT_EQ(scan.passing, 100u);
  EXPECT_EQ(scan.alpha, 0.0);
}

TEST(LinearYieldModel, BestAlphaEmptyIntervalThrows) {
  const stats::SampleSet samples(10, 1, 2);
  std::vector<SpecLinearization> models = {
      make_model(0, 1.0, Vector{-1.0}, Vector{1.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  EXPECT_THROW(model.best_alpha(0, 1.0, -1.0), std::invalid_argument);
}

TEST(LinearYieldModel, ZeroYieldWhenHopeless) {
  const stats::SampleSet samples(1000, 1, 4);
  std::vector<SpecLinearization> models = {
      make_model(0, -100.0, Vector{-1.0}, Vector{0.0}, Vector{0.0})};
  LinearYieldModel model(models, samples);
  EXPECT_EQ(model.passing(), 0u);
  const auto scan = model.best_alpha(0, -1.0, 1.0);
  EXPECT_EQ(scan.passing, 0u);
}

TEST(LinearYieldModel, ValidatesConstruction) {
  const stats::SampleSet samples(10, 2, 4);
  EXPECT_THROW(LinearYieldModel({}, samples), std::invalid_argument);
  // Statistical dimension mismatch.
  std::vector<SpecLinearization> bad = {
      make_model(0, 1.0, Vector{-1.0}, Vector{0.0}, Vector{0.0})};
  EXPECT_THROW(LinearYieldModel(bad, samples), std::invalid_argument);
  // Mismatched expansion points.
  std::vector<SpecLinearization> mixed = {
      make_model(0, 1.0, Vector{-1.0, 0.0}, Vector{0.0}, Vector{0.0}),
      make_model(1, 1.0, Vector{-1.0, 0.0}, Vector{0.0}, Vector{1.0})};
  EXPECT_THROW(LinearYieldModel(mixed, samples), std::invalid_argument);
}

// Differential tests: best_alpha against the sort-and-sweep scan it
// replaced, frozen below as the oracle.

/// best_alpha as it was before the linear-time scan: each sample's interval
/// intersected over the models in turn, all 2N ends sorted with opens
/// before closes at equal alpha, then one sweep for the maximum coverage
/// and one for the first plateau nearest 0.  sample_margin is the same
/// base + offset sum the scan reads, so the oracle sees the same bits.
LinearYieldModel::AlphaScan reference_best_alpha(const LinearYieldModel& model,
                                                 std::size_t k,
                                                 double alpha_lo,
                                                 double alpha_hi) {
  if (!(alpha_lo <= alpha_hi))
    throw std::invalid_argument("best_alpha: empty alpha interval");
  struct Event {
    double alpha;
    int delta;
  };
  std::vector<Event> events;
  for (std::size_t j = 0; j < model.num_samples(); ++j) {
    double lo = alpha_lo;
    double hi = alpha_hi;
    bool empty = false;
    for (std::size_t l = 0; l < model.num_models(); ++l) {
      const double margin = model.sample_margin(l, j);
      const double slope = model.models()[l].grad_d[k];
      if (std::abs(slope) < 1e-30) {
        if (margin < 0.0) {
          empty = true;
          break;
        }
        continue;
      }
      const double boundary = -margin / slope;
      if (slope > 0.0)
        lo = std::max(lo, boundary);
      else
        hi = std::min(hi, boundary);
      if (lo > hi) {
        empty = true;
        break;
      }
    }
    if (!empty) {
      events.push_back({lo, +1});
      events.push_back({hi, -1});
    }
  }

  LinearYieldModel::AlphaScan best;
  if (events.empty()) return best;
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.alpha != b.alpha) return a.alpha < b.alpha;
    return a.delta > b.delta;
  });
  long current = 0;
  long best_count = 0;
  for (const Event& event : events) {
    current += event.delta;
    best_count = std::max(best_count, current);
  }
  if (best_count <= 0) return best;
  best.passing = static_cast<std::size_t>(best_count);
  current = 0;
  double chosen_lo = 0.0;
  double chosen_hi = 0.0;
  double chosen_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < events.size(); ++i) {
    current += events[i].delta;
    if (current != best_count) continue;
    const double lo = events[i].alpha;
    const double hi = (i + 1 < events.size()) ? events[i + 1].alpha : lo;
    double distance = 0.0;
    if (lo > 0.0)
      distance = lo;
    else if (hi < 0.0)
      distance = -hi;
    if (distance < chosen_distance) {
      chosen_distance = distance;
      chosen_lo = lo;
      chosen_hi = std::max(lo, hi);
    }
  }
  best.plateau_lo = chosen_lo;
  best.plateau_hi = chosen_hi;
  const double width = chosen_hi - chosen_lo;
  double alpha;
  if (chosen_lo <= 0.0 && chosen_hi >= 0.0)
    alpha = 0.0;
  else if (chosen_lo > 0.0)
    alpha = chosen_lo + 0.1 * width;
  else
    alpha = chosen_hi - 0.1 * width;
  best.alpha = std::clamp(alpha, alpha_lo, alpha_hi);
  return best;
}

/// Scans coordinate k and compares with the oracle: alpha and passing bit
/// for bit, the plateau by value (the oracle's comparison sort leaves the
/// order of -0 and +0 unspecified).  Returns the scan.
LinearYieldModel::AlphaScan expect_reference_scan(LinearYieldModel& model,
                                                  std::size_t k,
                                                  double alpha_lo,
                                                  double alpha_hi) {
  const auto expected = reference_best_alpha(model, k, alpha_lo, alpha_hi);
  const auto actual = model.best_alpha(k, alpha_lo, alpha_hi);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.alpha),
            std::bit_cast<std::uint64_t>(expected.alpha))
      << actual.alpha << " vs " << expected.alpha << " on [" << alpha_lo
      << ", " << alpha_hi << "]";
  EXPECT_EQ(actual.passing, expected.passing);
  EXPECT_EQ(actual.plateau_lo, expected.plateau_lo);
  EXPECT_EQ(actual.plateau_hi, expected.plateau_hi);
  return actual;
}

constexpr double kTwo52 = 4503599627370496.0;  // 2^52

template <typename T, std::size_t N>
T pick(stats::Rng& rng, const T (&values)[N]) {
  return values[rng.below(N)];
}

/// A random model over two statistical parameters and two design
/// parameters; the scans move coordinate 0 and the tests set d = (0, 1).
/// Four kinds, so that ends coincide, sit on the scan bounds or vanish:
///  * generic: random statistical gradient, margin and slope;
///  * quantized: m_wc = 2^52 with design gradient -2^52 on coordinate 1,
///    so at d1 - d_f1 = 1 every margin is an exact integer or half
///    integer: many samples share each end, opens and closes alike;
///  * constant: no statistical gradient, so every sample has the same end
///    at a grid value;
///  * flat: a slope of exactly 0 or below 1e-30 in coordinate 0, which
///    blocks every sample whose margin is negative.
SpecLinearization random_model(stats::Rng& rng, std::size_t spec) {
  const double slopes[] = {-2.0, -1.0, -0.5, 0.5, 1.0, 2.0};
  const double grid[] = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};
  double m_wc = rng.uniform(-1.0, 2.0);
  Vector g_s{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  double slope = rng.uniform(0.2, 2.0) * (rng.below(2) == 0 ? 1.0 : -1.0);
  double g_d1 = 0.0;
  switch (rng.below(4)) {
    case 1:
      m_wc = kTwo52;
      g_d1 = -kTwo52;
      g_s = Vector{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
      slope = pick(rng, slopes);
      break;
    case 2:
      g_s = Vector{0.0, 0.0};
      m_wc = pick(rng, grid);
      slope = pick(rng, slopes);
      break;
    case 3:
      slope = rng.below(2) == 0 ? 0.0 : 3e-31 * rng.uniform(-1.0, 1.0);
      break;
    default:
      break;
  }
  return make_model(spec, m_wc, g_s, Vector{slope, g_d1}, Vector{0.0, 0.0});
}

/// A model whose margin at sample j is exactly margins[j], an integer: the
/// statistical gradient solves S g = margins for the N x N sample matrix,
/// and the 2^52 shift, cancelled by design coordinate 1 at d = (0, 1),
/// rounds the solve's error away.  Scanning coordinate 0 with `slope`
/// puts sample j's end at -margins[j] / slope.
SpecLinearization exact_model(const stats::SampleSet& samples,
                              const Vector& margins, double slope,
                              std::size_t spec) {
  return make_model(spec, kTwo52, linalg::solve(samples.matrix(), margins),
                    Vector{slope, -kTwo52}, Vector{0.0, 0.0});
}

/// A model set whose margins all came out exactly as exact_model meant.
void expect_exact_margins(const LinearYieldModel& model,
                          const std::vector<Vector>& margins) {
  for (std::size_t l = 0; l < margins.size(); ++l)
    for (std::size_t j = 0; j < margins[l].size(); ++j)
      ASSERT_EQ(model.sample_margin(l, j), margins[l][j]) << l << ", " << j;
}

TEST(LinearYieldModelScan, FirstOfTwoEqualPlateausWins) {
  // Two samples with the intervals [-2, -1] and [1, 2]: both plateaus pass
  // one sample at distance 1 from alpha = 0, and the first one wins.
  const stats::SampleSet samples(2, 2, 3);
  const std::vector<Vector> margins = {Vector{2.0, -1.0}, Vector{-1.0, 2.0}};
  LinearYieldModel model({exact_model(samples, margins[0], 1.0, 0),
                          exact_model(samples, margins[1], -1.0, 1)},
                         samples);
  model.set_design(linalg::DesignVec{0.0, 1.0});
  expect_exact_margins(model, margins);
  const auto scan = expect_reference_scan(model, 0, -4.0, 4.0);
  EXPECT_EQ(scan.passing, 1u);
  EXPECT_EQ(scan.plateau_lo, -2.0);
  EXPECT_EQ(scan.plateau_hi, -1.0);
  EXPECT_EQ(scan.alpha, -1.0 - 0.1 * 1.0);
}

TEST(LinearYieldModelScan, MatchesSortAndSweepOnIntegerEnds) {
  // Up to six samples whose ends sit on a grid of quarters, with two to
  // four models: many ends coincide, plateaus on both sides of 0 tie in
  // count and distance, and ends fall on the scan bounds.
  const double slopes[] = {-2.0, -1.0, -0.5, 0.5, 1.0, 2.0};
  const double lows[] = {-4.0, -2.0, -1.0, -0.0, 0.0};
  const double widths[] = {0.0, 1.0, 2.0, 4.0, 8.0};
  stats::Rng rng(23);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial) % 6;
    const stats::SampleSet samples(n, n, 900 + static_cast<std::uint64_t>(trial));
    std::vector<Vector> margins;
    std::vector<SpecLinearization> models;
    const std::size_t count = 2 + rng.below(3);
    for (std::size_t l = 0; l < count; ++l) {
      Vector m(n);
      for (std::size_t j = 0; j < n; ++j)
        m[j] = static_cast<double>(rng.below(9)) - 4.0;
      models.push_back(exact_model(samples, m, pick(rng, slopes), l));
      margins.push_back(m);
    }
    LinearYieldModel model(models, samples);
    model.set_design(linalg::DesignVec{0.0, 1.0});
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n " << n);
    expect_exact_margins(model, margins);
    const double lo = pick(rng, lows);
    expect_reference_scan(model, 0, lo, lo + pick(rng, widths));
  }
}

TEST(LinearYieldModelScan, MatchesSortAndSweepOnRandomModels) {
  // Sample counts from 1 to 5,000, one to five models of mixed kinds, scan
  // bounds on the quantized grid (so ends land exactly on them), -0 among
  // them, and alpha_lo == alpha_hi.
  const double lows[] = {-8.0, -4.0, -2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 1.0};
  const double widths[] = {0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0};
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 10, 25, 100, 1000, 5000};
  stats::Rng rng(2001);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = sizes[static_cast<std::size_t>(trial) % 11];
    const stats::SampleSet samples(n, 2, 100 + static_cast<std::uint64_t>(trial));
    std::vector<SpecLinearization> models;
    const std::size_t count = 1 + rng.below(5);
    for (std::size_t l = 0; l < count; ++l)
      models.push_back(random_model(rng, l));
    LinearYieldModel model(models, samples);
    model.set_design(linalg::DesignVec{0.0, 1.0});
    for (int scan = 0; scan < 4; ++scan) {
      const double lo = pick(rng, lows);
      const double hi = scan == 3 ? lo : lo + pick(rng, widths);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n " << n
                                      << ", scan " << scan);
      expect_reference_scan(model, 0, lo, hi);
    }
  }
}

TEST(LinearYieldModelScan, MatchesSortAndSweepOnConcentratedEnds) {
  // Scan intervals far wider than the spread of the ends put thousands of
  // distinct ends into one value bucket: the scan's O(N log N) case.
  stats::Rng rng(91);
  for (int trial = 0; trial < 6; ++trial) {
    const stats::SampleSet samples(5000, 2, 700 + static_cast<std::uint64_t>(trial));
    std::vector<SpecLinearization> models;
    for (std::size_t l = 0; l < 4; ++l) {
      const double slope = (l % 2 == 0 ? 1.0 : -1.0) * rng.uniform(0.5, 2.0);
      models.push_back(make_model(
          l, rng.uniform(0.0, 3.0),
          Vector{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
          Vector{slope, 0.0}, Vector{0.0, 0.0}));
    }
    LinearYieldModel model(models, samples);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_reference_scan(model, 0, -1e6, 1e6);
    expect_reference_scan(model, 0, -1e6, 0.5);
  }
}

TEST(LinearYieldModelScan, EdgeCases) {
  const stats::SampleSet samples(300, 2, 31);
  const auto scan_of = [&](std::vector<SpecLinearization> models, double lo,
                           double hi) {
    LinearYieldModel model(std::move(models), samples);
    model.set_design(linalg::DesignVec{0.0, 1.0});
    return expect_reference_scan(model, 0, lo, hi);
  };
  // Every sample blocked by a flat failing model: nothing passes.
  auto scan = scan_of({make_model(0, -1.0, Vector{0.0, 0.0}, Vector{0.0, 0.0},
                                  Vector{0.0, 0.0})},
                      -1.0, 1.0);
  EXPECT_EQ(scan.passing, 0u);
  EXPECT_EQ(scan.alpha, 0.0);
  // Every interval outside the scan bounds: margin 5 - alpha < 0 there.
  scan = scan_of({make_model(0, -5.0, Vector{0.0, 0.0}, Vector{1.0, 0.0},
                             Vector{0.0, 0.0})},
                 -1.0, 1.0);
  EXPECT_EQ(scan.passing, 0u);
  // One end shared by every sample, exactly on alpha_hi: the plateau is
  // the single point alpha = 1.
  scan = scan_of({make_model(0, -1.0, Vector{0.0, 0.0}, Vector{1.0, 0.0},
                             Vector{0.0, 0.0})},
                 -1.0, 1.0);
  EXPECT_EQ(scan.passing, 300u);
  EXPECT_EQ(scan.alpha, 1.0);
  EXPECT_EQ(scan.plateau_lo, 1.0);
  EXPECT_EQ(scan.plateau_hi, 1.0);
  // A degenerate scan interval at 0.5: the samples with s0 >= -0.5 pass.
  scan = scan_of({make_model(0, 0.0, Vector{0.5, 0.0}, Vector{0.5, 0.0},
                             Vector{0.0, 0.0})},
                 0.5, 0.5);
  EXPECT_GT(scan.passing, 0u);
  EXPECT_EQ(scan.alpha, 0.5);
  // Every sample opens at -0 and closes at +0: one point plateau at 0.
  scan = scan_of({make_model(0, 0.0, Vector{0.0, 0.0}, Vector{1.0, 0.0},
                             Vector{0.0, 0.0}),
                  make_model(1, 0.0, Vector{0.0, 0.0}, Vector{-1.0, 0.0},
                             Vector{0.0, 0.0})},
                 -2.0, 2.0);
  EXPECT_EQ(scan.passing, 300u);
  EXPECT_EQ(scan.alpha, 0.0);
  EXPECT_EQ(scan.plateau_lo, 0.0);
  EXPECT_EQ(scan.plateau_hi, 0.0);
}

TEST(LinearYieldModelScan, NanBoundariesConstrainNothing) {
  // The middle model's margins overflow: its base reaches +inf for s0 above
  // about 0.8, and design coordinate 1 shifts it by -inf, so those samples
  // get a NaN margin and a NaN boundary.  A NaN boundary leaves the interval
  // the first model opened as it is.
  const stats::SampleSet samples(1000, 1, 17);
  LinearYieldModel model(
      {make_model(0, 0.5, Vector{0.3}, Vector{1.0, 0.0}, Vector{0.0, 0.0}),
       make_model(1, 1e308, Vector{1e308}, Vector{1.0, -1e308},
                  Vector{0.0, 0.0}),
       make_model(2, 1.0, Vector{1.0}, Vector{-1.0, 0.0}, Vector{0.0, 0.0})},
      samples);
  model.set_design(linalg::DesignVec{0.0, 2.0});
  std::size_t nan_margins = 0;
  for (std::size_t j = 0; j < samples.count(); ++j)
    nan_margins += std::isnan(model.sample_margin(1, j)) ? 1 : 0;
  ASSERT_GT(nan_margins, 100u);
  const auto scan = expect_reference_scan(model, 0, -1.0, 1.0);
  EXPECT_EQ(scan.passing, nan_margins);
  EXPECT_GT(scan.plateau_lo, -1.0);
}

TEST(LinearYieldModelScan, RepeatedScansAreIndependent) {
  // The scratch buffers carry nothing from one scan to the next: a scan
  // of a small interval after a large one, and after a design change,
  // matches a fresh model's.
  const stats::SampleSet samples(2000, 2, 41);
  stats::Rng rng(5);
  std::vector<SpecLinearization> models;
  for (std::size_t l = 0; l < 4; ++l) models.push_back(random_model(rng, l));
  LinearYieldModel model(models, samples);
  model.set_design(linalg::DesignVec{0.0, 1.0});
  model.best_alpha(0, -16.0, 16.0);
  model.apply_coordinate(0, 0.25);
  const auto again = model.best_alpha(0, -0.5, 0.5);
  LinearYieldModel fresh(models, samples);
  fresh.set_design(linalg::DesignVec{0.25, 1.0});
  const auto expected = fresh.best_alpha(0, -0.5, 0.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.alpha),
            std::bit_cast<std::uint64_t>(expected.alpha));
  EXPECT_EQ(again.passing, expected.passing);
  EXPECT_EQ(again.plateau_lo, expected.plateau_lo);
  EXPECT_EQ(again.plateau_hi, expected.plateau_hi);
}

}  // namespace
}  // namespace mayo::core
