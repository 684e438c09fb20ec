#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/rng.hpp"

namespace mayo::linalg {
namespace {

TEST(Lu, Solves2x2) {
  Matrixd a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  const Vector x = solve(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(Lud(Matrixd(2, 3)), std::invalid_argument);
}

TEST(Lu, SingularThrows) {
  Matrixd a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(Lud lu(a), SingularMatrixError);
}

TEST(Lu, SingularErrorCarriesPivot) {
  Matrixd a(2, 2);  // all zeros
  try {
    Lud lu(a);
    FAIL() << "expected SingularMatrixError";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.pivot_index(), 0u);
  }
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrixd a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const Vector x = solve(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, Determinant) {
  Matrixd a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  EXPECT_NEAR(Lud(a).determinant(), 5.0, 1e-12);
}

TEST(Lu, DeterminantSignWithPivot) {
  Matrixd a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  EXPECT_NEAR(Lud(a).determinant(), -1.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  stats::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + trial;
    Matrixd a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 2.0;  // diagonal dominance-ish
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
    const Vector b = a * x_true;
    const Vector x = solve(a, b);
    EXPECT_LT(distance(x, x_true), 1e-9) << "trial " << trial;
  }
}

TEST(Lu, SolveReusableForMultipleRhs) {
  Matrixd a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 1;
  a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 5;
  Lud lu(a);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> e(3, 0.0);
    e[k] = 1.0;
    const std::vector<double> x = lu.solve(e);
    // Check A x = e.
    for (int r = 0; r < 3; ++r) {
      double acc = 0.0;
      for (int c = 0; c < 3; ++c) acc += a(r, c) * x[c];
      EXPECT_NEAR(acc, e[r], 1e-12);
    }
  }
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  Matrixc a(2, 2);
  a(0, 0) = C(1, 1); a(0, 1) = C(0, 0);
  a(1, 0) = C(0, 0); a(1, 1) = C(2, -1);
  const VectorC x = solve(a, VectorC{C(2, 0), C(5, 0)});
  EXPECT_NEAR(std::abs(x[0] - C(1, -1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C(2, 1)), 0.0, 1e-12);
}

TEST(Lu, InverseMatchesIdentity) {
  Matrixd a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 0; a(1, 1) = 3; a(1, 2) = 1;
  a(2, 0) = 1; a(2, 1) = 0; a(2, 2) = 4;
  const Matrixd inv = inverse(a);
  const Matrixd id = a * inv;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(id(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, RhsSizeMismatchThrows) {
  Lud lu(Matrixd::identity(2));
  EXPECT_THROW(lu.solve(std::vector<double>(3, 0.0)), std::invalid_argument);
}

Matrixd lu_test_matrix(std::size_t n, double shift) {
  Matrixd a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      a(r, c) = 0.31 * static_cast<double>(r) - 0.77 * static_cast<double>(c) +
                shift + (r == c ? 3.5 : std::sin(0.1 * static_cast<double>(r * c)));
  return a;
}

TEST(Lu, RefactorBitwiseMatchesFactoringConstructor) {
  // The workspace/refactor path promises the exact pivoting and
  // elimination sequence of the constructor, so every factor entry, the
  // determinant and every solve result must agree bit for bit.
  Lud reused;
  for (double shift : {0.0, 1.3, -2.1}) {
    const Matrixd a = lu_test_matrix(5, shift);
    const Lud fresh(a);
    Matrixd& w = reused.workspace(5, /*zero=*/false);
    for (std::size_t r = 0; r < 5; ++r)
      for (std::size_t c = 0; c < 5; ++c) w(r, c) = a(r, c);
    reused.refactor();
    EXPECT_EQ(fresh.determinant(), reused.determinant());
    std::vector<double> b(5);
    for (std::size_t i = 0; i < 5; ++i) b[i] = 0.7 - 0.3 * static_cast<double>(i);
    const std::vector<double> x_fresh = fresh.solve(b);
    std::vector<double> x_reused(5);
    reused.solve_into(b.data(), x_reused.data());
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(x_fresh[i], x_reused[i]);
  }
}

TEST(Lu, WorkspaceResizesAndZeroes) {
  Lud lu;
  Matrixd& w3 = lu.workspace(3);
  EXPECT_EQ(w3.rows(), 3u);
  w3(1, 2) = 7.0;
  // Same size: zeroed by default...
  EXPECT_EQ(lu.workspace(3)(1, 2), 0.0);
  // ...kept when the caller overwrites everything anyway.
  lu.workspace(3, /*zero=*/false)(1, 2) = 9.0;
  EXPECT_EQ(lu.workspace(3, /*zero=*/false)(1, 2), 9.0);
  // Different size: reallocated.
  EXPECT_EQ(lu.workspace(4).rows(), 4u);
}

TEST(Lu, RefactorSingularThrowsAndRecovers) {
  Lud lu;
  lu.workspace(2);  // all zeros -> singular
  EXPECT_THROW(lu.refactor(), SingularMatrixError);
  Matrixd& w = lu.workspace(2);
  w(0, 0) = 1.0;
  w(1, 1) = 2.0;
  lu.refactor();
  EXPECT_EQ(lu.determinant(), 2.0);
}

TEST(Lu, ComplexRefactorBitwiseMatchesConstructor) {
  Matrixc a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      a(r, c) = {0.4 * static_cast<double>(r) + (r == c ? 2.0 : 0.3),
                 0.9 - 0.2 * static_cast<double>(c)};
  const Luc fresh(a);
  Luc reused;
  Matrixc& w = reused.workspace(3, /*zero=*/false);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) w(r, c) = a(r, c);
  reused.refactor();
  VectorC b{{1.0, 0.5}, {-0.25, 2.0}, {0.0, -1.0}};
  const VectorC x_fresh = fresh.solve(b);
  VectorC x_reused(3);
  reused.solve_into(b.data(), x_reused.data());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x_fresh[i], x_reused[i]);
}

// ---------------------------------------------------------------------
// Equivalence with the plain dense kernel.  The production kernel skips
// structural zeros (rows with a zero column-k entry, the zero tail of each
// pivot row, zero L/U entries in the substitutions); it must still compute
// every nonzero entry by the same operations in the same order, pick the
// same pivots and fail at the same step.  Only the sign of an exact zero
// may differ.

// Reference: the plain dense kernel with no structural-zero skipping.
// Every row is eliminated over the full trailing width and every L/U entry
// takes part in the substitutions.
template <typename T>
struct ReferenceLu {
  explicit ReferenceLu(Matrix<T> a) : lu(std::move(a)) {
    const std::size_t n = lu.rows();
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::abs(lu(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = std::abs(lu(r, k));
        if (mag > best) {
          best = mag;
          piv = r;
        }
      }
      if (best == 0.0) {
        singular_at = k;
        return;
      }
      if (piv != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(piv, c));
        std::swap(perm[k], perm[piv]);
        sign = -sign;
      }
      const T pivot = lu(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const T factor = lu(r, k) / pivot;
        lu(r, k) = factor;
        if (factor == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= factor * lu(k, c);
      }
    }
  }

  std::vector<T> solve(const std::vector<T>& b) const {
    const std::size_t n = lu.rows();
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
      x[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
      x[ii] = acc / lu(ii, ii);
    }
    return x;
  }

  T determinant() const {
    T det = static_cast<T>(sign);
    for (std::size_t i = 0; i < lu.rows(); ++i) det *= lu(i, i);
    return det;
  }

  Matrix<T> lu;
  std::vector<std::size_t> perm;
  int sign = 1;
  std::optional<std::size_t> singular_at;
};

// Bitwise equality, except that +0 and -0 count as the same value.
bool same_bits(double a, double b) {
  if (a == 0.0 && b == 0.0) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(std::complex<double> a, std::complex<double> b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

template <typename T>
T draw(stats::Rng& rng, bool integer_valued) {
  auto one = [&] {
    if (!integer_valued) return rng.uniform(-1.0, 1.0);
    // Small nonzero integers: elimination then cancels to exact zeros.
    const double v = static_cast<double>(rng.below(3)) + 1.0;
    return rng.below(2) == 0 ? v : -v;
  };
  if constexpr (std::is_same_v<T, double>) {
    return one();
  } else {
    return T(one(), rng.below(3) == 0 ? 0.0 : one());
  }
}

// Seeded random sparse matrix; every entry is nonzero with probability
// `density`, and the diagonal is nonzero with probability `diag_density`.
template <typename T>
Matrix<T> random_sparse(stats::Rng& rng, std::size_t n, double density,
                        double diag_density, bool integer_valued) {
  Matrix<T> a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < (r == c ? diag_density : density))
        a(r, c) = draw<T>(rng, integer_valued);
  return a;
}

// MNA-shaped system: a conductance (and, for complex T, susceptance)
// network on `nodes` nodes, then one branch row per voltage source with
// +/-1 incidence entries and an exactly zero diagonal.
template <typename T>
Matrix<T> random_mna(stats::Rng& rng, std::size_t nodes, std::size_t branches) {
  const std::size_t n = nodes + branches;
  Matrix<T> a(n, n);
  auto admittance = [&] {
    const double g = rng.uniform(1e-6, 1e-2);
    if constexpr (std::is_same_v<T, double>) {
      return g;
    } else {
      return T(g, rng.below(2) == 0 ? 0.0 : rng.uniform(1e-9, 1e-3));
    }
  };
  // A chain to ground keeps the node block nonsingular; random extra
  // elements add off-diagonal coupling.
  for (std::size_t i = 0; i < nodes; ++i) {
    const T y = admittance();
    a(i, i) += y;
    if (i + 1 < nodes) {
      a(i + 1, i + 1) += y;
      a(i, i + 1) -= y;
      a(i + 1, i) -= y;
    }
  }
  for (std::size_t e = 0; e < nodes; ++e) {
    const std::size_t p = static_cast<std::size_t>(rng.below(nodes));
    const std::size_t q = static_cast<std::size_t>(rng.below(nodes));
    if (p == q) continue;
    const T y = admittance();
    a(p, p) += y;
    a(q, q) += y;
    a(p, q) -= y;
    a(q, p) -= y;
  }
  // Transconductances (MOS-like), which break the symmetry.
  for (std::size_t e = 0; e < nodes / 2; ++e) {
    const std::size_t p = static_cast<std::size_t>(rng.below(nodes));
    const std::size_t q = static_cast<std::size_t>(rng.below(nodes));
    a(p, q) += rng.uniform(-1e-3, 1e-3);
  }
  // Voltage-source branches from distinct nodes to ground or a neighbour.
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t row = nodes + b;
    const std::size_t p = b % nodes;
    a(p, row) = 1.0;
    a(row, p) = 1.0;
    if (rng.below(2) == 0 && p + 1 < nodes) {
      a(p + 1, row) = -1.0;
      a(row, p + 1) = -1.0;
    }
  }
  return a;
}

template <typename T>
void expect_matches_reference(const Matrix<T>& a, Lu<T>& workspace,
                              const std::string& label) {
  const ReferenceLu<T> ref(a);
  std::optional<std::size_t> singular_at;
  std::optional<Lu<T>> fresh;
  try {
    fresh.emplace(a);
  } catch (const SingularMatrixError& e) {
    singular_at = e.pivot_index();
  }
  ASSERT_EQ(ref.singular_at, singular_at) << label;

  // The workspace/refactor path must agree with the constructor.
  const std::size_t n = a.rows();
  Matrix<T>& w = workspace.workspace(n, /*zero=*/false);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) w(r, c) = a(r, c);
  if (singular_at) {
    try {
      workspace.refactor();
      ADD_FAILURE() << label << ": refactor accepted a singular matrix";
    } catch (const SingularMatrixError& e) {
      EXPECT_EQ(e.pivot_index(), *singular_at) << label;
    }
    return;
  }
  workspace.refactor();

  for (const Lu<T>* lu : {&*fresh, &workspace}) {
    EXPECT_EQ(ref.perm, lu->permutation()) << label;
    const Matrix<T>& f = lu->factors();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        ASSERT_TRUE(same_bits(ref.lu(r, c), f(r, c)))
            << label << ": factor entry (" << r << ", " << c << ")";
    EXPECT_TRUE(same_bits(ref.determinant(), lu->determinant())) << label;

    // A dense right-hand side and a sparse one (unit vector), whose
    // substitutions run through long stretches of exact zeros.
    std::vector<T> dense(n);
    for (std::size_t i = 0; i < n; ++i)
      dense[i] = static_cast<T>(0.25 * static_cast<double>(i) - 1.5);
    std::vector<T> unit(n);
    unit[n / 2] = 1.0;
    for (const std::vector<T>* b : {&dense, &unit}) {
      const std::vector<T> x_ref = ref.solve(*b);
      std::vector<T> x(n);
      lu->solve_into(b->data(), x.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(same_bits(x_ref[i], x[i])) << label << ": x[" << i << "]";
    }
  }
}

template <typename T>
void check_random_sparse(std::uint64_t seed) {
  stats::Rng rng(seed);
  Lu<T> workspace;
  std::size_t nonsingular = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(24);
    const double density = rng.uniform(0.05, 0.5);
    const bool integer_valued = trial % 2 == 1;
    const Matrix<T> a = random_sparse<T>(rng, n, density, 0.8, integer_valued);
    expect_matches_reference(a, workspace, "random sparse trial " +
                                               std::to_string(trial));
    if (!ReferenceLu<T>(a).singular_at) ++nonsingular;
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(nonsingular, 60u);
  EXPECT_LT(nonsingular, 290u);
}

TEST(LuEquivalence, RandomSparseReal) { check_random_sparse<double>(2024); }
TEST(LuEquivalence, RandomSparseComplex) {
  check_random_sparse<std::complex<double>>(4048);
}

template <typename T>
void check_mna(std::uint64_t seed) {
  stats::Rng rng(seed);
  Lu<T> workspace;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t nodes = 2 + rng.below(16);
    const std::size_t branches = 1 + rng.below(std::min<std::size_t>(nodes, 4));
    const Matrix<T> a = random_mna<T>(rng, nodes, branches);
    // A zero-diagonal branch row forces a row swap at its step.
    expect_matches_reference(a, workspace, "MNA trial " + std::to_string(trial));
    EXPECT_FALSE(ReferenceLu<T>(a).singular_at) << "MNA trial " << trial;
  }
}

TEST(LuEquivalence, MnaShapedZeroDiagonalBranchRowsReal) { check_mna<double>(7); }
TEST(LuEquivalence, MnaShapedZeroDiagonalBranchRowsComplex) {
  check_mna<std::complex<double>>(11);
}

TEST(LuEquivalence, ForcedRowSwaps) {
  // A diagonally dominant matrix with its rows shuffled: partial pivoting
  // has to swap at almost every step.
  stats::Rng rng(99);
  Lud workspace;
  std::size_t swaps = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 3 + rng.below(14);
    Matrixd d = random_sparse<double>(rng, n, 0.3, 0.0, false);
    for (std::size_t i = 0; i < n; ++i) d(i, i) = 10.0 + rng.uniform();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
    Matrixd a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = d(order[r], c);
    expect_matches_reference(a, workspace, "swap trial " + std::to_string(trial));
    const ReferenceLu<double> ref(a);
    for (std::size_t i = 0; i < n; ++i) swaps += ref.perm[i] != i ? 1 : 0;
  }
  EXPECT_GT(swaps, 200u);
}

TEST(LuEquivalence, PivotRowsWithTrailingZeros) {
  // Lower Hessenberg (row r ends at column r + 1) and block-arrow shapes:
  // the pivot row's nonzero span ends well before column n.
  stats::Rng rng(5);
  Lud workspace;
  Luc zworkspace;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 4 + rng.below(16);
    Matrixd hess(n, n);
    Matrixc zhess(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c <= std::min(r + 1, n - 1); ++c) {
        hess(r, c) = rng.uniform(-1.0, 1.0);
        zhess(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      }
    expect_matches_reference(hess, workspace,
                             "Hessenberg trial " + std::to_string(trial));
    expect_matches_reference(zhess, zworkspace,
                             "complex Hessenberg trial " + std::to_string(trial));

    // Arrow pointing up-left: dense first row and column, diagonal rest.
    // Pivoting on a small (0, 0) moves a short row to the top.
    Matrixd arrow(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      arrow(i, i) = 1.0 + rng.uniform();
      arrow(0, i) = rng.uniform(-1.0, 1.0);
      arrow(i, 0) = rng.uniform(-4.0, 4.0);
    }
    arrow(0, 0) = 1e-3;
    expect_matches_reference(arrow, workspace,
                             "arrow trial " + std::to_string(trial));
  }
}

TEST(LuEquivalence, SingularInputsThrowAtTheSamePivot) {
  Lud workspace;
  // Zero column j: the first j steps succeed, step j has no pivot.
  for (std::size_t j = 0; j < 5; ++j) {
    Matrixd a = lu_test_matrix(5, 0.4);
    for (std::size_t r = 0; r < 5; ++r) a(r, j) = 0.0;
    expect_matches_reference(a, workspace, "zero column " + std::to_string(j));
    try {
      Lud lu(a);
      ADD_FAILURE() << "zero column " << j << " accepted";
    } catch (const SingularMatrixError& e) {
      EXPECT_EQ(e.pivot_index(), j);
    }
  }
  // Two voltage sources in parallel: identical branch rows, which cancel
  // exactly during elimination.
  Matrixd mna(4, 4);
  mna(0, 0) = 1e-3;
  mna(1, 1) = 2e-3;
  mna(0, 2) = 1.0;
  mna(0, 3) = 1.0;
  mna(2, 0) = 1.0;
  mna(3, 0) = 1.0;
  mna(1, 0) = -1e-3;
  mna(0, 1) = -1e-3;
  expect_matches_reference(mna, workspace, "parallel voltage sources");
  EXPECT_TRUE(ReferenceLu<double>(mna).singular_at.has_value());
  // Integer-valued rank-deficient matrices cancel to exact zero pivots.
  stats::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + rng.below(8);
    Matrixd a = random_sparse<double>(rng, n, 0.6, 1.0, true);
    const std::size_t src = static_cast<std::size_t>(rng.below(n));
    const std::size_t dst = (src + 1 + rng.below(n - 1)) % n;
    for (std::size_t c = 0; c < n; ++c) a(dst, c) = -2.0 * a(src, c);
    expect_matches_reference(a, workspace,
                             "dependent rows trial " + std::to_string(trial));
    EXPECT_TRUE(ReferenceLu<double>(a).singular_at.has_value());
  }
}

}  // namespace
}  // namespace mayo::linalg
