#include "linalg/vector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mayo::linalg {
namespace {

TEST(Vector, DefaultIsEmpty) {
  Vector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.norm(), 0.0);
  EXPECT_EQ(v.max_abs(), 0.0);
}

TEST(Vector, ConstructsZeroFilled) {
  Vector v(4);
  EXPECT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vector, ConstructsWithValue) {
  Vector v(3, 2.5);
  EXPECT_EQ(v.sum(), 7.5);
}

TEST(Vector, InitializerList) {
  Vector v{1.0, -2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.0);
}

TEST(Vector, AtThrowsOutOfRange) {
  Vector v(2);
  EXPECT_THROW(v.at(2), std::out_of_range);
  EXPECT_NO_THROW(v.at(1));
}

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vector{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vector{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Vector{2.0, 4.0}));
  EXPECT_EQ((2.0 * a), (Vector{2.0, 4.0}));
  EXPECT_EQ((a / 2.0), (Vector{0.5, 1.0}));
  EXPECT_EQ((-a), (Vector{-1.0, -2.0}));
}

TEST(Vector, CompoundOpsMismatchedSizesThrow) {
  Vector a(2);
  Vector b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(distance(a, b), std::invalid_argument);
}

TEST(Vector, DotAndNorms) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  Vector b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 7.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4.0 + 9.0));
}

TEST(Vector, MaxAbs) {
  Vector v{-7.0, 3.0, 5.0};
  EXPECT_EQ(v.max_abs(), 7.0);
}

TEST(Vector, Axpy) {
  EXPECT_EQ(axpy(Vector{1.0, 2.0}, 3.0, Vector{1.0, -1.0}),
            (Vector{4.0, -1.0}));
}

TEST(Vector, UnitVector) {
  Vector e = unit(3, 1);
  EXPECT_EQ(e, (Vector{0.0, 1.0, 0.0}));
  EXPECT_THROW(unit(3, 3), std::out_of_range);
}

TEST(Vector, FillAndResize) {
  Vector v(2);
  v.fill(1.5);
  EXPECT_EQ(v.sum(), 3.0);
  v.resize(4, -1.0);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], -1.0);
}

TEST(Vector, StreamOutput) {
  std::ostringstream os;
  os << Vector{1.0, 2.0};
  EXPECT_EQ(os.str(), "[1, 2]");
}

TEST(Vector, AdoptsStdVector) {
  Vector v(std::vector<double>{5.0, 6.0});
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.std().back(), 6.0);
}

}  // namespace
}  // namespace mayo::linalg
