#include "core/problem.hpp"

#include <gtest/gtest.h>

#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::Vector;

TEST(Specification, LowerBoundMargin) {
  Specification spec{"gain", SpecKind::kLowerBound, 60.0, "dB", 1.0};
  EXPECT_DOUBLE_EQ(spec.margin(65.0), 5.0);
  EXPECT_DOUBLE_EQ(spec.margin(55.0), -5.0);
}

TEST(Specification, UpperBoundMargin) {
  Specification spec{"power", SpecKind::kUpperBound, 2.0, "mW", 1.0};
  EXPECT_DOUBLE_EQ(spec.margin(1.5), 0.5);
  EXPECT_DOUBLE_EQ(spec.margin(2.5), -0.5);
}

TEST(ParameterSpace, ValidateCatchesInconsistencies) {
  ParameterSpace space;
  space.names = {"a", "b"};
  space.lower = Vector{0.0, 0.0};
  space.upper = Vector{1.0, 1.0};
  space.nominal = Vector{0.5, 0.5};
  EXPECT_NO_THROW(space.validate());

  space.upper = Vector{1.0};
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space.upper = Vector{1.0, -1.0};
  EXPECT_THROW(space.validate(), std::invalid_argument);
  space.upper = Vector{1.0, 1.0};
  space.nominal = Vector{0.5, 2.0};
  EXPECT_THROW(space.validate(), std::invalid_argument);
}

TEST(ParameterSpace, ClampAndContains) {
  ParameterSpace space;
  space.names = {"a", "b"};
  space.lower = Vector{0.0, -1.0};
  space.upper = Vector{1.0, 1.0};
  space.nominal = Vector{0.5, 0.0};
  const Vector clamped = space.clamp(Vector{2.0, -3.0});
  EXPECT_EQ(clamped, (Vector{1.0, -1.0}));
  EXPECT_TRUE(space.contains(Vector{0.5, 0.5}));
  EXPECT_FALSE(space.contains(Vector{1.5, 0.0}));
  EXPECT_TRUE(space.contains(Vector{1.01, 0.0}, 0.05));
  EXPECT_FALSE(space.contains(Vector{0.5}, 0.0));  // wrong size
}

TEST(ParameterSpace, IndexOf) {
  ParameterSpace space;
  space.names = {"x", "y"};
  EXPECT_EQ(space.index_of("y"), 1u);
  EXPECT_THROW(space.index_of("z"), std::out_of_range);
}

TEST(YieldProblem, SyntheticValidates) {
  auto problem = testing::make_synthetic_problem();
  EXPECT_NO_THROW(problem.validate());
  EXPECT_EQ(problem.num_specs(), 2u);
}

TEST(YieldProblem, ValidationCatchesMissingPieces) {
  auto problem = testing::make_synthetic_problem();
  auto broken = testing::make_synthetic_problem();
  broken.model = nullptr;
  EXPECT_THROW(broken.validate(), std::invalid_argument);

  auto no_specs = testing::make_synthetic_problem();
  no_specs.specs.clear();
  EXPECT_THROW(no_specs.validate(), std::invalid_argument);

  auto wrong_count = testing::make_synthetic_problem();
  wrong_count.specs.push_back(
      {"extra", SpecKind::kLowerBound, 0.0, "u", 1.0});
  EXPECT_THROW(wrong_count.validate(), std::invalid_argument);

  auto bad_scale = testing::make_synthetic_problem();
  bad_scale.specs[0].scale = 0.0;
  EXPECT_THROW(bad_scale.validate(), std::invalid_argument);
}

TEST(PerformanceModel, DefaultConstraintNames) {
  testing::SyntheticModel model;
  const auto names = model.constraint_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "c0");
  EXPECT_EQ(names[1], "c1");
}

}  // namespace
}  // namespace mayo::core
