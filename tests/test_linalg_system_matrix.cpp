#include "linalg/system_matrix.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace mayo::linalg {
namespace {

TEST(SystemMatrix, PatternModeRecordsEveryAddInCallOrder) {
  // The structural audit matches over this list, so a value-zero stamp
  // (a device cut off at x = 0) must still count as a structural nonzero,
  // and a repeated position is recorded every time it is stamped.
  std::vector<std::pair<int, int>> positions;
  SystemMatrix system;
  system.record_pattern(3, positions);
  EXPECT_EQ(system.size(), 3u);
  system.add(0, 1, 2.5);
  system.add(2, 2, 0.0);
  system.add_jomega(1, 0, 0.0);
  system.add(0, 1, -2.5);
  system.add_jomega(1, 0, 1e-12);
  const std::vector<std::pair<int, int>> expected = {
      {0, 1}, {2, 2}, {1, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(positions, expected);
}

}  // namespace
}  // namespace mayo::linalg
