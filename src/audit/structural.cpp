#include "audit/structural.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "circuit/mna_names.hpp"
#include "circuit/stamp.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::audit {
namespace {

/// Kuhn's augmenting-path step: try to match `row` to some column,
/// displacing previous matches along alternating paths.
bool try_match(int row, const std::vector<std::vector<int>>& cols_of_row,
               std::vector<char>& visited, std::vector<int>& match_of_col) {
  for (const int col : cols_of_row[static_cast<std::size_t>(row)]) {
    if (visited[col]) continue;
    visited[col] = 1;
    if (match_of_col[col] < 0 ||
        try_match(match_of_col[col], cols_of_row, visited, match_of_col)) {
      match_of_col[col] = row;
      return true;
    }
  }
  return false;
}

}  // namespace

void audit_structural(const circuit::Netlist& netlist, AuditReport& report) {
  const std::size_t n = netlist.system_size();
  if (n == 0) return;

  // Stamp at x = 0 in pattern mode: every add (including exact zeros from
  // cut-off devices) is recorded, so this is the structural nonzero set
  // of the DC Jacobian for any operating point.
  std::vector<std::pair<int, int>> positions;
  linalg::SystemMatrix system;
  system.record_pattern(n, positions);
  linalg::Vector x(n);
  linalg::Vector residual(n);
  const circuit::Conditions conditions;
  circuit::DcStamp stamp(x, system, residual, netlist.num_nodes(), conditions);
  for (const auto& device : netlist) device->stamp_dc(stamp);

  // Columns of each row in ascending order: the matching visits them in
  // this order, which fixes the columns an AUD-011 names.
  std::vector<std::vector<int>> cols_of_row(n);
  for (const auto& [row, col] : positions)
    cols_of_row[static_cast<std::size_t>(row)].push_back(col);
  for (std::vector<int>& cols : cols_of_row)
    std::sort(cols.begin(), cols.end());

  // Maximum bipartite matching = exact structural rank.
  std::vector<int> match_of_col(n, -1);
  std::vector<char> matched_row(n, 0);
  for (std::size_t row = 0; row < n; ++row) {
    std::vector<char> visited(n, 0);
    if (try_match(static_cast<int>(row), cols_of_row, visited, match_of_col))
      matched_row[row] = 1;
  }

  for (std::size_t row = 0; row < n; ++row) {
    if (matched_row[row]) continue;
    report.add({
        "AUD-010",
        Severity::kError,
        "equation '" + circuit::mna_equation_name(netlist, row) +
            "' cannot be structurally assigned an unknown; the MNA matrix "
            "is rank-deficient",
        "equation",
        circuit::mna_equation_name(netlist, row),
        "the equation has too few (or shared) nonzero entries; check the "
        "connectivity findings for the underlying cause",
    });
  }
  for (std::size_t col = 0; col < n; ++col) {
    if (match_of_col[col] >= 0) continue;
    report.add({
        "AUD-011",
        Severity::kError,
        "unknown '" + circuit::mna_unknown_name(netlist, col) +
            "' is structurally undetermined: no equation can solve for it",
        "unknown",
        circuit::mna_unknown_name(netlist, col),
        "no device couples this unknown into a usable equation; check the "
        "connectivity findings for the underlying cause",
    });
  }
}

}  // namespace mayo::audit
