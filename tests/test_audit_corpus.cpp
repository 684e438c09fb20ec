// Corpus-driven audit tests: every deck under tests/audit_corpus/ carries
// an "* expect: ..." header naming the AUD codes it must trigger ("clean"
// for zero findings).  On top of the code assertions, every parseable
// finite-valued deck cross-checks the audit's singularity verdict against
// the actual factorization outcome: predicted singular if and only if the
// factorization fails.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/deck.hpp"
#include "circuit/stamp.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/solver.hpp"

namespace mayo::audit {
namespace {

struct CorpusDeck {
  std::string name;
  std::string text;
  std::vector<std::string> expected_codes;  // empty => expect clean
};

std::vector<CorpusDeck> load_corpus() {
  std::vector<CorpusDeck> decks;
  const std::filesystem::path dir(MAYO_AUDIT_CORPUS_DIR);
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".sp") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    CorpusDeck deck;
    deck.name = path.filename().string();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    deck.text = buffer.str();
    // "* expect: AUD-001 AUD-010" or "* expect: clean" on the first line.
    std::istringstream lines(deck.text);
    std::string line;
    std::getline(lines, line);
    std::istringstream tokens(line);
    std::string token;
    tokens >> token >> token;  // "*" "expect:"
    while (tokens >> token)
      if (token != "clean") deck.expected_codes.push_back(token);
    decks.push_back(std::move(deck));
  }
  return decks;
}

/// Error-severity codes that predict a singular DC system.  AUD-006 is in
/// the set only at error severity (a self-looped resistor is harmless).
bool predicts_singular(const AuditReport& report) {
  static const std::set<std::string> kSingularCodes = {
      "AUD-001", "AUD-003", "AUD-004", "AUD-005",
      "AUD-006", "AUD-010", "AUD-011"};
  for (const Diagnostic& d : report.diagnostics())
    if (d.severity == Severity::kError && kSingularCodes.count(d.code) > 0)
      return true;
  return false;
}

/// Stamps the DC Jacobian at x = 0 (no gmin) and factors it; true when
/// factorization reports a singular system.
bool factorization_fails(const circuit::Netlist& netlist) {
  const std::size_t n = netlist.system_size();
  if (n == 0) return false;
  sim::LinearSystem system;
  linalg::SystemMatrix& jacobian = system.begin(n);
  linalg::Vector x(n);
  linalg::Vector residual(n);
  const circuit::Conditions conditions;
  circuit::DcStamp stamp(x, jacobian, residual, netlist.num_nodes(),
                         conditions);
  for (const auto& device : netlist) device->stamp_dc(stamp);
  try {
    system.factor();
  } catch (const linalg::SingularMatrixError&) {
    return true;
  }
  return false;
}

TEST(AuditCorpus, EveryDeckYieldsItsExpectedCodes) {
  const auto decks = load_corpus();
  ASSERT_GE(decks.size(), 14u);
  for (const CorpusDeck& deck : decks) {
    SCOPED_TRACE(deck.name);
    const DeckAudit result = audit_deck(deck.text);
    if (deck.expected_codes.empty()) {
      EXPECT_TRUE(result.report.empty())
          << deck.name << ": " << result.report.summary() << "; first: "
          << (result.report.empty()
                  ? ""
                  : result.report.diagnostics().front().message);
      continue;
    }
    for (const std::string& code : deck.expected_codes)
      EXPECT_TRUE(result.report.has_code(code))
          << deck.name << " missing " << code << " ("
          << result.report.summary() << ")";
  }
}

TEST(AuditCorpus, ErrorDecksRejectWarnDecksPass) {
  for (const CorpusDeck& deck : load_corpus()) {
    SCOPED_TRACE(deck.name);
    const DeckAudit result = audit_deck(deck.text);
    const bool expect_errors =
        deck.text.find("* verdict: error") != std::string::npos;
    EXPECT_EQ(result.report.has_errors(), expect_errors)
        << deck.name << ": " << result.report.summary();
  }
}

TEST(AuditCorpus, RankPredictorAgreesWithFactorization) {
  for (const CorpusDeck& deck : load_corpus()) {
    SCOPED_TRACE(deck.name);
    const DeckAudit result = audit_deck(deck.text);
    if (!result.circuit) continue;  // AUD-050: nothing to factor
    // NaN values neither trip zero-pivot checks nor compare against
    // bounds; the finiteness rules own that class, not the rank rules.
    if (result.report.has_code("AUD-024")) continue;
    EXPECT_EQ(factorization_fails(*result.circuit->netlist),
              predicts_singular(result.report))
        << deck.name;
  }
}

}  // namespace
}  // namespace mayo::audit
