// Parser edge cases: malformed decks must produce located ParseErrors or
// documented exceptions, never an unwrapped invalid_argument or UB.
#include <gtest/gtest.h>

#include "audit/deck.hpp"
#include "spice/parser.hpp"

namespace mayo::spice {
namespace {

std::size_t parse_error_line(const char* deck) {
  try {
    parse_netlist(deck);
  } catch (const ParseError& e) {
    return e.line();
  }
  return 0;
}

TEST(ParserEdgeCases, DeviceConstructorFailuresBecomeParseErrors) {
  // A negative element value is rejected by the Resistor constructor;
  // the parser must relay it as a ParseError with the offending line.
  EXPECT_EQ(parse_error_line("V1 a 0 1\nR1 a 0 -5\n"), 2u);
  // Duplicate device names are rejected by the netlist.
  EXPECT_EQ(parse_error_line("R1 a 0 1k\nR1 a 0 2k\n"), 2u);
  // Zero MOS width is rejected by the Mosfet constructor.
  EXPECT_EQ(parse_error_line(".model n nmos\nVd d 0 1\nM1 d d 0 0 n w=0 l=1u\n"),
            3u);
}

TEST(ParserEdgeCases, MalformedLinesThrowParseError) {
  EXPECT_EQ(parse_error_line("R1 a 0\n"), 1u);            // missing value
  EXPECT_EQ(parse_error_line("R1 a 0 10x\n"), 1u);        // bad suffix
  EXPECT_EQ(parse_error_line("X1 a 0 opamp\n"), 1u);      // unknown element
  EXPECT_EQ(parse_error_line(".tran 1n 1u\n"), 1u);       // bad directive
  EXPECT_EQ(parse_error_line(".model m bjt\n"), 1u);      // bad model type
  EXPECT_EQ(parse_error_line(".model m nmos zap=1\n"), 1u);  // bad param
  EXPECT_EQ(parse_error_line(".model m nmos\nM1 d g s b m\n"), 2u);  // no w/l
  EXPECT_EQ(parse_error_line("M1 d g s b ghost w=1u l=1u\n"), 1u);
  EXPECT_EQ(parse_error_line("V1 a 0 1 ac\n"), 1u);       // not key=value
}

TEST(ParserEdgeCases, EmptyAndCommentOnlyDecksParse) {
  EXPECT_EQ(parse_netlist("").netlist->num_devices(), 0u);
  EXPECT_EQ(parse_netlist("* nothing here\n\n.end\n").netlist->num_devices(),
            0u);
}

TEST(ParserEdgeCases, AuditDeckTurnsParseFailuresIntoAud050) {
  const audit::DeckAudit result = audit::audit_deck("R1 a 0 -5\n");
  EXPECT_FALSE(result.circuit.has_value());
  ASSERT_TRUE(result.report.has_code("AUD-050"));
  const audit::Diagnostic& d = result.report.diagnostics().front();
  EXPECT_EQ(d.subject, "line 1");
  EXPECT_NE(d.message.find("does not parse"), std::string::npos);
}

}  // namespace
}  // namespace mayo::spice
