#!/usr/bin/env python3
"""Self-test for tools/lint.py: every rule, positive and suppressed.

Each test builds a throwaway repo tree under a temp directory, runs the
Linter on it, and asserts exactly the expected (rule, file) findings.
The tokenizer gets direct unit tests too, including the cases the old
regex stripper got wrong: suppression markers inside block comments and
raw strings.

Run directly (python3 tools/test_lint.py) or via the `lint_selftest`
ctest.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint  # noqa: E402


def run_lint(root: Path) -> list[tuple[str, int, str, str]]:
    """Runs the Linter silently; returns (file, line, rule, message)."""
    linter = lint.Linter(root)
    with contextlib.redirect_stdout(io.StringIO()):
        code = linter.run()
    assert (code != 0) == bool(linter.violations)
    return linter.violations


def rules_in(violations) -> set[tuple[str, str]]:
    return {(rule, rel) for rel, _, rule, _ in violations}


class TokenizerTest(unittest.TestCase):
    def kinds(self, text: str) -> list[str]:
        return [t.kind for t in lint.tokenize(text)]

    def test_line_and_block_comments(self):
        text = "int a; // trailing\n/* block\nspans */ int b;\n"
        self.assertEqual(self.kinds(text),
                         ["code", "line_comment", "code", "block_comment",
                          "code"])

    def test_string_with_escapes_and_char(self):
        text = 'auto s = "a\\"b // not a comment"; char c = \'/\';\n'
        kinds = self.kinds(text)
        self.assertIn("string", kinds)
        self.assertIn("char", kinds)
        self.assertNotIn("line_comment", kinds)

    def test_digit_separator_is_not_a_char_literal(self):
        text = "const int n = 1'000'000; // fine\n"
        kinds = self.kinds(text)
        self.assertNotIn("char", kinds)
        self.assertEqual(kinds, ["code", "line_comment", "code"])

    def test_raw_string_swallows_comment_syntax(self):
        text = 'auto s = R"(no // comment /* here */)"; int x;\n'
        kinds = self.kinds(text)
        self.assertEqual(kinds, ["code", "raw_string", "code"])

    def test_raw_string_custom_delimiter(self):
        text = 'auto s = R"xy(a )" not the end )xy"; int z;\n'
        tokens = lint.tokenize(text)
        raw = [t for t in tokens if t.kind == "raw_string"]
        self.assertEqual(len(raw), 1)
        self.assertIn("not the end", text[raw[0].start:raw[0].end])

    def test_comments_by_line_maps_block_comment_lines(self):
        sf = lint.SourceFile(Path("x.cpp"),
                             "int a;\n/* one\n two hot-ok: here\n three */\n")
        self.assertNotIn("hot-ok:", sf.comments_by_line.get(2, ""))
        self.assertIn("hot-ok:", sf.comments_by_line.get(3, ""))

    def test_marker_inside_raw_string_is_not_a_comment(self):
        sf = lint.SourceFile(Path("x.cpp"),
                             'auto s = R"(// hot-ok: fake)";\n')
        self.assertFalse(sf.suppressed(1, "hot-ok:"))


class LintRepoTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    # Most fixtures want one clean header to exist so the tree is not empty.
    def write_clean_header(self):
        self.write("src/linalg/clean.hpp",
                   "#pragma once\nnamespace m { int clean_fn(); }\n")

    def test_empty_tree_is_an_error_not_a_pass(self):
        linter = lint.Linter(self.root)
        with contextlib.redirect_stdout(io.StringIO()), \
             contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(linter.run(), 2)

    def test_clean_tree_passes(self):
        self.write_clean_header()
        self.assertEqual(run_lint(self.root), [])

    # -- pragma-once -------------------------------------------------------

    def test_pragma_once_missing_in_header(self):
        self.write("src/linalg/bad.hpp", "namespace m { int f(); }\n")
        self.assertIn(("pragma-once", "src/linalg/bad.hpp"),
                      rules_in(run_lint(self.root)))

    def test_pragma_once_in_cpp_flagged(self):
        self.write_clean_header()
        self.write("src/linalg/bad.cpp", "#pragma once\nint g() { return 1; }\n")
        self.assertIn(("pragma-once", "src/linalg/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_pragma_once_in_comment_does_not_count(self):
        self.write("src/linalg/bad.hpp",
                   "// #pragma once\nnamespace m { int f(); }\n")
        self.assertIn(("pragma-once", "src/linalg/bad.hpp"),
                      rules_in(run_lint(self.root)))

    # -- determinism -------------------------------------------------------

    def test_determinism_flags_random_device(self):
        self.write("src/stats/bad.cpp",
                   "int seed() { return std::random_device{}(); }\n")
        self.assertIn(("determinism", "src/stats/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_determinism_flags_thread_local(self):
        # Ambient TLS would hide per-worker state from the serial==parallel
        # suites and from the analyze.py shared-state census.
        self.write("src/core/bad.cpp",
                   "int counter() { thread_local int n = 0; return ++n; }\n")
        self.assertIn(("determinism", "src/core/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_determinism_thread_local_allowed_outside_src(self):
        self.write_clean_header()
        self.write("bench/scratch.cpp",
                   "int counter() { thread_local int n = 0; return ++n; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_determinism_thread_local_in_comment_ignored(self):
        self.write("src/core/ok.cpp",
                   "// thread_local is banned in library code\n"
                   "int f() { return 0; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_determinism_ignores_comment_and_string(self):
        self.write("src/stats/ok.cpp",
                   '// std::random_device is banned\n'
                   'const char* doc = "std::random_device";\n'
                   'int f() { return 0; }\n')
        self.assertEqual(run_lint(self.root), [])

    # -- io-discipline -----------------------------------------------------

    def test_io_flags_printf_in_library_code(self):
        self.write("src/core/bad.cpp", 'int f() { printf("x"); return 0; }\n')
        self.assertIn(("io-discipline", "src/core/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_io_ignores_printf_inside_string_literal(self):
        self.write("src/core/ok.cpp",
                   'const char* doc = "printf(fmt) is how C prints";\n')
        self.assertEqual(run_lint(self.root), [])

    def test_io_allowed_outside_src(self):
        self.write_clean_header()
        self.write("tools/report.cpp", 'int f() { printf("x"); return 0; }\n')
        self.assertEqual(run_lint(self.root), [])

    def test_io_flags_fstream_in_library_code(self):
        self.write("src/core/bad.cpp",
                   "#include <fstream>\nint f() { return 0; }\n")
        self.assertIn(("io-discipline", "src/core/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_io_flags_cstdio_in_library_code(self):
        self.write("src/sim/bad.cpp",
                   "#include <cstdio>\nint f() { return 0; }\n")
        self.assertIn(("io-discipline", "src/sim/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_io_allowed_in_run_report_sink(self):
        # src/core/run_report.cpp is the sanctioned RunReport JSON sink:
        # file output and snprintf formatting live there by design.
        self.write("src/core/run_report.cpp",
                   "#include <cstdio>\n#include <fstream>\n"
                   "int f() { return 0; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_io_allowed_in_audit_report_sink(self):
        # src/audit/report.cpp is the sanctioned mayo.audit/1 JSON sink.
        self.write("src/audit/report.cpp",
                   "#include <cstdio>\n#include <fstream>\n"
                   "int f() { return 0; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_io_still_policed_elsewhere_in_audit(self):
        self.write("src/audit/connectivity.cpp",
                   "#include <cstdio>\nint f() { return 0; }\n")
        self.assertIn(("io-discipline", "src/audit/connectivity.cpp"),
                      rules_in(run_lint(self.root)))

    # -- include-hygiene / layering ---------------------------------------

    def test_unresolvable_include(self):
        self.write("src/linalg/bad.cpp", '#include "linalg/ghost.hpp"\n')
        self.assertIn(("include-hygiene", "src/linalg/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_layering_violation(self):
        self.write("src/core/top.hpp", "#pragma once\nnamespace m { void core_fn(); }\n")
        self.write("src/linalg/bad.cpp",
                   '#include "core/top.hpp"\nvoid g() { m::core_fn(); }\n')
        self.assertIn(("layering", "src/linalg/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_include_in_comment_ignored(self):
        self.write("src/linalg/ok.cpp",
                   '// #include "core/top.hpp"\nint f() { return 0; }\n')
        self.assertEqual(run_lint(self.root), [])

    def test_obs_usable_from_every_layer(self):
        # obs is the bottom layer: even linalg may include it.
        self.write("src/obs/obs.hpp",
                   "#pragma once\nnamespace m { void obs_count(); }\n")
        self.write("src/linalg/user.cpp",
                   '#include "obs/obs.hpp"\n'
                   "void g() { m::obs_count(); }\n")
        self.write("src/circuits/user.cpp",
                   '#include "obs/obs.hpp"\n'
                   "void h() { m::obs_count(); }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_audit_layer_sits_between_sim_and_spice(self):
        # audit may reach down into spice/circuit; sim and core may reach
        # down into audit.
        self.write("src/spice/parser.hpp",
                   "#pragma once\nnamespace m { void parse_fn(); }\n")
        self.write("src/audit/deck.cpp",
                   '#include "spice/parser.hpp"\n'
                   "void a() { m::parse_fn(); }\n")
        self.write("src/audit/audit.hpp",
                   "#pragma once\nnamespace m { void audit_fn(); }\n")
        self.write("src/sim/dc.cpp",
                   '#include "audit/audit.hpp"\n'
                   "void s() { m::audit_fn(); }\n")
        self.write("src/core/problem_audit.cpp",
                   '#include "audit/audit.hpp"\n'
                   "void c() { m::audit_fn(); }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_audit_must_not_include_sim(self):
        # The audit runs *before* simulation; depending on the solver layer
        # would invert the boundary it guards.
        self.write("src/sim/dc.hpp",
                   "#pragma once\nnamespace m { void solve_fn(); }\n")
        self.write("src/audit/bad.cpp",
                   '#include "sim/dc.hpp"\n'
                   "void a() { m::solve_fn(); }\n")
        self.assertIn(("layering", "src/audit/bad.cpp"),
                      rules_in(run_lint(self.root)))

    def test_obs_must_not_include_upward(self):
        self.write_clean_header()
        self.write("src/obs/bad.hpp",
                   '#pragma once\n#include "linalg/clean.hpp"\n'
                   "namespace m { inline int u() { return clean_fn(); } }\n")
        self.assertIn(("layering", "src/obs/bad.hpp"),
                      rules_in(run_lint(self.root)))

    # -- hot-path-alloc ----------------------------------------------------

    HOT = "src/core/evaluator.cpp"  # member of lint.HOT_FILES

    def test_hot_alloc_in_loop_flagged(self):
        self.write(self.HOT,
                   "void f() {\n"
                   "  for (int i = 0; i < 3; ++i) {\n"
                   "    linalg::Vector tmp(8);\n"
                   "  }\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", self.HOT),
                      rules_in(run_lint(self.root)))

    def test_hot_alloc_suppressed_by_same_line_comment(self):
        self.write(self.HOT,
                   "void f() {\n"
                   "  for (int i = 0; i < 3; ++i) {\n"
                   "    linalg::Vector tmp(8);  // hot-ok: grow-only buffer\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_hot_alloc_covers_is_verification(self):
        # The importance-sampling verifier joined HOT_FILES: its block
        # loop runs once per sample batch and must reuse its buffers.
        self.write("src/core/is_verification.cpp",
                   "void f() {\n"
                   "  for (int b = 0; b < 3; ++b) {\n"
                   "    linalg::Matrixd values(32, 4);\n"
                   "  }\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", "src/core/is_verification.cpp"),
                      rules_in(run_lint(self.root)))

    def test_hot_alloc_is_verification_grow_only_escape(self):
        # The sanctioned pattern: grow-only reallocation under an explicit
        # hot-ok marker (mirrors detail::IsBlockEvaluator::run_block).
        self.write("src/core/is_verification.cpp",
                   "void f() {\n"
                   "  for (int b = 0; b < 3; ++b) {\n"
                   "    values_ = linalg::Matrixd(32, 4);"
                   "  // hot-ok: grow-only, reused\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_hot_alloc_not_suppressed_by_other_block_comment_line(self):
        # The marker lives on a *different* line of a block comment: the
        # old regex stripper used to let this suppress; the tokenizer
        # attributes comment text to physical lines.
        self.write(self.HOT,
                   "void f() {\n"
                   "  /* about this loop:\n"
                   "     hot-ok: (does not apply below) */\n"
                   "  for (int i = 0; i < 3; ++i) {\n"
                   "    linalg::Vector tmp(8);\n"
                   "  }\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", self.HOT),
                      rules_in(run_lint(self.root)))

    def test_hot_alloc_covers_sim_session_files(self):
        # The simulator kernels joined HOT_FILES with the stamp-once AC
        # session; complex buffers (VectorC/Matrixc) count as allocations.
        self.write("src/sim/ac.cpp",
                   "void f() {\n"
                   "  while (g()) {\n"
                   "    linalg::VectorC rhs(8);\n"
                   "    linalg::Matrixc a(8, 8);\n"
                   "  }\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", "src/sim/ac.cpp"),
                      rules_in(run_lint(self.root)))

    def test_hot_alloc_complex_references_not_flagged(self):
        self.write("src/sim/ac.cpp",
                   "void f(linalg::Matrixc& a) {\n"
                   "  while (g()) {\n"
                   "    linalg::Matrixc& w = a;\n"
                   "    linalg::VectorC* p = nullptr;\n"
                   "    use(w, p);\n"
                   "  }\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_hot_alloc_not_suppressed_by_marker_in_string(self):
        self.write(self.HOT,
                   "void f() {\n"
                   "  for (int i = 0; i < 3; ++i) {\n"
                   "    linalg::Vector tmp(8); log(\"// hot-ok: fake\");\n"
                   "  }\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", self.HOT),
                      rules_in(run_lint(self.root)))

    # -- hot-path-alloc: function-scoped LU regions -----------------------

    LU = "src/linalg/lu.hpp"  # member of lint.HOT_REGION_FILES

    def test_hot_region_alloc_in_factor_flagged(self):
        # No loop needed: any allocation inside a numeric factor body
        # counts, even straight-line code.
        self.write(self.LU,
                   "#pragma once\n"
                   "void Lu::factor() {\n"
                   "  scratch_.push_back(lu_(0, 0));\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", self.LU),
                      rules_in(run_lint(self.root)))

    def test_hot_region_alloc_in_solve_into_flagged(self):
        self.write(self.LU,
                   "#pragma once\n"
                   "void Lu::solve_into(const double* b, double* x) const {\n"
                   "  std::vector<double> y(size());\n"
                   "  use(b, x, y);\n"
                   "}\n")
        self.assertIn(("hot-path-alloc", self.LU),
                      rules_in(run_lint(self.root)))

    def test_hot_region_suppressed_by_hot_ok(self):
        self.write(self.LU,
                   "#pragma once\n"
                   "void Lu::factor() {\n"
                   "  perm_.resize(n);  // hot-ok: same size, no allocation\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_hot_region_workspace_setup_may_allocate(self):
        # Sizing the workspace is where allocation belongs; only
        # factor/solve_into are policed.
        self.write(self.LU,
                   "#pragma once\n"
                   "Matrix& Lu::workspace(std::size_t n) {\n"
                   "  perm_.reserve(n);\n"
                   "  scratch_.assign(n, 0.0);\n"
                   "  return lu_;\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_hot_region_call_or_declaration_does_not_open_region(self):
        # `solve_into(...)` as a call and `factor(...);` as a declaration
        # must not police the code that follows them.
        self.write(self.LU,
                   "#pragma once\n"
                   "void Lu::factor();\n"
                   "std::vector<double> Lu::solve(\n"
                   "    const std::vector<double>& b) const {\n"
                   "  std::vector<double> x(b.size());\n"
                   "  solve_into(b.data(), x.data());\n"
                   "  x.resize(b.size());\n"
                   "  return x;\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    # -- hot-path-alloc: the exact coordinate scan ------------------------

    SCAN = "src/core/yield_model.cpp"  # member of lint.HOT_REGION_FILES

    def test_hot_region_alloc_in_best_alpha_flagged(self):
        # A per-scan event vector is the allocation the region forbids.
        self.write(self.SCAN,
                   "LinearYieldModel::AlphaScan LinearYieldModel::best_alpha(\n"
                   "    std::size_t k, double lo, double hi) {\n"
                   "  std::vector<Event> events;\n"
                   "  events.reserve(2 * num_samples());\n"
                   "  return scan(events, k, lo, hi);\n"
                   "}\n")
        flagged = [v for v in run_lint(self.root)
                   if v[2] == "hot-path-alloc" and v[0] == self.SCAN]
        self.assertEqual(len(flagged), 2)

    def test_hot_region_best_alpha_grow_only_scratch_allowed(self):
        # The grow-only scratch carries hot-ok; the constructor and the
        # other members of the file may allocate.
        self.write(self.SCAN,
                   "LinearYieldModel::LinearYieldModel(std::size_t n) {\n"
                   "  rows_.reserve(n);\n"
                   "}\n"
                   "LinearYieldModel::AlphaScan LinearYieldModel::best_alpha(\n"
                   "    std::size_t k, double lo, double hi) {\n"
                   "  if (ends_.size() < n_) {\n"
                   "    ends_.resize(n_);  // hot-ok: grow-only scratch\n"
                   "  }\n"
                   "  return scan(k, lo, hi);\n"
                   "}\n"
                   "std::vector<std::size_t> LinearYieldModel::bad() const {\n"
                   "  std::vector<std::size_t> out;\n"
                   "  out.push_back(0);\n"
                   "  return out;\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    # -- space-discipline --------------------------------------------------

    def test_raw_outside_whitelist_flagged(self):
        self.write("src/core/wc.cpp",
                   "double f(const linalg::DesignVec& d) {\n"
                   "  return d.raw()[0];\n"
                   "}\n")
        self.assertIn(("space-discipline", "src/core/wc.cpp"),
                      rules_in(run_lint(self.root)))

    def test_raw_in_whitelisted_crossing_file_allowed(self):
        self.write("src/stats/covariance.cpp",  # in SPACE_CROSSING_FILES
                   "double f(const linalg::StatUnitVec& s) {\n"
                   "  return s.raw()[0];\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_raw_suppressed_by_space_ok(self):
        self.write("src/core/wc.cpp",
                   "double f(const linalg::DesignVec& d) {\n"
                   "  return d.raw()[0];  // space-ok: kernel interop\n"
                   "}\n")
        self.assertEqual(run_lint(self.root), [])

    def test_raw_marker_in_raw_string_does_not_suppress(self):
        self.write("src/core/wc.cpp",
                   "double f(const linalg::DesignVec& d) {\n"
                   '  log(R"(// space-ok: fake)"); return d.raw()[0];\n'
                   "}\n")
        self.assertIn(("space-discipline", "src/core/wc.cpp"),
                      rules_in(run_lint(self.root)))

    def test_raw_policed_outside_src_too(self):
        self.write_clean_header()
        self.write("tests/test_x.cpp",
                   "double f(const linalg::DesignVec& d) {\n"
                   "  return d.raw()[0];\n"
                   "}\n")
        self.assertIn(("space-discipline", "tests/test_x.cpp"),
                      rules_in(run_lint(self.root)))

    # -- include-graph -----------------------------------------------------

    def test_include_cycle_detected(self):
        self.write("src/linalg/a.hpp",
                   '#pragma once\n#include "linalg/b.hpp"\n'
                   "namespace m { struct AA { BB* other; }; }\n")
        self.write("src/linalg/b.hpp",
                   '#pragma once\n#include "linalg/a.hpp"\n'
                   "namespace m { struct BB { AA* other; }; }\n")
        rules = rules_in(run_lint(self.root))
        self.assertIn("include-graph", {r for r, _ in rules})

    def test_unused_include_flagged(self):
        self.write("src/linalg/util.hpp",
                   "#pragma once\nnamespace m { void frobnicate_widget(); }\n")
        self.write("src/core/user.cpp",
                   '#include "linalg/util.hpp"\n'
                   "int unrelated() { return 42; }\n")
        self.assertIn(("include-graph", "src/core/user.cpp"),
                      rules_in(run_lint(self.root)))

    def test_used_include_not_flagged(self):
        self.write("src/linalg/util.hpp",
                   "#pragma once\nnamespace m { void frobnicate_widget(); }\n")
        self.write("src/core/user.cpp",
                   '#include "linalg/util.hpp"\n'
                   "int f() { m::frobnicate_widget(); return 0; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_unused_include_suppressed_by_include_ok(self):
        self.write("src/linalg/util.hpp",
                   "#pragma once\nnamespace m { void frobnicate_widget(); }\n")
        self.write("src/core/user.cpp",
                   '#include "linalg/util.hpp"  // include-ok: umbrella\n'
                   "int unrelated() { return 42; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_own_header_never_flagged_unused(self):
        self.write("src/core/widget.hpp",
                   "#pragma once\nnamespace m { void widget_api(); }\n")
        self.write("src/core/widget.cpp",
                   '#include "core/widget.hpp"\n'
                   "int helper_only() { return 1; }\n")
        self.assertEqual(run_lint(self.root), [])

    # -- option-assigned ---------------------------------------------------

    OPTS = ("#pragma once\n"
            "struct Inner { int x; };\n"
            "struct InnerOptions { int depth = 2; };\n"
            "struct SolveOptions {\n"
            "  int max_iterations = 50;  ///< Newton iterations\n"
            "  double tolerance{1e-9};\n"
            "  std::function<void(int, double)> on_step;\n"
            "  InnerOptions inner;\n"
            "  static constexpr int kLimit = 3;\n"
            "  int total() const { return max_iterations + 1; }\n"
            "};\n")

    def test_option_assigned_every_field_set_passes(self):
        # Members count once a `.name =` or `->name =` sets them anywhere in
        # the searched trees, e2ebench/ included; a nested ...Options member
        # and the non-data members are exempt.
        self.write("src/core/solve.hpp", self.OPTS)
        self.write("tests/test_solve.cpp",
                   "void f(SolveOptions& o, SolveOptions* p) {\n"
                   "  o.max_iterations = 3;\n"
                   "  p->on_step = nullptr;\n"
                   "  o.inner.depth = 1;\n"
                   "}\n")
        self.write("e2ebench/bm.cpp",
                   "void g(SolveOptions o) { o.tolerance = 1e-6; }\n")
        self.assertEqual(run_lint(self.root), [])

    def test_option_assigned_flags_fields_no_code_sets(self):
        # A comparison, a read, a comment and a string literal are not
        # assignments; an Options struct outside audit/core/sim is not
        # checked.
        self.write("src/sim/solve.hpp", self.OPTS)
        self.write("src/circuits/bench.hpp",
                   "#pragma once\nstruct BenchOptions { int rows = 1; };\n")
        self.write("tests/test_solve.cpp",
                   "// o.tolerance = 1.0;\n"
                   "bool f(SolveOptions& o) {\n"
                   "  log(\"o.on_step = x\");\n"
                   "  return o.max_iterations == 3 && o.tolerance > 0;\n"
                   "}\n")
        flagged = sorted(msg.split(" ")[0] for rel, _, rule, msg
                         in run_lint(self.root) if rule == "option-assigned")
        self.assertEqual(flagged, ["InnerOptions::depth",
                                   "SolveOptions::max_iterations",
                                   "SolveOptions::on_step",
                                   "SolveOptions::tolerance"])


if __name__ == "__main__":
    unittest.main()
