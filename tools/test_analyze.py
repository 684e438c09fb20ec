#!/usr/bin/env python3
"""Self-test for tools/analyze.py: every rule, positive and suppressed.

Each test builds a throwaway repo tree under a temp directory, runs the
Analyzer on it, and asserts the expected (rule, file) findings -- plus
parser edge cases (raw strings, preprocessor macros, lambdas as entry
points, qualified member calls) and a golden-byte test for the
mayo.analyze/1 certification artifact.

Run directly (python3 tools/test_analyze.py) or via the
`analyze_selftest` ctest.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analyze  # noqa: E402


def run_analyze(root: Path,
                worker_functions: tuple[str, ...] = ()) -> analyze.Analyzer:
    """Runs the Analyzer silently; returns it with violations populated.
    Fixture trees define none of the real worker functions, so the
    worker-coverage list is empty unless a test passes one."""
    analyzer = analyze.Analyzer(root, worker_functions)
    with contextlib.redirect_stdout(io.StringIO()), \
         contextlib.redirect_stderr(io.StringIO()):
        code = analyzer.run()
    assert (code == 1) == bool(analyzer.violations)
    return analyzer


def rules_in(analyzer: analyze.Analyzer) -> set[tuple[str, str]]:
    return {(rule, rel) for rel, _, rule, _ in analyzer.violations}


# A worker thunk (the parallel entry point) that reaches `helper`.
SPAWN_TEMPLATE = """namespace m {{
{decls}
void spawn() {{
  auto worker = [&]() {{  // parallel-entry
    helper();
  }};
  worker();
}}
}}  // namespace m
"""


class AnalyzeRepoTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def test_empty_tree_is_an_error_not_a_pass(self):
        analyzer = analyze.Analyzer(self.root)
        with contextlib.redirect_stdout(io.StringIO()), \
             contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(analyzer.run(), 2)

    def test_clean_tree_passes(self):
        self.write("src/core/clean.cpp",
                   "namespace m {\nint add(int a, int b) { return a + b; }\n"
                   "}  // namespace m\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    # -- static-state-census ------------------------------------------------

    def test_census_flags_mutable_global(self):
        self.write("src/core/bad.cpp",
                   "namespace m {\nint g_count = 0;\n}\n")
        self.assertIn(("static-state-census", "src/core/bad.cpp"),
                      rules_in(run_analyze(self.root)))

    def test_census_accepts_const_constexpr_atomic(self):
        self.write("src/core/ok.cpp",
                   "namespace m {\n"
                   "const int kA = 1;\n"
                   "constexpr double kB = 2.0;\n"
                   "std::atomic<int> g_hits{0};\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        self.assertEqual(analyzer.violations, [])
        kinds = {(v.name, v.mutability) for v in analyzer.statics}
        self.assertEqual(kinds, {("kA", "const"), ("kB", "constexpr"),
                                 ("g_hits", "atomic")})

    def test_census_covers_the_audit_module(self):
        # The static-analysis subsystem is library code like any other:
        # a mutable global in src/audit/ fails the census.
        self.write("src/audit/bad.cpp",
                   "namespace m {\nint g_findings = 0;\n}\n")
        self.assertIn(("static-state-census", "src/audit/bad.cpp"),
                      rules_in(run_analyze(self.root)))

    def test_census_shared_ok_suppresses(self):
        self.write("src/core/ok.cpp",
                   "namespace m {\n"
                   "int g_knob = 0;  // shared-ok: guarded by init mutex\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_census_flags_class_static_but_not_instance_member(self):
        self.write("src/core/cls.cpp",
                   "namespace m {\n"
                   "struct S {\n"
                   "  static int counter;\n"
                   "  static constexpr int kLimit = 3;\n"
                   "  int member = 0;\n"
                   "};\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        self.assertIn(("static-state-census", "src/core/cls.cpp"),
                      rules_in(analyzer))
        names = {v.name for v in analyzer.statics}
        self.assertIn("counter", names)
        self.assertNotIn("member", names)

    def test_census_flags_function_local_static(self):
        self.write("src/core/loc.cpp",
                   "namespace m {\n"
                   "int next_id() {\n"
                   "  static int id = 0;\n"
                   "  return ++id;\n"
                   "}\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        self.assertIn(("static-state-census", "src/core/loc.cpp"),
                      rules_in(analyzer))
        self.assertEqual(analyzer.statics[0].storage, "local-static")

    def test_census_ignores_static_cast_and_static_assert(self):
        self.write("src/core/ok.cpp",
                   "namespace m {\n"
                   "int f(long v) {\n"
                   "  static_assert(sizeof(v) >= 4);\n"
                   "  return static_cast<int>(v);\n"
                   "}\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    # -- parallel-purity: shared-state writes -------------------------------

    def test_purity_flags_write_reachable_from_entry_with_chain(self):
        self.write("src/core/race.cpp", SPAWN_TEMPLATE.format(
            decls="int g_count = 0;  // shared-ok: declared, but writes race\n"
                  "void helper() { g_count += 1; }"))
        analyzer = run_analyze(self.root)
        self.assertIn(("parallel-purity", "src/core/race.cpp"),
                      rules_in(analyzer))
        message = [m for _, _, rule, m in analyzer.violations
                   if rule == "parallel-purity"][0]
        # The diagnostic names the full call chain, entry point first.
        self.assertIn("m::spawn::lambda@", message)
        self.assertIn("->", message)
        self.assertIn("m::helper", message)
        self.assertIn("src/core/race.cpp:", message)

    def test_purity_ignores_write_in_unreachable_function(self):
        self.write("src/core/ok.cpp",
                   "namespace m {\n"
                   "int g_count = 0;  // shared-ok: serial-only tuning knob\n"
                   "void serial_only() { g_count += 1; }\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_purity_shared_ok_on_write_line_suppresses(self):
        self.write("src/core/ok.cpp", SPAWN_TEMPLATE.format(
            decls="int g_count = 0;  // shared-ok: merged after join\n"
                  "void helper() {\n"
                  "  g_count += 1;  // shared-ok: disjoint per-worker slot\n"
                  "}"))
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_purity_exempts_src_obs(self):
        self.write("src/obs/hub.cpp", SPAWN_TEMPLATE.format(
            decls="int g_obs = 0;  // shared-ok: relaxed counter stand-in\n"
                  "void helper() { g_obs += 1; }"))
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_purity_entry_marker_on_named_function(self):
        self.write("src/core/race.cpp",
                   "namespace m {\n"
                   "int g_n = 0;  // shared-ok: census satisfied\n"
                   "void helper() { g_n = 7; }\n"
                   "// parallel-entry\n"
                   "void worker_main() { helper(); }\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        self.assertIn(("parallel-purity", "src/core/race.cpp"),
                      rules_in(analyzer))
        self.assertEqual(analyzer.artifact()["entry_points"],
                         ["m::worker_main"])

    def test_purity_follows_qualified_member_calls(self):
        self.write("src/core/eng.cpp", SPAWN_TEMPLATE.format(
            decls="struct Engine { void step(); };\n"
                  "int g_ticks = 0;  // shared-ok: census satisfied\n"
                  "void Engine::step() { g_ticks += 1; }\n"
                  "void helper() { Engine e; e.step(); }"))
        analyzer = run_analyze(self.root)
        self.assertIn(("parallel-purity", "src/core/eng.cpp"),
                      rules_in(analyzer))
        reachable = {f["name"] for f in analyzer.artifact()["functions"]
                     if f["reachable"]}
        self.assertIn("m::Engine::step", reachable)

    # -- parallel-purity: banned non-reentrant calls ------------------------

    def test_purity_flags_banned_call_in_reachable_code(self):
        self.write("src/core/rng.cpp", SPAWN_TEMPLATE.format(
            decls="int helper() { return std::rand(); }"))
        analyzer = run_analyze(self.root)
        self.assertIn(("parallel-purity", "src/core/rng.cpp"),
                      rules_in(analyzer))
        message = [m for _, _, rule, m in analyzer.violations][0]
        self.assertIn("std::rand", message)

    def test_purity_banned_call_unreachable_is_fine(self):
        self.write("src/core/ok.cpp",
                   "namespace m {\n"
                   "int serial_only() { return std::rand(); }\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_purity_banned_call_shared_ok_suppresses(self):
        self.write("src/core/ok.cpp", SPAWN_TEMPLATE.format(
            decls="int helper() {\n"
                  "  return std::rand();  // shared-ok: seeded per worker\n"
                  "}"))
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_purity_member_named_like_banned_function_is_fine(self):
        self.write("src/core/ok.cpp", SPAWN_TEMPLATE.format(
            decls="struct Rng { int rand() { return 4; } };\n"
                  "int helper() { Rng r; return r.rand(); }"))
        # `.rand()` is a member call on a worker-owned object, not the
        # C library's hidden-state generator.
        self.assertEqual(run_analyze(self.root).violations, [])

    # -- atomic-discipline --------------------------------------------------

    def test_atomic_without_memory_order_is_flagged(self):
        self.write("src/core/at.cpp",
                   "namespace m {\n"
                   "std::atomic<int> g_hits{0};\n"
                   "void touch() { g_hits.store(1); }\n"
                   "}\n")
        self.assertIn(("atomic-discipline", "src/core/at.cpp"),
                      rules_in(run_analyze(self.root)))

    def test_atomic_with_explicit_order_passes(self):
        self.write("src/core/at.cpp",
                   "namespace m {\n"
                   "std::atomic<int> g_hits{0};\n"
                   "void touch() { g_hits.store(1, std::memory_order_relaxed); }\n"
                   "int peek() { return g_hits.load(std::memory_order_relaxed); }\n"
                   "int bump() { return g_hits.fetch_add(1, std::memory_order_relaxed); }\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    def test_atomic_memory_order_ok_suppresses(self):
        self.write("src/core/at.cpp",
                   "namespace m {\n"
                   "std::atomic<int> g_flag{0};\n"
                   "void raise() {\n"
                   "  g_flag.store(1);  // memory-order-ok: seq_cst intended\n"
                   "}\n"
                   "}\n")
        self.assertEqual(run_analyze(self.root).violations, [])

    # -- parser edge cases --------------------------------------------------

    def test_raw_string_is_not_code(self):
        self.write("src/core/raw.cpp",
                   "namespace m {\n"
                   'const char* kSrc = R"(void fake_fn() { std::rand(); })";\n'
                   "int real_fn() { return 1; }\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        names = {f.name for f in analyzer.functions}
        self.assertEqual(names, {"m::real_fn"})
        self.assertEqual(analyzer.violations, [])

    def test_entry_marker_inside_raw_string_is_ignored(self):
        self.write("src/core/raw.cpp",
                   "namespace m {\n"
                   'const char* kDoc = R"(// parallel-entry)";\n'
                   "void innocuous() { }\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        self.assertEqual(analyzer.artifact()["entry_points"], [])

    def test_preprocessor_macro_is_not_a_function(self):
        self.write("src/core/mac.cpp",
                   "#define CHECK(cond) \\\n"
                   "  do { (void)(cond); } while (0)\n"
                   "namespace m {\n"
                   "void real_fn() { CHECK(1 > 0); }\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        names = {f.name for f in analyzer.functions}
        self.assertEqual(names, {"m::real_fn"})

    def test_operator_call_is_a_function(self):
        self.write("src/core/op.cpp",
                   "namespace m {\n"
                   "struct F {\n"
                   "  int operator()() const { return 3; }\n"
                   "  bool operator==(const F&) const { return true; }\n"
                   "};\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        names = {f.name for f in analyzer.functions}
        self.assertEqual(names, {"m::F::operator()", "m::F::operator=="})
        self.assertEqual(analyzer.violations, [])

    def test_nested_lambda_bodies_are_attributed_separately(self):
        self.write("src/core/lam.cpp", SPAWN_TEMPLATE.format(
            decls="void helper() { }"))
        analyzer = run_analyze(self.root)
        by_name = {f.name: f for f in analyzer.functions}
        spawn = by_name["m::spawn"]
        lam = next(f for f in analyzer.functions if f.is_lambda)
        self.assertTrue(lam.parallel_entry)
        self.assertFalse(spawn.parallel_entry)
        # helper() is called from the lambda body, not from spawn's own.
        self.assertIn("helper", [c.name for c in lam.calls])
        self.assertNotIn("helper", [c.name for c in spawn.calls])

    # -- worker-coverage ----------------------------------------------------

    # A pool whose thread thunk calls only body(...), and a phase handing
    # it a worker body that runs Engine::run_block.
    POOL_TEMPLATE = """namespace m {{
struct Engine {{ void run_block(int b); }};
void Engine::run_block(int b) {{ (void)b; }}
template <class Body> void pool_run(const Body& body) {{
  auto thunk = [&]() {{  {thunk_marker}
    body(0);
  }};
  thunk();
}}
void phase() {{
  Engine engine;
  pool_run([&](int b) {{  {body_marker}
    engine.run_block(b);
  }});
}}
}}  // namespace m
"""

    def test_worker_coverage_flags_a_marker_on_the_pool_thunk(self):
        # Name-wise resolution cannot follow body(...) into the phase's
        # lambda: the marked thunk certifies nothing the workers run.
        self.write("src/core/pool.cpp", self.POOL_TEMPLATE.format(
            thunk_marker="// parallel-entry", body_marker=""))
        analyzer = run_analyze(self.root, ("Engine::run_block",))
        self.assertEqual(rules_in(analyzer),
                         {("worker-coverage", "src/core/pool.cpp")})
        message = analyzer.violations[0][3]
        self.assertIn("m::Engine::run_block", message)

    def test_worker_coverage_passes_with_marked_worker_bodies(self):
        self.write("src/core/pool.cpp", self.POOL_TEMPLATE.format(
            thunk_marker="", body_marker="// parallel-entry"))
        self.assertEqual(
            run_analyze(self.root, ("Engine::run_block",)).violations, [])

    def test_worker_coverage_flags_an_undefined_worker_function(self):
        # A renamed worker function must update the list, not drop out.
        self.write("src/core/pool.cpp", self.POOL_TEMPLATE.format(
            thunk_marker="", body_marker="// parallel-entry"))
        analyzer = run_analyze(self.root,
                               ("Engine::run_block", "Engine::step"))
        self.assertEqual(rules_in(analyzer),
                         {("worker-coverage", "tools/analyze.py")})
        self.assertIn("Engine::step", analyzer.violations[0][3])

    def test_worker_coverage_defaults_to_the_real_worker_functions(self):
        # The ctest and CI run the analyzer with the default list.
        self.write("src/core/clean.cpp",
                   "namespace m {\nint add(int a, int b) { return a + b; }\n"
                   "}  // namespace m\n")
        analyzer = analyze.Analyzer(self.root)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(analyzer.run(), 1)
        missing = sorted(m for _, _, rule, m in analyzer.violations
                         if rule == "worker-coverage")
        self.assertEqual(len(missing), len(analyze.WORKER_FUNCTIONS))
        self.assertIn("find_worst_case_point", analyze.WORKER_FUNCTIONS)

    # -- artifacts ----------------------------------------------------------

    def test_golden_byte_artifact(self):
        self.write("src/core/tiny.cpp",
                   "namespace m {\n"
                   "constexpr int kOne = 1;\n"
                   "int add_one(int x) { return x + kOne; }\n"
                   "}\n")
        analyzer = run_analyze(self.root)
        out = self.root / "analyze.json"
        analyze.write_json(analyzer.artifact(), out)
        expected = {
            "schema": "mayo.analyze/1",
            "entry_points": [],
            "summary": {
                "files": 1,
                "functions": 1,
                "edges": 0,
                "reachable": 0,
                "statics": 1,
                "violations": 0,
            },
            "certified": True,
            "functions": [{
                "name": "m::add_one",
                "file": "src/core/tiny.cpp",
                "line": 3,
                "kind": "function",
                "parallel_entry": False,
                "reachable": False,
                "calls": [],
            }],
            "statics": [{
                "name": "kOne",
                "file": "src/core/tiny.cpp",
                "line": 2,
                "storage": "global",
                "mutability": "constexpr",
                "shared_ok": False,
            }],
            "violations": [],
        }
        golden = (json.dumps(expected, indent=2) + "\n").encode()
        self.assertEqual(out.read_bytes(), golden)
        # Byte-determinism: a fresh run serializes identically.
        again = run_analyze(self.root)
        analyze.write_json(again.artifact(), out)
        self.assertEqual(out.read_bytes(), golden)

    def test_graph_dot_highlights_certified_slice(self):
        self.write("src/core/g.cpp", SPAWN_TEMPLATE.format(
            decls="void helper() { }"))
        analyzer = run_analyze(self.root)
        dot = analyzer.to_dot()
        self.assertIn("digraph callgraph", dot)
        self.assertIn("->", dot)
        self.assertIn("#ffd37f", dot)  # entry point fill


if __name__ == "__main__":
    unittest.main()
