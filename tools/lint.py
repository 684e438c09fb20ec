#!/usr/bin/env python3
"""Project lint: mechanical repo invariants, run as a ctest.

The analyzer is token-aware: every file is first split into CODE /
COMMENT / STRING tokens by a character-level C++ scanner (line and block
comments, string / char / raw-string literals, digit separators), and
each rule then works on the view it needs.  Pattern rules see only real
code -- a "rand(" inside a string literal or a comment can no longer
trip them -- and rule suppressions (``// hot-ok:``, ``// space-ok:``,
``// include-ok:``) count only when they come from a genuine comment
token on the offending line: a marker quoted inside a raw string, or
buried on a different line of a block comment, does not suppress.

Checks (each with a rule id, so suppressing or extending one is a
one-line diff below):

  pragma-once       every header starts guard-free with #pragma once
                    (and no .cpp file carries one)
  determinism       library code (src/) must not seed from entropy or the
                    wall clock: no std::random_device, rand()/srand(),
                    time(...), system_clock / high_resolution_clock.
                    Monte-Carlo yield numbers must be bit-reproducible;
                    steady_clock is allowed (elapsed-time reporting only).
                    thread_local is banned too: per-worker state must be
                    an explicit worker-owned object (cloned model +
                    evaluator), never ambient TLS that the serial==parallel
                    bitwise guarantee cannot see.
  io-discipline     library code must not write to stdout/stderr or open
                    files: no <iostream>/<fstream>/<cstdio> includes, no
                    std::cout/cerr/clog, no printf-family calls.
                    Reporting belongs to the IO_ALLOWLIST sinks --
                    src/core/report.cpp (string/ostream builders),
                    src/core/run_report.cpp (the structured obs
                    RunReport JSON) and src/audit/report.cpp (the
                    mayo.audit/1 artifact writer) -- and to the
                    bench/example/tool binaries.
  include-hygiene   project includes are quoted and module-qualified
                    ("linalg/vector.hpp"), resolve to an existing file,
                    and never use "../" escapes; system includes use <>.
  layering          src/ modules only include headers of modules below
                    them: obs < linalg < {stats, circuit} < spice <
                    audit < {sim, core} < circuits.  obs
                    (observation-only counters and spans, no project
                    includes) sits at the bottom and is usable from
                    every layer; audit sits above the circuit/deck
                    representations it inspects and below the engines
                    that enforce it at their boundaries.  The one
                    sanctioned exception is core/check.hpp
                    (dependency-free contract macros, usable from every
                    layer).
  hot-path-alloc    the batched evaluation hot path (HOT_FILES below,
                    including the simulator kernels under src/sim/) must
                    not construct linalg::Vector, Matrixd, Matrixc or
                    VectorC inside a loop -- workspaces are allocated
                    once and reused.  The LU kernel (HOT_REGION_FILES)
                    gets a function-scoped variant: inside the
                    Lu::factor / solve_into bodies -- the
                    per-Newton-iteration / per-probe paths -- no
                    allocating call at all (push_back, resize, reserve,
                    operator new, vector construction, ...); the rest
                    of the file (workspace sizing, the allocating
                    convenience solve) may allocate.  Deliberate
                    exceptions (grow-only buffers, handing ownership to
                    a cache) carry a "// hot-ok: <reason>" comment on
                    the same line.
  space-discipline  .raw() -- the only way out of the tagged vector-space
                    layer (src/linalg/spaces.hpp) -- is confined to the
                    whitelisted crossing sites (SPACE_CROSSING_FILES) the
                    paper defines; anywhere else an untagging needs a
                    "// space-ok: <reason>" comment on the same line, so
                    every escape from the type system stays greppable.
  include-graph     the project include DAG must be acyclic, and every
                    quoted src/ include of a src/ file must be used: some
                    name the header declares has to appear in the
                    including file.  Umbrella includes kept on purpose
                    carry "// include-ok: <reason>".

Usage: python3 tools/lint.py [--root REPO_ROOT]
Exits non-zero and prints file:line: [rule] message for each violation.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# The character-level C++ scanner is shared with tools/analyze.py (the
# concurrency-purity analyzer); re-exported here so existing importers
# (tools/test_lint.py) keep working unchanged.
from cpp_tokens import (  # noqa: E402,F401
    BLOCK_COMMENT, CHAR, CODE, COMMENT_KINDS, LINE_COMMENT, LITERAL_KINDS,
    RAW_STRING, STRING, SourceFile, Token, tokenize)

SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
CPP_EXT = {".cpp", ".hpp"}

# Module layering inside src/: module -> modules it may include from.
# obs (observation-only instrumentation) is the bottom layer, usable from
# everywhere; core/check.hpp is allowed everywhere (see module docstring).
LAYERS = {
    "obs": {"obs"},
    "linalg": {"linalg", "obs"},
    "stats": {"stats", "linalg", "obs"},
    "circuit": {"circuit", "linalg", "obs"},
    "spice": {"spice", "circuit", "linalg", "obs"},
    "audit": {"audit", "spice", "circuit", "linalg", "obs"},
    "sim": {"sim", "audit", "circuit", "linalg", "obs"},
    "core": {"core", "audit", "stats", "linalg", "obs"},
    "circuits": {"circuits", "core", "sim", "spice", "audit", "circuit",
                 "stats", "linalg", "obs"},
}
CHECK_HEADER = "core/check.hpp"

# Files in src/ allowed to perform I/O (console or file): the text-report
# builders and the structured RunReport / audit JSON sinks.
IO_ALLOWLIST = {"src/core/report.cpp", "src/core/run_report.cpp",
                "src/audit/report.cpp"}

# Files forming the batched evaluation hot path: no per-iteration
# Vector/Matrixd construction (see hot-path-alloc in the module docstring).
HOT_FILES = {
    "src/core/evaluator.cpp",
    "src/core/verification.cpp",
    "src/core/is_verification.cpp",
    "src/core/yield_model.cpp",
    # Simulator kernels under the per-sample loop: every Newton iteration
    # and AC frequency probe runs through these.
    "src/sim/ac.cpp",
    "src/sim/dc.cpp",
    "src/sim/measure.cpp",
    "src/sim/transient.cpp",
}

# Function-scoped hot regions: the LU factor/solve bodies run once per
# Newton iteration / AC probe and must stay allocation-free once the
# workspace has its size; the rest of the file may allocate.  file ->
# function names whose bodies are policed.
HOT_REGION_FILES = {
    "src/linalg/lu.hpp": ("factor", "solve_into"),
}

# Any allocating call inside a hot-region function body: container
# growth, explicit new, or a fresh std::vector.
HOT_REGION_ALLOC_RE = re.compile(
    r"\b(?:push_back|emplace_back|resize|reserve|assign|insert)\s*\("
    r"|\bnew\b|\bstd::vector\s*<")

# The sanctioned .raw() sites of the tagged-space layer: the wrapper
# itself plus the named crossings of paper eq. (11)/(14) -- the
# covariance transform, the sampler (mints StatUnit), and the evaluator
# (drives models and owns the batch kernels).  Everywhere else .raw()
# needs a same-line "// space-ok: <reason>".
SPACE_CROSSING_FILES = {
    "src/linalg/spaces.hpp",
    "src/core/evaluator.cpp",
    "src/stats/covariance.cpp",
    "src/stats/sampler.cpp",
}

# A Vector/Matrixd/Matrixc/VectorC object or temporary being constructed
# (declarations and functional casts; references, pointers and nested
# template mentions are not constructions).  VectorC/Matrixc are listed
# before their prefixes so the alternation matches the full name.
HOT_ALLOC_RE = re.compile(
    r"\b(?:linalg::)?(?:VectorC|Vector|Matrixd|Matrixc)\b"
    r"(?!\s*[&*>,)])(?:\s*[({]|\s+\w)")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
RAW_CALL_RE = re.compile(r"(?:\.|->)\s*raw\s*\(")

DETERMINISM_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"std::time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time()"),
    (re.compile(r"std::chrono::system_clock"), "system_clock"),
    (re.compile(r"std::chrono::high_resolution_clock"), "high_resolution_clock"),
    # Ambient TLS hides per-worker state from the serial==parallel bitwise
    # suites and from tools/analyze.py's shared-state census: worker state
    # must be an explicit worker-owned object.
    (re.compile(r"\bthread_local\b"), "thread_local"),
]

IO_PATTERNS = [
    (re.compile(r"#\s*include\s*<iostream>"), "#include <iostream>"),
    (re.compile(r"#\s*include\s*<fstream>"), "#include <fstream>"),
    (re.compile(r"#\s*include\s*<cstdio>"), "#include <cstdio>"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w.])f?printf\s*\("), "printf family"),
    (re.compile(r"(?<![\w.])f?puts\s*\("), "puts family"),
]

# ---------------------------------------------------------------------------
# Declared-name extraction for the unused-include heuristic.
# ---------------------------------------------------------------------------

CPP_KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "consteval", "constexpr", "constinit",
    "continue", "decltype", "default", "delete", "do", "double", "else",
    "enum", "explicit", "export", "extern", "false", "float", "for",
    "friend", "goto", "if", "inline", "int", "long", "mutable", "namespace",
    "new", "noexcept", "nullptr", "operator", "private", "protected",
    "public", "register", "requires", "return", "short", "signed", "sizeof",
    "static", "struct", "switch", "template", "this", "throw", "true", "try",
    "typedef", "typeid", "typename", "union", "unsigned", "using", "virtual",
    "void", "volatile", "while", "static_assert", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "defined",
}

DECL_PATTERNS = [
    re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)"),
    re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)"),
    re.compile(r"#\s*define\s+([A-Za-z_]\w*)"),
    re.compile(r"\busing\s+([A-Za-z_]\w*)\s*="),
    re.compile(r"\btypedef\b[^;]*?\b([A-Za-z_]\w*)\s*;"),
    # Functions -- declared, defined or called in inline code; extra
    # names only make the heuristic more conservative.
    re.compile(r"\b([A-Za-z_]\w*)\s*\("),
    # Namespace-scope constants.
    re.compile(r"\bconstexpr\b[^=;{]*?\b([A-Za-z_]\w*)\s*[={]"),
]


def declared_names(code: str) -> set[str]:
    names: set[str] = set()
    for pattern in DECL_PATTERNS:
        names.update(pattern.findall(code))
    return names - CPP_KEYWORDS


# ---------------------------------------------------------------------------
# The linter.
# ---------------------------------------------------------------------------

class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[tuple[str, int, str, str]] = []

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root).as_posix()
        self.violations.append((rel, line, rule, message))

    # -- per-file rules ----------------------------------------------------

    def check_pragma_once(self, sf: SourceFile) -> None:
        has_pragma = re.search(r"^#pragma once\s*$", sf.code, re.MULTILINE)
        if sf.path.suffix == ".hpp" and not has_pragma:
            self.report(sf.path, 1, "pragma-once",
                        "header missing #pragma once")
        if sf.path.suffix == ".cpp" and has_pragma:
            line = sf.code[: has_pragma.start()].count("\n") + 1
            self.report(sf.path, line, "pragma-once",
                        "#pragma once in a .cpp file")

    def check_patterns(self, sf: SourceFile, patterns, rule: str,
                       what: str) -> None:
        for lineno, line in enumerate(sf.code_lines, 1):
            for pattern, name in patterns:
                if pattern.search(line):
                    self.report(sf.path, lineno, rule, f"{name} {what}")

    def check_includes(self, sf: SourceFile) -> None:
        rel = sf.path.relative_to(self.root).as_posix()
        in_src = rel.startswith("src/")
        module = rel.split("/")[1] if in_src and "/" in rel[4:] else None
        for lineno, inc in sf.include_lines:
            if inc.startswith("<"):
                # Angle includes must not name project headers.
                if (self.root / "src" / inc[1:-1]).exists():
                    self.report(sf.path, lineno, "include-hygiene",
                                f"project header {inc} included with <>")
                continue
            target = inc[1:-1]
            if target.startswith("../") or "/../" in target:
                self.report(sf.path, lineno, "include-hygiene",
                            f'relative include "{target}"')
                continue
            if in_src:
                if not (self.root / "src" / target).exists():
                    self.report(sf.path, lineno, "include-hygiene",
                                f'"{target}" does not resolve under src/')
                    continue
                if "/" not in target:
                    self.report(sf.path, lineno, "include-hygiene",
                                f'"{target}" is not module-qualified')
                    continue
                dep = target.split("/")[0]
                if (module in LAYERS and target != CHECK_HEADER
                        and dep not in LAYERS[module]):
                    self.report(sf.path, lineno, "layering",
                                f"module '{module}' must not include "
                                f"'{dep}/' headers")
            else:
                # Outside src/: local headers (same dir) or src/ headers.
                local = (sf.path.parent / target).exists()
                in_tree = (self.root / "src" / target).exists()
                if not local and not in_tree:
                    self.report(sf.path, lineno, "include-hygiene",
                                f'"{target}" resolves neither locally nor '
                                "under src/")

    def check_hot_alloc(self, sf: SourceFile) -> None:
        """Flags Vector/Matrixd construction inside loops of hot files.

        Brace-tracking heuristic: a loop body is everything between the
        `{` following a for/while head and its matching `}`.  Allocations
        on the head line itself (single-statement loops) count too.
        Suppression: a "// hot-ok:" comment on the offending line.
        """
        depth = 0
        loop_depths: list[int] = []   # brace depth of each open loop body
        pending_loop = False          # saw a loop head, body brace not yet
        for lineno, line in enumerate(sf.code_lines, 1):
            in_loop = bool(loop_depths) or LOOP_RE.search(line)
            if (in_loop and HOT_ALLOC_RE.search(line)
                    and not sf.suppressed(lineno, "hot-ok:")):
                self.report(sf.path, lineno, "hot-path-alloc",
                            "Vector/Matrixd constructed inside a loop "
                            "(preallocate in the workspace, or annotate "
                            "with // hot-ok: <reason>)")
            if LOOP_RE.search(line):
                pending_loop = True
            for ch in line:
                if ch == "{":
                    depth += 1
                    if pending_loop:
                        loop_depths.append(depth)
                        pending_loop = False
                elif ch == "}":
                    if loop_depths and loop_depths[-1] == depth:
                        loop_depths.pop()
                    depth -= 1
            if pending_loop and line.rstrip().endswith(";"):
                pending_loop = False  # single-statement loop body ended

    def check_hot_region(self, sf: SourceFile, funcs) -> None:
        """Flags any allocating call inside the named function bodies.

        A *definition* is a line where one of the names is followed by
        `(` while no region is open; it arms a pending state that the
        body-opening `{` confirms and a `;` cancels -- so declarations
        (`void solve_into(...);`) and calls (`solve_into(b, x);`) never
        open a region.  Brace depth then delimits the body.
        Suppression: "// hot-ok:" on the offending line.
        """
        def_re = re.compile(r"\b(?:" + "|".join(funcs) + r")\s*\(")
        depth = 0
        region_depth = None  # brace depth of the open hot function body
        pending = False      # saw a signature, body brace not yet seen
        for lineno, line in enumerate(sf.code_lines, 1):
            scan = line
            if region_depth is None and not pending:
                m = def_re.search(line)
                if m:
                    pending = True
                    scan = line[m.end():]
            if (region_depth is not None
                    and HOT_REGION_ALLOC_RE.search(line)
                    and not sf.suppressed(lineno, "hot-ok:")):
                self.report(sf.path, lineno, "hot-path-alloc",
                            "allocation inside a numeric factor/solve "
                            "body (move it to the workspace setup, or "
                            "annotate with // hot-ok: <reason>)")
            for ch in scan:
                if ch == "{":
                    depth += 1
                    if pending:
                        region_depth = depth
                        pending = False
                elif ch == "}":
                    if region_depth == depth:
                        region_depth = None
                    depth -= 1
                elif ch == ";" and pending:
                    pending = False  # declaration or call, not a body

    def check_space_discipline(self, sf: SourceFile) -> None:
        rel = sf.path.relative_to(self.root).as_posix()
        if rel in SPACE_CROSSING_FILES:
            return
        for lineno, line in enumerate(sf.code_lines, 1):
            if (RAW_CALL_RE.search(line)
                    and not sf.suppressed(lineno, "space-ok:")):
                self.report(sf.path, lineno, "space-discipline",
                            ".raw() outside the whitelisted crossing sites "
                            "(tag the value end-to-end, or annotate with "
                            "// space-ok: <reason>)")

    # -- whole-project rule: the include graph -----------------------------

    def check_include_graph(self, sources: dict[str, SourceFile]) -> None:
        """Cycle detection plus the unused-include heuristic over src/."""
        # Edges: src-relative path -> [(lineno, src-relative target)].
        edges: dict[str, list[tuple[int, str]]] = {}
        for rel, sf in sources.items():
            if not rel.startswith("src/"):
                continue
            targets = []
            for lineno, inc in sf.include_lines:
                if inc.startswith('"'):
                    target = inc[1:-1]
                    if (self.root / "src" / target).exists():
                        targets.append((lineno, "src/" + target))
            edges[rel] = targets

        # Cycles (only headers can participate: .cpp files are never
        # included).  Iterative DFS with an explicit color map.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in edges}
        def dfs(start: str) -> list[str] | None:
            stack: list[tuple[str, int]] = [(start, 0)]
            trail = [start]
            color[start] = GRAY
            while stack:
                node, idx = stack[-1]
                deps = [t for _, t in edges.get(node, []) if t in edges]
                if idx < len(deps):
                    stack[-1] = (node, idx + 1)
                    dep = deps[idx]
                    if color.get(dep, WHITE) == GRAY:
                        return trail[trail.index(dep):] + [dep]
                    if color.get(dep, WHITE) == WHITE:
                        color[dep] = GRAY
                        stack.append((dep, 0))
                        trail.append(dep)
                else:
                    color[node] = BLACK
                    stack.pop()
                    trail.pop()
            return None

        for rel in sorted(edges):
            if color[rel] == WHITE and rel.endswith(".hpp"):
                cycle = dfs(rel)
                if cycle:
                    self.report(sources[cycle[0]].path, 1, "include-graph",
                                "include cycle: " + " -> ".join(cycle))
                    return  # one report per run; fix and rerun

        # Unused includes: the header must contribute at least one name.
        names_cache: dict[str, set[str]] = {}
        for rel in sorted(edges):
            sf = sources[rel]
            # Blank the include directives themselves so a header is never
            # "used" by its own #include line.
            lines = sf.code.splitlines()
            for lineno, _ in sf.include_lines:
                lines[lineno - 1] = ""
            body = "\n".join(lines)
            own_header = rel[:-len(".cpp")] + ".hpp" if rel.endswith(".cpp") \
                else None
            for lineno, target in edges[rel]:
                if target == "src/" + CHECK_HEADER:
                    continue  # contract macros may be deployed later
                if own_header and target == own_header:
                    continue  # a .cpp always includes its own header
                if sf.suppressed(lineno, "include-ok:"):
                    continue
                if target not in names_cache:
                    tsf = sources.get(target)
                    names_cache[target] = declared_names(tsf.code) if tsf \
                        else set()
                names = names_cache[target]
                if not names:
                    continue  # nothing extractable; stay conservative
                pattern = re.compile(
                    r"\b(?:" + "|".join(map(re.escape, sorted(names)))
                    + r")\b")
                if not pattern.search(body):
                    self.report(
                        sf.path, lineno, "include-graph",
                        f'"{target[4:]}" appears unused: none of its '
                        "declared names occur in this file (drop the "
                        "include, or annotate with // include-ok: <reason>)")

    # -- driver -----------------------------------------------------------

    def run(self) -> int:
        files = []
        for d in SOURCE_DIRS:
            base = self.root / d
            if base.is_dir():
                files.extend(p for p in sorted(base.rglob("*"))
                             if p.suffix in CPP_EXT)
        if not files:
            # A wrong --root must not report a green "0 violations" run.
            print(f"lint: error: no C++ sources found under {self.root} "
                  f"(checked {', '.join(SOURCE_DIRS)})", file=sys.stderr)
            return 2
        sources: dict[str, SourceFile] = {}
        for path in files:
            sf = SourceFile(path, path.read_text(encoding="utf-8"))
            rel = path.relative_to(self.root).as_posix()
            sources[rel] = sf
            self.check_pragma_once(sf)
            self.check_includes(sf)
            self.check_space_discipline(sf)
            if rel.startswith("src/"):
                self.check_patterns(sf, DETERMINISM_PATTERNS, "determinism",
                                    "is forbidden in library code")
                if rel not in IO_ALLOWLIST:
                    self.check_patterns(sf, IO_PATTERNS, "io-discipline",
                                        "is forbidden outside the report "
                                        "sinks")
                if rel in HOT_FILES:
                    self.check_hot_alloc(sf)
                if rel in HOT_REGION_FILES:
                    self.check_hot_region(sf, HOT_REGION_FILES[rel])
        self.check_include_graph(sources)
        for rel, line, rule, message in sorted(self.violations):
            print(f"{rel}:{line}: [{rule}] {message}")
        print(f"lint: {len(files)} files checked, "
              f"{len(self.violations)} violation(s)")
        return 1 if self.violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
