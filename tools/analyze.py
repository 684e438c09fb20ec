#!/usr/bin/env python3
"""Concurrency-purity static analyzer: call-graph race certification.

The paper ran its loop "on a network (100 Mbit/sec) of 5 computers in
parallel" (Table 7); this repo's parallel phases (the MC verifier, the
per-spec worst-case searches and gradients of build_linearizations and
the IS verifier's rounds, all run by core::WorkerPool in
src/core/fan_out.hpp) promise bitwise serial==parallel results.  That
promise rests on a discipline -- worker code must not touch shared
mutable state -- which TSan can only spot-check on the inputs the tests
happen to run.  This tool proves it statically:

  1. Every src/ file is tokenized (tools/cpp_tokens.py, shared with
     tools/lint.py) and parsed into function definitions (namespaces,
     classes, member functions, lambdas) and call sites.
  2. Call edges are resolved name-wise (qualified where possible,
     last-component otherwise) into a whole-project call graph.  The
     resolution over-approximates: an edge too many can only make the
     certification stricter, never unsound.
  3. Functions transitively reachable from a declared parallel entry
     point -- a definition carrying a `// parallel-entry` comment, i.e.
     the worker bodies each phase hands to WorkerPool::run -- form the
     certified set, and four rule families are enforced:

  parallel-purity     no function in the certified set may write
                      non-atomic shared state (namespace-scope variables,
                      function-local statics, class statics) or call a
                      banned non-reentrant function (std::rand, strtok,
                      setenv, std::localtime, ...).  src/obs is exempt:
                      its state is exclusively relaxed atomics, built for
                      exactly this.  Deliberate exceptions carry a
                      same-line `// shared-ok: <reason>`.
  static-state-census every mutable static/global in src/ must be const,
                      constexpr, std::atomic, or carry `// shared-ok:` --
                      shared state must be inert, synchronized, or
                      explicitly justified, whether or not today's call
                      graph reaches it.
  atomic-discipline   every atomic load/store/exchange/fetch_op/
                      compare_exchange names an explicit std::memory_order
                      (the seq_cst default hides the cost and the intent).
                      Deliberate exceptions carry `// memory-order-ok:`.
  worker-coverage     every function in WORKER_FUNCTIONS (what the pool's
                      workers run) is defined and reachable from an entry.
                      Calls resolve by name, so a marker that reaches
                      none of them -- e.g. on the pool's own thread thunk,
                      which only calls body(...) -- would otherwise
                      certify an empty set and still pass.

Violations in the certified set are reported with the full call chain
from the entry point (file:line at every hop), so a diagnostic reads as a
race witness, not a style nit.

The analyzer emits a machine-readable certification artifact
(`mayo.analyze/1` JSON: entry points, functions, edges, statics,
violations) with the same golden-byte discipline as the RunReport, plus
an optional GraphViz dump for local inspection.

Usage: python3 tools/analyze.py [--root R] [--json PATH] [--graph-dot PATH]
Exits non-zero and prints file:line: [rule] message for each violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cpp_tokens import SourceFile  # noqa: E402

SCHEMA = "mayo.analyze/1"
ENTRY_MARKER = "parallel-entry"
SHARED_OK = "shared-ok:"
MEMORY_ORDER_OK = "memory-order-ok:"

# What the pool's workers run (worker-coverage rule).  Each entry matches
# a definition's qualified name or a `::`-suffix of it.
WORKER_FUNCTIONS = (
    "find_worst_case_point",
    "Evaluator::margin_gradient_d",
    "BlockVerifier::run_block",
    "IsBlockEvaluator::run_block",
    "Evaluator::performances_batch",
    "OpampModel::evaluate_batch",
    "OpampModel::evaluate_batch_analyses",
    "OpampModel::evaluate_analyses",
)

# Non-reentrant / hidden-global-state calls banned in worker-reachable
# code.  Matched against the last component of a non-member call, so
# std::rand and ::rand both hit "rand".
BANNED_CALLS = {
    "rand": "std::rand (hidden global RNG state)",
    "srand": "std::srand (hidden global RNG state)",
    "random": "random (hidden global RNG state)",
    "drand48": "drand48 (hidden global RNG state)",
    "lrand48": "lrand48 (hidden global RNG state)",
    "strtok": "strtok (static tokenizer state)",
    "setenv": "setenv (mutates the process environment)",
    "putenv": "putenv (mutates the process environment)",
    "unsetenv": "unsetenv (mutates the process environment)",
    "getenv": "getenv (races with setenv/putenv)",
    "localtime": "std::localtime (static result buffer)",
    "gmtime": "std::gmtime (static result buffer)",
    "asctime": "std::asctime (static result buffer)",
    "ctime": "std::ctime (static result buffer)",
    "tmpnam": "tmpnam (static result buffer)",
    "strerror": "strerror (static result buffer)",
}

# Atomic member operations that take a std::memory_order argument.
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\(")

# Keywords that look like `name (` but are not calls or definitions.
HEAD_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "throw", "new", "delete", "do", "else", "case", "goto", "default",
    "static_assert", "decltype", "noexcept", "alignas", "asm", "requires",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "typeid", "co_await", "co_return", "co_yield", "and", "or", "not",
    "defined", "assert",
}

# `IDENT (` with optional `A::B::` qualification, destructors and operator
# overloads included.
FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*"
    r"(?:operator\s*(?:\(\)|\[\]|[+\-*/%^&|~!=<>]{1,3}|[A-Za-z_][\w:]*)"
    r"|~?[A-Za-z_]\w*))"
    r"\s*\(")

CALL_RE = re.compile(r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")

NAMESPACE_RE = re.compile(
    r"\bnamespace(?:\s+([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*))?\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"(?:\[\[[^\]]*\]\]\s*)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*[^;{]*)?$")
ENUM_RE = re.compile(r"\benum\b[^;()]*$")
LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*(?:\([^()]*\)[^()]*)*\))?\s*"
    r"(?:mutable\b\s*)?(?:constexpr\b\s*)?"
    r"(?:noexcept(?:\s*\([^()]*\))?\s*)?"
    r"(?:->\s*[\w:<>,&*\s]+?)?\s*$")
# After a function's closing `)`: cv/ref/noexcept/override/final, a
# trailing return type, `try`, or a constructor initializer list.
FUNC_TAIL_RE = re.compile(
    r"(?:\s*(?:const|noexcept(?:\s*\([^()]*\))?|override|final|mutable|"
    r"&&|&|try|->\s*[\w:<>,&*\s\[\]()]+))*\s*(?::.*)?\s*", re.DOTALL)

# Variable declaration (no parens in the declarator: function declarations
# and definitions never match).
VAR_DECL_RE = re.compile(
    r"^\s*((?:(?:inline|static|extern|thread_local|constexpr|constinit|"
    r"const|mutable|volatile|unsigned|signed|long|short)\b\s*)*)"
    r"([\w:<>,\s*&]+?)\s*"
    r"\b([A-Za-z_]\w*)\s*"
    r"((?:\[[^\]]*\]\s*)*)"
    r"(=[^;]*|\{[^;]*\})?\s*$", re.DOTALL)

DECL_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|class|struct|enum|union|namespace|template|"
    r"friend|public|private|protected|extern|return|throw|goto|delete|"
    r"case|break|continue|if|else|for|while|do|switch|catch|"
    r"static_assert)\b")


def match_paren(text: str, open_pos: int) -> int | None:
    """Index of the `)` matching the `(` at open_pos, or None."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def strip_preprocessor(code: str) -> str:
    """Blanks preprocessor directive lines (with continuations) so macro
    definitions can never be mistaken for function heads."""
    out: list[str] = []
    cont = False
    for line in code.split("\n"):
        is_directive = cont or line.lstrip().startswith("#")
        cont = is_directive and line.rstrip().endswith("\\")
        out.append(" " * len(line) if is_directive else line)
    return "\n".join(out)


@dataclass
class CallSite:
    line: int
    name: str        # dotted name as written, `::` normalized
    member: bool     # preceded by `.` or `->`


@dataclass
class FunctionDef:
    name: str        # fully qualified (lambdas: enclosing::lambda@LINE)
    file: str        # repo-relative posix path
    line: int        # line of the definition head
    body_start: int  # offset of the `{` in the parse view
    body_end: int = 0
    is_lambda: bool = False
    parallel_entry: bool = False
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class StaticVar:
    name: str
    file: str
    line: int
    storage: str     # "global" | "local-static" | "class-static"
    mutability: str  # "const" | "constexpr" | "atomic" | "mutable"
    shared_ok: bool = False


def _normalize(name: str) -> str:
    return re.sub(r"\s*::\s*", "::", name).strip()


class FileParser:
    """Extracts function definitions and scope spans from one file."""

    def __init__(self, sf: SourceFile, rel: str):
        self.sf = sf
        self.rel = rel
        self.view = strip_preprocessor(sf.code)
        self.functions: list[FunctionDef] = []
        # Scope regions at namespace/class level, for the static census:
        # (kind, start, end) with nested braces of any kind excluded later.
        self.scope_braces: list[tuple[str, int, int]] = []
        self._parse()

    # -- head classification ----------------------------------------------

    def _function_head(self, head: str) -> str | None:
        """Name of the function this head defines, or None."""
        for m in FUNC_NAME_RE.finditer(head):
            start = m.start(1)
            prev = head[start - 1] if start > 0 else ""
            if prev in ".>~" or prev.isalnum() or prev == "_":
                continue  # member access or mid-token
            first = re.split(r"\s*::\s*", m.group(1))[0]
            if first in HEAD_KEYWORDS:
                continue
            close = match_paren(head, m.end() - 1)
            if close is None:
                continue
            if FUNC_TAIL_RE.fullmatch(head[close + 1:]):
                return _normalize(m.group(1))
        return None

    def _entry_marked(self, name_line: int, brace_pos: int) -> bool:
        # Accept the marker on the line above the signature, on any
        # signature line, or on the `{` line -- never past the brace, so
        # a marker can only ever attach to one definition.
        last = self.sf.line_of(brace_pos)
        return any(ENTRY_MARKER in self.sf.comments_by_line.get(ln, "")
                   for ln in range(name_line - 1, last + 1))

    # -- the scanner -------------------------------------------------------

    def _parse(self) -> None:
        view = self.view
        n = len(view)
        # Stack entries: (kind, name_parts, brace_open, func_or_None)
        stack: list[tuple[str, list[str], int, FunctionDef | None]] = []
        last_stmt_end = 0
        i = 0
        while i < n:
            c = view[i]
            if c == ";":
                last_stmt_end = i + 1
            elif c == "{":
                head = view[last_stmt_end:i]
                in_function = any(e[3] is not None for e in stack)
                kind, parts, func = self._classify(head, in_function,
                                                   last_stmt_end, i, stack)
                stack.append((kind, parts, i, func))
                last_stmt_end = i + 1
            elif c == "}":
                if stack:
                    kind, parts, open_pos, func = stack.pop()
                    if func is not None:
                        func.body_end = i
                    if kind in ("namespace", "class"):
                        self.scope_braces.append((kind, open_pos + 1, i))
                last_stmt_end = i + 1
            i += 1
        # File-level region outside all braces is namespace scope too.
        self.scope_braces.append(("namespace", 0, n))

    def _classify(self, head: str, in_function: bool, head_start: int,
                  brace_pos: int, stack) -> tuple:
        stripped = head.strip()
        if not in_function:
            m = NAMESPACE_RE.search(stripped)
            if m is not None:
                name = m.group(1) or "(anonymous)"
                return ("namespace", re.split(r"\s*::\s*", name), None)
            if ENUM_RE.search(stripped):
                return ("enum", [], None)
        m = CLASS_RE.search(stripped)
        if m is not None and "=" not in stripped.split(
                m.group(1))[0].split()[-1:]:
            return ("class", [m.group(1)], None)
        lam = LAMBDA_TAIL_RE.search(head)
        if lam is not None and lam.group(0).strip():
            pos = lam.start()
            prev = head[pos - 1] if pos > 0 else ""
            if prev not in ")]" and not (prev.isalnum() or prev == "_"):
                line = self.sf.line_of(head_start + pos)
                qual = self._qualified(stack, f"lambda@{line}")
                func = FunctionDef(qual, self.rel, line, brace_pos,
                                   is_lambda=True)
                func.parallel_entry = self._entry_marked(line, brace_pos)
                self.functions.append(func)
                return ("function", [], func)
        if not in_function:
            name = self._function_head(head)
            if name is not None:
                pos = head.find(name.split("::")[0])
                line = self.sf.line_of(head_start + max(pos, 0))
                qual = self._qualified(stack, name)
                func = FunctionDef(qual, self.rel, line, brace_pos)
                func.parallel_entry = self._entry_marked(line, brace_pos)
                self.functions.append(func)
                return ("function", [], func)
        return ("block", [], None)

    @staticmethod
    def _qualified(stack, name: str) -> str:
        parts: list[str] = []
        for kind, ns_parts, _, func in stack:
            if func is not None:
                parts = re.split(r"::", func.name)
            elif kind in ("namespace", "class"):
                parts.extend(p for p in ns_parts if p != "(anonymous)")
        return "::".join(parts + [name])


# ---------------------------------------------------------------------------
# The analyzer.
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, root: Path,
                 worker_functions: tuple[str, ...] = WORKER_FUNCTIONS):
        self.root = root
        self.worker_functions = worker_functions
        self.violations: list[tuple[str, int, str, str]] = []
        self.sources: dict[str, SourceFile] = {}
        self.functions: list[FunctionDef] = []
        self.statics: list[StaticVar] = []
        self.edges: dict[int, set[int]] = {}      # function idx -> callees
        self.reachable: set[int] = set()
        self.parents: dict[int, int] = {}         # BFS tree for chains

    def report(self, rel: str, line: int, rule: str, message: str) -> None:
        self.violations.append((rel, line, rule, message))

    # -- extraction --------------------------------------------------------

    def parse_tree(self) -> bool:
        files = []
        base = self.root / "src"
        if base.is_dir():
            files = [p for p in sorted(base.rglob("*"))
                     if p.suffix in (".cpp", ".hpp")]
        if not files:
            print(f"analyze: error: no C++ sources found under "
                  f"{self.root / 'src'}", file=sys.stderr)
            return False
        self.parsers: dict[str, FileParser] = {}
        for path in files:
            rel = path.relative_to(self.root).as_posix()
            sf = SourceFile(path, path.read_text(encoding="utf-8"))
            self.sources[rel] = sf
            parser = FileParser(sf, rel)
            self.parsers[rel] = parser
            self.functions.extend(parser.functions)
        self._extract_calls()
        self._extract_statics()
        return True

    def _own_body(self, parser: FileParser, func: FunctionDef) -> str:
        """Body text of `func` with nested function/lambda bodies blanked."""
        text = parser.view[func.body_start + 1:func.body_end]
        offset = func.body_start + 1
        pieces = []
        pos = 0
        for other in parser.functions:
            if other is func or other.body_start <= func.body_start \
                    or other.body_end >= func.body_end:
                continue
            start = other.body_start + 1 - offset
            end = other.body_end - offset
            if start < pos:
                continue  # already inside a blanked nested body
            pieces.append(text[pos:start])
            pieces.append(re.sub(r"[^\n]", " ", text[start:end]))
            pos = end
        pieces.append(text[pos:])
        return "".join(pieces)

    def _extract_calls(self) -> None:
        for rel, parser in self.parsers.items():
            for func in parser.functions:
                body = self._own_body(parser, func)
                base = func.body_start + 1
                for m in CALL_RE.finditer(body):
                    name = _normalize(m.group(1))
                    first = name.split("::")[0]
                    if first in HEAD_KEYWORDS or first == "operator":
                        continue
                    k = m.start(1) - 1
                    while k >= 0 and body[k] in " \t\n":
                        k -= 1
                    member = k >= 0 and (body[k] == "." or
                                         (body[k] == ">" and k >= 1 and
                                          body[k - 1] == "-"))
                    line = parser.sf.line_of(base + m.start(1))
                    func.calls.append(CallSite(line, name, member))

    def _scope_statements(self, parser: FileParser, kind: str):
        """Yields (line, statement) for `;`-terminated statements lying
        directly in a scope of `kind`, nested braces blanked."""
        view = parser.view
        # Blank every brace body that is NOT one of the target scopes, then
        # walk each target scope's direct text.
        for k, start, end in parser.scope_braces:
            if k != kind:
                continue
            # Direct text: blank sub-regions belonging to deeper scopes.
            text = view[start:end]
            for k2, s2, e2 in parser.scope_braces:
                if s2 > start and e2 < end:
                    text = text[:s2 - start] + \
                        re.sub(r"[^\n]", " ", view[s2:e2]) + text[e2 - start:]
            for f in parser.functions:
                s2, e2 = f.body_start, f.body_end
                if s2 >= start and e2 <= end and e2 > s2:
                    text = text[:s2 - start] + \
                        re.sub(r"[^\n]", " ", view[s2:e2]) + text[e2 - start:]
            pos = 0
            depth_guard = text  # already flattened
            for stmt_m in re.finditer(r"[^;]*;", depth_guard, re.DOTALL):
                stmt = stmt_m.group(0)[:-1]
                line = parser.sf.line_of(start + stmt_m.start() +
                                         len(stmt) - len(stmt.lstrip()))
                yield line, stmt
                pos = stmt_m.end()

    def _classify_static(self, specifiers: str, var_type: str) -> str:
        if "constexpr" in specifiers or "constexpr" in var_type:
            return "constexpr"
        if "atomic" in var_type:
            return "atomic"
        if re.search(r"\bconst\b", specifiers) or \
                re.search(r"\bconst\b", var_type):
            return "const"
        return "mutable"

    def _extract_statics(self) -> None:
        for rel, parser in self.parsers.items():
            sf = parser.sf
            # Namespace-scope variables and class-scope statics.
            for scope_kind, storage in (("namespace", "global"),
                                        ("class", "class-static")):
                for line, stmt in self._scope_statements(parser, scope_kind):
                    if DECL_SKIP_RE.match(stmt):
                        continue
                    m = VAR_DECL_RE.match(stmt)
                    if m is None:
                        continue
                    specifiers, var_type, name = m.group(1), m.group(2), \
                        m.group(3)
                    if scope_kind == "class" and \
                            not re.search(r"\bstatic\b", specifiers):
                        continue  # instance member, not shared state
                    if re.search(r"\bextern\b", specifiers):
                        continue  # declaration; defined (and seen) elsewhere
                    if not var_type.strip():
                        continue
                    self.statics.append(StaticVar(
                        name, rel, line, storage,
                        self._classify_static(specifiers, var_type),
                        sf.suppressed(line, SHARED_OK)))
            # Function-local statics.
            for func in parser.functions:
                body = self._own_body(parser, func)
                base = func.body_start + 1
                for m in re.finditer(r"\bstatic\b", body):
                    end = body.find(";", m.start())
                    if end < 0:
                        continue
                    stmt = body[m.start():end]
                    dm = VAR_DECL_RE.match(stmt)
                    if dm is None:
                        continue
                    line = parser.sf.line_of(base + m.start())
                    self.statics.append(StaticVar(
                        dm.group(3), rel, line, "local-static",
                        self._classify_static(dm.group(1), dm.group(2)),
                        parser.sf.suppressed(line, SHARED_OK)))

    # -- call graph --------------------------------------------------------

    def build_graph(self) -> None:
        by_last: dict[str, list[int]] = {}
        by_qual: dict[str, list[int]] = {}
        for idx, func in enumerate(self.functions):
            by_qual.setdefault(func.name, []).append(idx)
            by_last.setdefault(func.name.split("::")[-1], []).append(idx)
        for idx, func in enumerate(self.functions):
            targets: set[int] = set()
            for call in func.calls:
                if "::" in call.name:
                    for cand, idxs in by_qual.items():
                        if cand == call.name or \
                                cand.endswith("::" + call.name):
                            targets.update(idxs)
                    # Also try the last component: A::B() may be a
                    # static-member call spelled differently.
                    targets.update(
                        by_last.get(call.name.split("::")[-1], []))
                else:
                    targets.update(by_last.get(call.name, []))
            targets.discard(idx)
            self.edges[idx] = targets

    def certify(self) -> None:
        entries = [i for i, f in enumerate(self.functions)
                   if f.parallel_entry]
        queue = list(entries)
        self.reachable = set(entries)
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(self.edges.get(cur, ())):
                if nxt not in self.reachable:
                    self.reachable.add(nxt)
                    self.parents[nxt] = cur
                    queue.append(nxt)

    def _chain(self, idx: int) -> str:
        parts: list[str] = []
        cur: int | None = idx
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            f = self.functions[cur]
            parts.append(f"{f.name} ({f.file}:{f.line})")
            cur = self.parents.get(cur)
        return " -> ".join(reversed(parts))

    # -- rules -------------------------------------------------------------

    def check_census(self) -> None:
        for var in self.statics:
            if var.mutability == "mutable" and not var.shared_ok:
                self.report(
                    var.file, var.line, "static-state-census",
                    f"mutable {var.storage} '{var.name}' is shared state: "
                    "make it const/constexpr/std::atomic or annotate with "
                    "// shared-ok: <reason>")

    def check_parallel_purity(self) -> None:
        mutable_names = {v.name for v in self.statics
                         if v.mutability == "mutable"}
        write_res = {
            name: re.compile(
                rf"(?:\+\+|--)\s*{re.escape(name)}\b"
                rf"|\b{re.escape(name)}\s*(?:\[[^\]]*\]\s*)?"
                rf"(?:=(?![=])|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|\+\+|--)")
            for name in mutable_names}
        for idx in sorted(self.reachable):
            func = self.functions[idx]
            if func.file.startswith("src/obs/"):
                continue  # the obs exemption: relaxed-atomic counters only
            parser = self.parsers[func.file]
            body = self._own_body(parser, func)
            base = func.body_start + 1
            sf = parser.sf
            for name in sorted(mutable_names):
                for m in write_res[name].finditer(body):
                    line = sf.line_of(base + m.start())
                    if sf.suppressed(line, SHARED_OK):
                        continue
                    self.report(
                        func.file, line, "parallel-purity",
                        f"'{func.name}' writes shared state '{name}' but "
                        "is reachable from a parallel entry point: "
                        f"{self._chain(idx)}")
            for call in func.calls:
                if call.member:
                    continue
                last = call.name.split("::")[-1]
                reason = BANNED_CALLS.get(last)
                if reason is None:
                    continue
                if sf.suppressed(call.line, SHARED_OK):
                    continue
                self.report(
                    func.file, call.line, "parallel-purity",
                    f"'{func.name}' calls non-reentrant {reason} and is "
                    "reachable from a parallel entry point: "
                    f"{self._chain(idx)}")

    def check_worker_coverage(self) -> None:
        for name in self.worker_functions:
            matches = [i for i, f in enumerate(self.functions)
                       if f.name == name or f.name.endswith("::" + name)]
            if not matches:
                self.report(
                    "tools/analyze.py", 0, "worker-coverage",
                    f"worker function '{name}' is not defined under src/ "
                    "(renamed? update WORKER_FUNCTIONS)")
            for i in matches:
                if i in self.reachable:
                    continue
                f = self.functions[i]
                self.report(
                    f.file, f.line, "worker-coverage",
                    f"'{f.name}' runs on pool workers but no "
                    "// parallel-entry reaches it: mark the worker body "
                    "that calls it")

    def check_atomic_discipline(self) -> None:
        for rel, parser in self.parsers.items():
            view = parser.view
            sf = parser.sf
            for m in ATOMIC_OP_RE.finditer(view):
                open_pos = m.end() - 1
                close = match_paren(view, open_pos)
                args = view[open_pos + 1:close] if close is not None else ""
                if "memory_order" in args:
                    continue
                line = sf.line_of(m.start())
                if sf.suppressed(line, MEMORY_ORDER_OK):
                    continue
                self.report(
                    rel, line, "atomic-discipline",
                    f"atomic {m.group(1)}() without an explicit "
                    "std::memory_order (name the ordering, or annotate "
                    "with // memory-order-ok: <reason>)")

    # -- artifacts ---------------------------------------------------------

    def artifact(self) -> dict:
        order = sorted(range(len(self.functions)),
                       key=lambda i: (self.functions[i].file,
                                      self.functions[i].line,
                                      self.functions[i].name))
        functions = []
        for i in order:
            f = self.functions[i]
            callees = sorted({self.functions[j].name
                              for j in self.edges.get(i, ())})
            functions.append({
                "name": f.name,
                "file": f.file,
                "line": f.line,
                "kind": "lambda" if f.is_lambda else "function",
                "parallel_entry": f.parallel_entry,
                "reachable": i in self.reachable,
                "calls": callees,
            })
        statics = [{
            "name": v.name,
            "file": v.file,
            "line": v.line,
            "storage": v.storage,
            "mutability": v.mutability,
            "shared_ok": v.shared_ok,
        } for v in sorted(self.statics,
                          key=lambda v: (v.file, v.line, v.name))]
        violations = [{
            "file": rel, "line": line, "rule": rule, "message": message,
        } for rel, line, rule, message in sorted(self.violations)]
        return {
            "schema": SCHEMA,
            "entry_points": sorted(f.name for f in self.functions
                                   if f.parallel_entry),
            "summary": {
                "files": len(self.sources),
                "functions": len(self.functions),
                "edges": sum(len(t) for t in self.edges.values()),
                "reachable": len(self.reachable),
                "statics": len(self.statics),
                "violations": len(self.violations),
            },
            "certified": not self.violations,
            "functions": functions,
            "statics": statics,
            "violations": violations,
        }

    def to_dot(self) -> str:
        lines = ["digraph callgraph {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9];']
        order = sorted(range(len(self.functions)),
                       key=lambda i: (self.functions[i].file,
                                      self.functions[i].line))
        for i in order:
            f = self.functions[i]
            attrs = []
            if f.parallel_entry:
                attrs.append('style=filled, fillcolor="#ffd37f"')
            elif i in self.reachable:
                attrs.append('style=filled, fillcolor="#cfe8ff"')
            label = f.name.replace('"', "'")
            lines.append(f'  n{i} [label="{label}"'
                         + (", " + ", ".join(attrs) if attrs else "") + "];")
        for i in order:
            for j in sorted(self.edges.get(i, ())):
                # Only draw edges inside the certified set: the full graph
                # is unreadable; the certified slice is the interesting one.
                if i in self.reachable:
                    lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- driver ------------------------------------------------------------

    def run(self) -> int:
        if not self.parse_tree():
            return 2
        self.build_graph()
        self.certify()
        self.check_census()
        self.check_parallel_purity()
        self.check_atomic_discipline()
        self.check_worker_coverage()
        for rel, line, rule, message in sorted(self.violations):
            print(f"{rel}:{line}: [{rule}] {message}")
        print(f"analyze: {len(self.sources)} files, "
              f"{len(self.functions)} functions, "
              f"{len(self.reachable)} reachable from "
              f"{len([f for f in self.functions if f.parallel_entry])} "
              f"parallel entry point(s), "
              f"{len(self.violations)} violation(s)")
        return 1 if self.violations else 0


def write_json(artifact: dict, path: Path) -> None:
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Concurrency-purity static analyzer (see module "
                    "docstring for the rule families)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the mayo.analyze/1 certification "
                             "artifact to this path")
    parser.add_argument("--graph-dot", type=Path, default=None,
                        help="write the call graph (certified slice "
                             "highlighted) as GraphViz DOT")
    args = parser.parse_args()
    analyzer = Analyzer(args.root.resolve())
    code = analyzer.run()
    if code != 2:
        if args.json is not None:
            write_json(analyzer.artifact(), args.json)
        if args.graph_dot is not None:
            args.graph_dot.write_text(analyzer.to_dot(), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
