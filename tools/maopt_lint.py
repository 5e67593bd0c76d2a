#!/usr/bin/env python3
"""maopt_lint — repo-specific static analysis for the MA-Opt tree.

Enforces invariants that generic clang-tidy checks cannot express:

  bare-assert          no `assert(...)` outside tests/ — contracts go through
                       MAOPT_CHECK (always-on, throwing) or MAOPT_DCHECK
                       (debug/MAOPT_CHECKED, aborting). A bare assert
                       vanishes in NDEBUG builds, silently deleting the
                       contract the release binary relies on.
  nondeterminism       no wall-clock / entropy sources (std::random_device,
                       rand, srand, time(nullptr), *_clock::now) in the
                       deterministic core (src/core, src/eval, src/spice,
                       src/nn, src/linalg, src/gp, src/circuits). The
                       replayable RNG schedule and bit-identical
                       checkpoint/resume depend on every decision deriving
                       from (seed, x). Telemetry timing goes through
                       maopt::Stopwatch (src/common) and obs/, which are
                       exempt by scope.
  hot-alloc            no heap allocation inside functions marked MAOPT_HOT
                       (Newton loop, Adam step, GEMM/LU kernels): `new`,
                       malloc-family, make_unique/make_shared, and growing
                       container calls (push_back, emplace_back, resize,
                       reserve, ...). PRs 1 and 6 made these loops
                       allocation-free; this keeps them that way.
  raw-mutex            no raw std::mutex / lock_guard / unique_lock /
                       condition_variable in src/ — locking goes through the
                       annotated maopt::Mutex / MutexLock / CondVar
                       (src/common/thread_annotations.hpp) so Clang
                       -Wthread-safety sees every acquisition.
  number-parse         no hand-rolled string->double parsing (stod/strtod/
                       atof/sscanf family) outside src/deck/ and
                       src/spice/parser.cpp — user-facing numbers must go
                       through spice::parse_spice_value so "2meg"/"100f"
                       engineering suffixes mean the same thing everywhere.
  downcast             no dynamic_cast in src/core, src/eval or src/circuits.
                       How a result was produced travels in the EvalResult,
                       and batching is a SizingProblem virtual, so every
                       decorator composes; a downcast to a concrete layer
                       silently stops working once anything wraps it.
  ambient-variation    no call to or override of set_process_variation
                       outside src/circuits/sizing_problem.{hpp,cpp} (tests
                       exempt: they pin that it throws). A problem holds no
                       variation state; a variation reaches a simulation
                       only as the pv argument of evaluate_at /
                       make_session_at, so every layer of the evaluation
                       stack (cache keys included) sees the same pv.
  observer-bracketing  RunStarted/RunFinished bracket events are emitted
                       only by the Optimizer template method
                       (src/core/optimizer.cpp) and always as a pair; phase
                       spans are recorded via the RAII obs::ScopedSpan, not
                       raw SpanCollector::add calls. Unbalanced brackets
                       break every downstream consumer of the JSONL stream
                       (tools/check_telemetry.py validates streams at
                       runtime; this catches the bug at review time).

Suppression: append `// maopt-lint: allow(<check>)` to a line to waive one
finding there, with the justification in the same comment.

Frontend: `--frontend libclang` parses each file with clang.cindex when the
Python bindings are importable (args taken from --compile-commands) and
resolves MAOPT_HOT function extents from the AST; `--frontend lexical` uses
the built-in comment/string-aware tokenizer; the default `auto` picks
libclang when available and falls back to lexical with a notice — the
checks themselves are frontend-independent, so a toolchain-less container
still enforces every invariant.

Usage:
  tools/maopt_lint.py                         # lint the shipped tree
  tools/maopt_lint.py src/eval bench          # explicit roots
  tools/maopt_lint.py --compile-commands build/compile_commands.json
  tools/maopt_lint.py --self-test             # run the tests/lint fixtures
  tools/maopt_lint.py --list-checks

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Adding a check: write a function taking a SourceFile and yielding Finding,
decorate it with @register_check("name", "what it enforces"), and drop
`<name>_bad.cpp` / `<name>_good.cpp` fixtures into tests/lint/fixtures/ —
--self-test (wired into ctest as LintSelfTest) fails until the bad fixture
is flagged and the good one is clean.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned in tree mode, relative to the repo root.
DEFAULT_ROOTS = ["src", "bench", "examples"]
FIXTURE_DIR = os.path.join("tests", "lint", "fixtures")
CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

SUPPRESS_RE = re.compile(r"//\s*maopt-lint:\s*allow\(([a-z0-9_,\- ]+)\)")


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


def mask_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets.

    Every masked character becomes a space (newlines survive), so regex
    matches on the result map 1:1 onto the original text and line numbers.
    Handles //, /* */, "...", '...', and raw strings R"delim(...)delim".
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                end = n if end == -1 else end + len(closer)
                blank(i + 2, end)
                i = end
            else:
                i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            end = min(j + 1, n)
            blank(i + 1, end - 1)
            i = end
        else:
            i += 1
    return "".join(out)


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    text: str  # raw contents
    masked: str  # comments/strings blanked, offsets preserved

    _line_starts: Optional[List[int]] = None
    _suppressed: Optional[dict] = None

    @classmethod
    def load(cls, abs_path: str, rel_path: str) -> "SourceFile":
        with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        return cls(path=rel_path.replace(os.sep, "/"), text=text,
                   masked=mask_comments_and_strings(text))

    def line_of(self, offset: int) -> int:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        import bisect

        return bisect.bisect_right(self._line_starts, offset)

    def suppressed(self, check: str, line: int) -> bool:
        if self._suppressed is None:
            table: dict = {}
            for idx, raw in enumerate(self.text.splitlines(), start=1):
                m = SUPPRESS_RE.search(raw)
                if m:
                    names = {p.strip() for p in m.group(1).split(",")}
                    table[idx] = names
            self._suppressed = table
        names = self._suppressed.get(line)
        return bool(names) and (check in names or "all" in names)

    def in_dir(self, *prefixes: str) -> bool:
        return any(self.path.startswith(p.rstrip("/") + "/") for p in prefixes)


@dataclass
class Finding:
    check: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

CheckFn = Callable[[SourceFile], Iterable[Finding]]
CHECKS: "dict[str, tuple[str, CheckFn]]" = {}


def register_check(name: str, description: str) -> Callable[[CheckFn], CheckFn]:
    def wrap(fn: CheckFn) -> CheckFn:
        if name in CHECKS:
            raise ValueError(f"duplicate check {name}")
        CHECKS[name] = (description, fn)
        return fn

    return wrap


def _emit(sf: SourceFile, check: str, offset: int, message: str) -> Iterator[Finding]:
    line = sf.line_of(offset)
    if not sf.suppressed(check, line):
        yield Finding(check, sf.path, line, message)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@register_check(
    "bare-assert",
    "assert() outside tests/ — use MAOPT_CHECK (always-on) or MAOPT_DCHECK (checked builds)",
)
def check_bare_assert(sf: SourceFile) -> Iterator[Finding]:
    if sf.in_dir("tests"):
        return
    for m in re.finditer(r"(?<![\w.])assert\s*\(", sf.masked):
        # static_assert is a compile-time contract and fine anywhere.
        if sf.masked[max(0, m.start() - 7) : m.start()].endswith("static_"):
            continue
        yield from _emit(
            sf, "bare-assert", m.start(),
            "bare assert() vanishes under NDEBUG; use MAOPT_CHECK or MAOPT_DCHECK "
            "(src/common/check.hpp)",
        )


NONDET_SCOPES = ["src/core", "src/eval", "src/spice", "src/nn",
                 "src/linalg", "src/gp", "src/circuits"]
NONDET_PATTERNS = [
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"),
     "std::chrono::*_clock::now"),
    (re.compile(r"(?<![\w:])clock_gettime\s*\("), "clock_gettime()"),
]


@register_check(
    "nondeterminism",
    "entropy/wall-clock sources in the deterministic core (src/core, eval, spice, nn, ...)",
)
def check_nondeterminism(sf: SourceFile) -> Iterator[Finding]:
    if not sf.in_dir(*NONDET_SCOPES):
        return
    for pattern, label in NONDET_PATTERNS:
        for m in pattern.finditer(sf.masked):
            yield from _emit(
                sf, "nondeterminism", m.start(),
                f"{label} in the deterministic core breaks the replayable (seed, x) "
                "schedule; derive decisions from common/rng.hpp streams (telemetry "
                "timing belongs in obs/ via maopt::Stopwatch)",
            )


HOT_FORBIDDEN = [
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w:])new\s*\("), "placement/operator new"),
    (re.compile(r"(?<![\w:])(?:malloc|calloc|realloc|aligned_alloc|strdup)\s*\("),
     "malloc-family call"),
    (re.compile(r"(?<![\w:])make_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(r"\.\s*(?:push_back|emplace_back|emplace|resize|reserve|assign|insert|"
                r"shrink_to_fit)\s*\("), "growing-container call"),
]


def _hot_function_bodies(sf: SourceFile) -> Iterator[tuple[int, int, int]]:
    """Yields (marker_offset, body_start, body_end) per MAOPT_HOT definition.

    Convention: MAOPT_HOT sits immediately before the return type of the
    function *definition*; the body is the first balanced {...} after the
    signature's parameter list. Member initializer lists and default
    arguments are handled by brace/paren balancing on masked text.
    """
    for m in re.finditer(r"\bMAOPT_HOT\b", sf.masked):
        i, n = m.end(), len(sf.masked)
        depth_paren = 0
        body_start = -1
        while i < n:
            c = sf.masked[i]
            if c == "(" or c == "[":
                depth_paren += 1
            elif c == ")" or c == "]":
                depth_paren -= 1
            elif c == "{" and depth_paren == 0:
                body_start = i
                break
            elif c == ";" and depth_paren == 0:
                break  # declaration only — nothing to scan
            i += 1
        if body_start < 0:
            continue
        depth = 0
        j = body_start
        while j < n:
            if sf.masked[j] == "{":
                depth += 1
            elif sf.masked[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield m.start(), body_start, j


@register_check(
    "hot-alloc",
    "heap allocation inside MAOPT_HOT functions (Newton loop, Adam step, GEMM/LU kernels)",
)
def check_hot_alloc(sf: SourceFile) -> Iterator[Finding]:
    for _marker, body_start, body_end in _hot_function_bodies(sf):
        body = sf.masked[body_start:body_end]
        for pattern, label in HOT_FORBIDDEN:
            for m in pattern.finditer(body):
                yield from _emit(
                    sf, "hot-alloc", body_start + m.start(),
                    f"{label} inside a MAOPT_HOT function; hot loops are "
                    "allocation-free — size workspaces in the caller or annotate a "
                    "cold-start line with `// maopt-lint: allow(hot-alloc)`",
                )


RAW_MUTEX_PATTERNS = [
    (re.compile(r"std\s*::\s*(?:recursive_|shared_|timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"std\s*::\s*lock_guard\b"), "std::lock_guard"),
    (re.compile(r"std\s*::\s*unique_lock\b"), "std::unique_lock"),
    (re.compile(r"std\s*::\s*scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"std\s*::\s*condition_variable(?:_any)?\b"), "std::condition_variable"),
]
RAW_MUTEX_EXEMPT = "src/common/thread_annotations.hpp"


@register_check(
    "raw-mutex",
    "raw std:: locking in src/ — use the annotated maopt::Mutex/MutexLock/CondVar",
)
def check_raw_mutex(sf: SourceFile) -> Iterator[Finding]:
    if not sf.in_dir("src") or sf.path == RAW_MUTEX_EXEMPT:
        return
    for pattern, label in RAW_MUTEX_PATTERNS:
        for m in pattern.finditer(sf.masked):
            yield from _emit(
                sf, "raw-mutex", m.start(),
                f"{label} carries no capability annotations, so -Wthread-safety "
                "cannot see the acquisition; use maopt::Mutex / MutexLock / CondVar "
                "(src/common/thread_annotations.hpp)",
            )


NUMBER_PARSE_RE = re.compile(
    r"(?<![\w])(?:std\s*::\s*)?(stod|stof|stold|strtod|strtof|strtold|atof|sscanf)\s*\(")
# The two blessed parsing sites: the SPICE value parser itself and the deck
# frontend built on top of it (expression lexer included).
NUMBER_PARSE_EXEMPT_DIRS = ("src/deck",)
NUMBER_PARSE_EXEMPT_FILES = {"src/spice/parser.cpp"}


@register_check(
    "number-parse",
    "hand-rolled string->double parsing outside src/deck//src/spice/parser.cpp — "
    "use spice::parse_spice_value so engineering suffixes parse consistently",
)
def check_number_parse(sf: SourceFile) -> Iterator[Finding]:
    if not sf.in_dir("src", "examples", "bench"):
        return
    if sf.in_dir(*NUMBER_PARSE_EXEMPT_DIRS) or sf.path in NUMBER_PARSE_EXEMPT_FILES:
        return
    for m in NUMBER_PARSE_RE.finditer(sf.masked):
        yield from _emit(
            sf, "number-parse", m.start(),
            f"{m.group(1)}() silently mis-parses SPICE values ('2meg' -> 2e-3, "
            "'100f' -> 100); route user-facing numbers through "
            "spice::parse_spice_value, or justify a raw C-locale double with "
            "`// maopt-lint: allow(number-parse)`",
        )


DOWNCAST_SCOPES = ["src/core", "src/eval", "src/circuits"]
DOWNCAST_RE = re.compile(r"\bdynamic_cast\s*<")


@register_check(
    "downcast",
    "dynamic_cast in src/core, src/eval or src/circuits — provenance travels in EvalResult "
    "and batching is a SizingProblem virtual",
)
def check_downcast(sf: SourceFile) -> Iterator[Finding]:
    if not sf.in_dir(*DOWNCAST_SCOPES):
        return
    for m in DOWNCAST_RE.finditer(sf.masked):
        yield from _emit(
            sf, "downcast", m.start(),
            "dynamic_cast to a concrete evaluation layer stops working as soon as a "
            "decorator wraps it; read provenance from the EvalResult and override a "
            "SizingProblem virtual (evaluate_batch / evaluate_variants) instead",
        )


AMBIENT_VARIATION_RE = re.compile(r"\bset_process_variation\s*\(")
AMBIENT_VARIATION_OWNERS = {"src/circuits/sizing_problem.hpp", "src/circuits/sizing_problem.cpp"}


@register_check(
    "ambient-variation",
    "set_process_variation called or overridden outside circuits/sizing_problem — pass the "
    "variation to evaluate_at / make_session_at",
)
def check_ambient_variation(sf: SourceFile) -> Iterator[Finding]:
    if sf.in_dir("tests") or sf.path in AMBIENT_VARIATION_OWNERS:
        return
    for m in AMBIENT_VARIATION_RE.finditer(sf.masked):
        yield from _emit(
            sf, "ambient-variation", m.start(),
            "set_process_variation always throws: problems hold no variation state, "
            "so a set-then-evaluate pair simulates nothing the caller meant; pass the "
            "variation as evaluate_at(x, pv) or make_session_at(pv)",
        )


BRACKET_OWNER = "src/core/optimizer.cpp"
RUN_STARTED_RE = re.compile(r"\bRunStarted\b")
RUN_FINISHED_RE = re.compile(r"\bRunFinished\b")
RAW_SPAN_ADD_RE = re.compile(r"\.\s*add\s*\(\s*(?:obs\s*::\s*)?Phase\s*::")


@register_check(
    "observer-bracketing",
    "RunStarted/RunFinished emitted only (and pairwise) by the Optimizer template method; "
    "spans recorded via RAII ScopedSpan",
)
def check_observer_bracketing(sf: SourceFile) -> Iterator[Finding]:
    if not sf.in_dir("src") or not sf.path.endswith(".cpp"):
        return
    # src/obs implements the observer interfaces; event type names appear
    # there as handlers, not emissions.
    if not sf.in_dir("src/obs"):
        started = list(RUN_STARTED_RE.finditer(sf.masked))
        finished = list(RUN_FINISHED_RE.finditer(sf.masked))
        if sf.path != BRACKET_OWNER:
            for m in started + finished:
                yield from _emit(
                    sf, "observer-bracketing", m.start(),
                    "run bracket events are emitted only by the Optimizer template "
                    "method (core/optimizer.cpp run()); do_run implementations emit "
                    "interior events only — a second bracket corrupts the stream",
                )
        else:
            if bool(started) != bool(finished):
                missing = "RunFinished" if started else "RunStarted"
                anchor = (started or finished)[0]
                yield from _emit(
                    sf, "observer-bracketing", anchor.start(),
                    f"unbalanced run bracketing: {missing} is never emitted, so every "
                    "stream this build writes fails check_telemetry.py bracketing",
                )
    # RAII span discipline applies everywhere in src/, including obs/ users.
    for m in RAW_SPAN_ADD_RE.finditer(sf.masked):
        yield from _emit(
            sf, "observer-bracketing", m.start(),
            "raw SpanCollector::add(Phase::...) call; use obs::ScopedSpan so the "
            "span closes on every path (including exceptions)",
        )


# ---------------------------------------------------------------------------
# Frontends
# ---------------------------------------------------------------------------


def load_libclang() -> Optional[object]:
    try:
        import clang.cindex as cindex  # type: ignore

        cindex.Index.create()
        return cindex
    except Exception:
        return None


def libclang_hot_bodies(cindex, abs_path: str, args: Sequence[str], sf: SourceFile):
    """AST-accurate MAOPT_HOT extents: returns the lexical generator's shape
    from clang cursors, replacing brace-balancing with real function extents."""
    index = cindex.Index.create()
    tu = index.parse(abs_path, args=list(args),
                     options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    hot_lines = {sf.line_of(m.start()) for m in re.finditer(r"\bMAOPT_HOT\b", sf.masked)}
    spans = []
    kinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
             cindex.CursorKind.FUNCTION_TEMPLATE)
    for cur in tu.cursor.walk_preorder():
        if cur.kind in kinds and cur.is_definition() and cur.location.file and \
                os.path.samefile(cur.location.file.name, abs_path):
            if cur.extent.start.line in hot_lines or (cur.extent.start.line - 1) in hot_lines:
                spans.append((cur.extent.start.offset, cur.extent.start.offset,
                              cur.extent.end.offset))
    return spans


def parse_compile_commands(path: str) -> "dict[str, list[str]]":
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    args_by_file: dict[str, list[str]] = {}
    for e in entries:
        src = os.path.normpath(os.path.join(e.get("directory", "."), e["file"]))
        raw = e.get("arguments") or e.get("command", "").split()
        keep: list[str] = []
        it = iter(raw[1:])
        for a in it:
            if a in ("-c", "-o"):
                next(it, None)
            elif a.startswith(("-I", "-D", "-std", "-f", "-W", "-isystem")):
                keep.append(a)
        args_by_file[src] = keep
    return args_by_file


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def collect_files(roots: Sequence[str]) -> List[str]:
    files: List[str] = []
    for root in roots:
        abs_root = os.path.join(REPO_ROOT, root)
        if os.path.isfile(abs_root):
            files.append(abs_root)
            continue
        for dirpath, dirnames, filenames in os.walk(abs_root):
            rel = os.path.relpath(dirpath, REPO_ROOT).replace(os.sep, "/")
            # The fixture corpus intentionally violates every check.
            if rel.startswith(FIXTURE_DIR.replace(os.sep, "/")):
                dirnames[:] = []
                continue
            dirnames[:] = [d for d in sorted(dirnames) if not d.startswith(".")]
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                    files.append(os.path.join(dirpath, fn))
    return files


def run_checks(files: Sequence[str], checks: Sequence[str],
               frontend: str, cc_args: "dict[str, list[str]]") -> List[Finding]:
    cindex = load_libclang() if frontend in ("auto", "libclang") else None
    if frontend == "libclang" and cindex is None:
        print("maopt_lint: ERROR — --frontend libclang requested but clang.cindex is "
              "not importable", file=sys.stderr)
        sys.exit(2)
    if frontend == "auto" and cindex is None:
        notice = ("maopt_lint: libclang unavailable; using the built-in lexical "
                  "frontend (checks are frontend-independent)")
        print(notice, file=sys.stderr)
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::warning::{notice}")

    findings: List[Finding] = []
    for abs_path in files:
        rel = os.path.relpath(abs_path, REPO_ROOT)
        sf = SourceFile.load(abs_path, rel)
        if cindex is not None:
            try:
                spans = libclang_hot_bodies(cindex, abs_path, cc_args.get(abs_path, []), sf)
                sf.libclang_hot_spans = spans  # type: ignore[attr-defined]
            except Exception:
                pass  # AST refinement is best-effort; lexical logic still runs
        for name in checks:
            _desc, fn = CHECKS[name]
            findings.extend(fn(sf))
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def self_test(frontend: str) -> int:
    """Every check must flag its bad fixture and pass its good fixture."""
    fixture_root = os.path.join(REPO_ROOT, FIXTURE_DIR)
    failures: List[str] = []
    for name in sorted(CHECKS):
        stem = name.replace("-", "_")
        for flavor, want_findings in (("bad", True), ("good", False)):
            path = os.path.join(fixture_root, f"{stem}_{flavor}.cpp")
            if not os.path.isfile(path):
                failures.append(f"{name}: missing fixture {os.path.relpath(path, REPO_ROOT)}")
                continue
            # Fixtures emulate tree paths via their first line:
            #   // maopt-lint-fixture-path: src/whatever.cpp
            with open(path, "r", encoding="utf-8") as f:
                first = f.readline()
            m = re.match(r"//\s*maopt-lint-fixture-path:\s*(\S+)", first)
            rel = m.group(1) if m else os.path.relpath(path, REPO_ROOT)
            sf = SourceFile.load(path, rel)
            got = [f for f in CHECKS[name][1](sf)]
            if want_findings and not got:
                failures.append(f"{name}: {stem}_{flavor}.cpp produced no findings")
            elif not want_findings and got:
                failures.append(
                    f"{name}: {stem}_{flavor}.cpp should be clean but got: "
                    + "; ".join(f.render() for f in got))
    if failures:
        print("maopt_lint --self-test: FAILED")
        for f in failures:
            print("  " + f)
        return 1
    print(f"maopt_lint --self-test: OK — {len(CHECKS)} checks x good/bad fixtures")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="maopt_lint.py",
                                     description="repo-invariant linter (see module docstring)")
    parser.add_argument("roots", nargs="*", default=None,
                        help=f"files or directories to lint (default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="compile_commands.json; restricts the file set to compiled TUs "
                             "(+ headers under the roots) and feeds libclang parse args")
    parser.add_argument("--frontend", choices=("auto", "lexical", "libclang"), default="auto")
    parser.add_argument("--checks", metavar="a,b", help="comma list (default: all)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="validate every check against tests/lint/fixtures")
    args = parser.parse_args(argv)

    if args.list_checks:
        width = max(len(n) for n in CHECKS)
        for name in sorted(CHECKS):
            print(f"{name:<{width}}  {CHECKS[name][0]}")
        return 0

    if args.self_test:
        return self_test(args.frontend)

    checks = sorted(CHECKS)
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            print(f"maopt_lint: unknown check(s): {', '.join(unknown)} "
                  f"(--list-checks shows the registry)", file=sys.stderr)
            return 2

    cc_args: dict[str, list[str]] = {}
    if args.compile_commands:
        cc_args = parse_compile_commands(args.compile_commands)

    files = collect_files(args.roots or DEFAULT_ROOTS)
    if args.compile_commands:
        compiled = set(cc_args)
        files = [f for f in files if f in compiled or os.path.splitext(f)[1] in
                 (".hpp", ".hh", ".h")]
    if not files:
        print("maopt_lint: no input files", file=sys.stderr)
        return 2

    findings = run_checks(files, checks, args.frontend, cc_args)
    for f in findings:
        print(f.render())
    summary = (f"maopt_lint: {len(findings)} finding(s) over {len(files)} files, "
               f"{len(checks)} checks")
    print(summary if not findings else summary + " — FAILED", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
