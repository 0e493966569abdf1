#!/usr/bin/env python3
"""manywalks-lint: enforce the repo's own determinism/correctness contracts.

The determinism contract (docs/ARCHITECTURE.md, "The RNG scheme") and the
golden-pinned sinks only stay trustworthy if a handful of repo-wide rules
hold. Generic tooling cannot know them, so this checker does:

  manywalks-raw-rng         All randomness flows through src/util/rng.hpp.
                            Raw std::mt19937 / std::random_device / rand()
                            anywhere else forks the seed universe and breaks
                            the per-trial seeding scheme.
  manywalks-unordered-iter  Iterating an unordered container produces
                            platform/libc++-dependent ordering; if that
                            order reaches a sink it silently breaks goldens.
                            Membership ops (find/contains/insert/...) are fine.
  manywalks-bare-assert     Library code uses MW_REQUIRE (always on, throws)
                            or MW_ASSERT (debug), never bare assert():
                            assert() vanishes under NDEBUG, so release builds
                            would skip the check the tests rely on.
  manywalks-float-stats     Estimator/statistics code is double-only. float
                            accumulation changes results across compilers'
                            contraction choices and breaks cross-build
                            comparability of committed results.
  manywalks-stray-atomic    std::atomic/std::atomic_ref/std::atomic_flag
                            outside visit_tracker.hpp and thread_pool.* —
                            shared mutable state anywhere else escapes the
                            replicated-control protocol (determinism
                            contract v3) and its TSan coverage.
  manywalks-mmap-outside-storage
                            mmap/munmap/madvise and friends, and
                            pread/preadv, outside src/storage/ — every
                            mapping, its advice lifetime and every
                            adjacency read is owned by the storage layer
                            (MappedGraph, BlockedGraph, ExtentCache);
                            ad-hoc mappings or reads elsewhere dodge the
                            extent accounting the out-of-core memory
                            budget relies on.
  manywalks-raw-clock       <chrono> / steady_clock / clock_gettime and
                            friends outside src/obs/, src/util/timer.hpp,
                            and bench/ — clock reads are fenced into the
                            observability layer so timing can never leak
                            into a contract v3-v6 schedule decision
                            (ARCHITECTURE.md, "Observability").

Escape hatch (clang-tidy style, rule name required so escapes stay
auditable — see the inventory in docs/ARCHITECTURE.md):

    code;  // NOLINT(manywalks-raw-rng): why this one is fine
    // NOLINTNEXTLINE(manywalks-unordered-iter): why
    code;

Usage:
    manywalks_lint.py [--root DIR] [paths...]   lint src/ (or given files)
    manywalks_lint.py --list-rules              describe every rule
    manywalks_lint.py --inventory               list every NOLINT escape

Exit status: 0 clean, 1 findings, 2 usage error.

Implementation note: this is a lexer-level checker (comments and literals
stripped, then token regexes), not a full AST pass — the environment this
repo builds in has no libclang Python bindings. The rules are chosen so that
lexical matching has no false negatives on idiomatic C++; rare false
positives are what the NOLINT escape is for. If clang.cindex is available it
could back a stricter pass, but nothing here requires it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

RULE_PREFIX = "manywalks-"

# --------------------------------------------------------------------------
# Lexer: blank out comments and string/char literals, preserving the line
# structure so (line, column) positions in the stripped text match the file.
# --------------------------------------------------------------------------


def strip_comments_and_literals(text: str) -> str:
    """Returns `text` with comments and string/char literal *contents*
    replaced by spaces. Newlines are preserved everywhere so line numbers
    survive; raw strings R"delim(...)delim" are handled."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":  # block comment
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' and _is_raw_string_start(text, i):
            j, blanked = _consume_raw_string(text, i)
            out.append(blanked)
            i = j
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            # Keep the quotes themselves so `'"'` still lexes as a token.
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _is_raw_string_start(text: str, i: int) -> bool:
    return i > 0 and text[i - 1] == "R" and (i == 1 or not text[i - 2].isalnum())


def _consume_raw_string(text: str, i: int) -> tuple[int, str]:
    match = re.match(r'"([^ ()\\\t\n]*)\(', text[i:])
    if not match:  # malformed; treat as plain string
        return i + 1, '"'
    closer = ")" + match.group(1) + '"'
    j = text.find(closer, i + match.end())
    j = len(text) if j == -1 else j + len(closer)
    blanked = "".join(ch if ch == "\n" else " " for ch in text[i:j])
    return j, blanked


# --------------------------------------------------------------------------
# Findings and the escape hatch
# --------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    col: int  # 1-based
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?\(([^)]*)\)")


def suppressed_lines(text: str) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the set of rule names NOLINTed there."""
    suppress: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in NOLINT_RE.finditer(line):
            target = lineno + 1 if match.group(1) else lineno
            rules = {r.strip() for r in match.group(2).split(",") if r.strip()}
            suppress.setdefault(target, set()).update(rules)
    return suppress


# --------------------------------------------------------------------------
# Rule engine
# --------------------------------------------------------------------------


@dataclass
class SourceFile:
    path: str  # as given
    relpath: str  # forward-slash path relative to the lint root
    text: str  # original contents
    code: str  # comments/literals stripped

    @property
    def lines(self) -> list[str]:
        return self.code.splitlines()


class Rule:
    name: str = ""
    description: str = ""

    def check(self, src: SourceFile) -> list[Finding]:
        raise NotImplementedError

    def _finding(self, src: SourceFile, line: int, col: int, message: str) -> Finding:
        return Finding(src.path, line, col, self.name, message)


def _matches(pattern: re.Pattern, src: SourceFile):
    for lineno, line in enumerate(src.lines, start=1):
        for match in pattern.finditer(line):
            yield lineno, match


class RawRngRule(Rule):
    name = RULE_PREFIX + "raw-rng"
    description = (
        "raw RNG primitives (std::mt19937*, std::random_device, rand/srand/"
        "drand48) outside src/util/rng.hpp — all draws must flow through Rng "
        "so the per-trial/per-lane seeding contract holds"
    )
    EXEMPT = ("src/util/rng.hpp",)
    PATTERN = re.compile(
        r"\b(?:std\s*::\s*)?(mt19937(?:_64)?|random_device|minstd_rand0?|"
        r"default_random_engine|ranlux\w+|knuth_b)\b"
        r"|(?<![\w:])(rand|srand|drand48|lrand48|random)\s*\("
    )

    def check(self, src: SourceFile) -> list[Finding]:
        if src.relpath in self.EXEMPT:
            return []
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            token = match.group(1) or match.group(2)
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    f"raw RNG '{token}' outside src/util/rng.hpp; draw through "
                    "manywalks::Rng (util/rng.hpp) so seeds stay in the "
                    "determinism contract",
                )
            )
        return findings


class UnorderedIterationRule(Rule):
    name = RULE_PREFIX + "unordered-iter"
    description = (
        "iteration over std::unordered_map/std::unordered_set (range-for or "
        "begin()/end()) — hash-table order is implementation-defined and "
        "must never feed a result-producing path; use an ordered container "
        "or sort first"
    )
    DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
    RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*\*?(\w+)\s*\)")
    BEGIN_END = re.compile(r"\b(\w+)\s*\.\s*(c?r?begin|c?r?end)\s*\(")

    def check(self, src: SourceFile) -> list[Finding]:
        # Collect names declared (anywhere in the file) as unordered
        # containers: `std::unordered_map<K, V> name` — the declarator may be
        # on a later line, so scan the stripped text with a cross-line regex.
        unordered_names = set()
        decl_re = re.compile(
            r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
            r"(\w+)\s*[;({=,)]",
            re.DOTALL,
        )
        for match in decl_re.finditer(src.code):
            unordered_names.add(match.group(1))

        findings = []
        for lineno, match in _matches(self.RANGE_FOR, src):
            name = match.group(1)
            if name in unordered_names:
                findings.append(
                    self._finding(
                        src, lineno, match.start() + 1,
                        f"range-for over unordered container '{name}': "
                        "hash order is nondeterministic across platforms and "
                        "breaks golden-pinned results; sort keys first or use "
                        "an ordered container",
                    )
                )
        for lineno, match in _matches(self.BEGIN_END, src):
            name = match.group(1)
            if name in unordered_names:
                findings.append(
                    self._finding(
                        src, lineno, match.start() + 1,
                        f"'{name}.{match.group(2)}()' iterates an unordered "
                        "container in hash order; sort keys first or use an "
                        "ordered container",
                    )
                )
        return findings


class BareAssertRule(Rule):
    name = RULE_PREFIX + "bare-assert"
    description = (
        "bare assert() in library code — it disappears under NDEBUG; use "
        "MW_REQUIRE (always-on precondition) or MW_ASSERT (debug invariant) "
        "from util/check.hpp"
    )
    PATTERN = re.compile(r"(?<![\w.])assert\s*\(")

    def check(self, src: SourceFile) -> list[Finding]:
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            # static_assert is fine; the lookbehind already excludes it via
            # \w, but double-check the preceding token defensively.
            prefix = src.lines[lineno - 1][: match.start()]
            if prefix.rstrip().endswith("static_"):
                continue
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    "bare assert() compiles away under NDEBUG; use MW_REQUIRE "
                    "for preconditions or MW_ASSERT for debug invariants "
                    "(util/check.hpp)",
                )
            )
        return findings


class FloatStatisticsRule(Rule):
    name = RULE_PREFIX + "float-stats"
    description = (
        "the `float` type in estimator/statistics code (src/mc, src/core, "
        "src/theory, src/linalg, src/util/stats.*) — statistics accumulate "
        "in double so results are comparable across builds"
    )
    SCOPES = ("src/mc/", "src/core/", "src/theory/", "src/linalg/")
    SCOPE_FILES = ("src/util/stats.hpp", "src/util/stats.cpp")
    PATTERN = re.compile(r"\bfloat\b")

    def check(self, src: SourceFile) -> list[Finding]:
        in_scope = src.relpath.startswith(self.SCOPES) or src.relpath in self.SCOPE_FILES
        if not in_scope:
            return []
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    "estimator/statistics code is double-only: float "
                    "accumulation drifts across compilers and breaks result "
                    "comparability",
                )
            )
        return findings


class StrayAtomicRule(Rule):
    name = RULE_PREFIX + "stray-atomic"
    description = (
        "std::atomic / std::atomic_ref / std::atomic_flag outside "
        "src/util/thread_pool.* — the determinism contract v3 confines "
        "shared mutable state to the pool/barrier and the sharded "
        "tracker's barrier-separated plain words, so every cross-thread "
        "interaction stays inside the audited, TSan-covered "
        "replicated-control protocol; ad-hoc atomics elsewhere reintroduce "
        "schedule-dependent results"
    )
    EXEMPT = (
        "src/util/thread_pool.hpp",
        "src/util/thread_pool.cpp",
    )
    # `std::atomic<T>`, `std::atomic_flag`, `std::atomic_ref<T>`, the
    # free-function forms (std::atomic_load etc.), and std::memory_order
    # uses that would accompany them. Unqualified `atomic` is deliberately
    # not matched: the repo style always qualifies std types, and plain
    # `atomic` appears in comments/prose too often for a lexer-level rule.
    PATTERN = re.compile(
        r"\bstd\s*::\s*(atomic(?:_\w+)?)\b"
    )

    def check(self, src: SourceFile) -> list[Finding]:
        if src.relpath in self.EXEMPT:
            return []
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    f"'std::{match.group(1)}' outside thread_pool.*: shared "
                    "mutable state must live in the audited pool layer "
                    "(determinism contract v3); route cross-thread "
                    "communication through ShardedVisitTracker's per-shard "
                    "bitmaps or the SpinBarrier protocol",
                )
            )
        return findings


class MmapOutsideStorageRule(Rule):
    name = RULE_PREFIX + "mmap-outside-storage"
    description = (
        "memory-mapping syscalls (mmap/munmap/mremap/madvise/posix_madvise/"
        "msync/mincore/mlock/munlock) and positional reads (pread/preadv) "
        "outside src/storage/ — mappings, their advice lifetimes and "
        "adjacency reads belong to the storage layer (MappedGraph, "
        "BlockedGraph, ExtentCache) so the out-of-core budget accounting "
        "sees every resident byte; go through ExtentCache::acquire or "
        "MappedGraph instead"
    )
    EXEMPT_PREFIX = "src/storage/"
    # Call syntax only, and not member calls (`cache.madvise(...)` would be
    # a repo-owned wrapper, which is the point of the rule).
    PATTERN = re.compile(
        r"(?<![\w.])(?:::\s*)?"
        r"(mmap|munmap|mremap|madvise|posix_madvise|msync|mincore|mlock|"
        r"munlock|mlockall|munlockall|pread|pread64|preadv|preadv2)\s*\("
    )

    def check(self, src: SourceFile) -> list[Finding]:
        if src.relpath.startswith(self.EXEMPT_PREFIX):
            return []
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    f"'{match.group(1)}' outside src/storage/: mappings, "
                    "madvise lifetimes and adjacency reads are owned by the "
                    "storage layer so the out-of-core memory budget accounts "
                    "for every resident extent; go through MappedGraph or "
                    "ExtentCache::acquire",
                )
            )
        return findings


class RawClockRule(Rule):
    name = RULE_PREFIX + "raw-clock"
    description = (
        "clock reads (<chrono>, steady_clock/system_clock/"
        "high_resolution_clock, clock_gettime, gettimeofday, clock()) "
        "outside src/obs/, src/util/timer.hpp, and bench/ — the "
        "observability layer owns every timestamp so timing can never "
        "feed a walk/merge/block scheduling decision (the contract v3-v6 "
        "inertness rule); measure with util/timer.hpp's Stopwatch or the "
        "obs:: sinks instead"
    )
    EXEMPT = ("src/util/timer.hpp",)
    EXEMPT_PREFIXES = ("src/obs/", "bench/")
    PATTERN = re.compile(
        r"#\s*include\s*<chrono>"
        r"|\bstd\s*::\s*chrono\b"
        r"|\b(?:steady_clock|system_clock|high_resolution_clock)\b"
        r"|(?<![\w.])(?:::\s*)?(?:clock_gettime|gettimeofday|"
        r"clock_getres|timespec_get|clock)\s*\("
    )

    def check(self, src: SourceFile) -> list[Finding]:
        if src.relpath in self.EXEMPT:
            return []
        if src.relpath.startswith(self.EXEMPT_PREFIXES):
            return []
        findings = []
        for lineno, match in _matches(self.PATTERN, src):
            findings.append(
                self._finding(
                    src, lineno, match.start() + 1,
                    "clock read outside src/obs/, src/util/timer.hpp, and "
                    "bench/: timestamps are fenced into the observability "
                    "layer so timing can never alter a contract v3-v6 "
                    "schedule; use util/timer.hpp or an obs:: sink",
                )
            )
        return findings


ALL_RULES: list[Rule] = [
    RawRngRule(),
    UnorderedIterationRule(),
    BareAssertRule(),
    FloatStatisticsRule(),
    StrayAtomicRule(),
    MmapOutsideStorageRule(),
    RawClockRule(),
]


def lint_text(path: str, relpath: str, text: str, rules=None) -> list[Finding]:
    """Lints one file's contents; applies NOLINT suppressions."""
    src = SourceFile(path, relpath.replace(os.sep, "/"), text,
                     strip_comments_and_literals(text))
    suppress = suppressed_lines(text)
    findings = []
    for rule in rules or ALL_RULES:
        for finding in rule.check(src):
            if finding.rule in suppress.get(finding.line, ()):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")


def discover(root: str) -> list[str]:
    src_dir = os.path.join(root, "src")
    found = []
    for dirpath, _dirnames, filenames in os.walk(src_dir):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def print_inventory(root: str, paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in NOLINT_RE.finditer(line):
                rel = os.path.relpath(path, root)
                print(f"{rel}:{lineno}: {match.group(0)}")
                total += 1
    print(f"{total} escape(s)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="manywalks-lint",
        description="determinism-contract checker for the manywalks repo",
    )
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: every source under "
                             "ROOT/src)")
    parser.add_argument("--root", default=".",
                        help="repo root used to resolve rule scopes "
                             "(default: cwd)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--inventory", action="store_true",
                        help="list every NOLINT escape instead of linting")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name}\n    {rule.description}")
        return 0

    root = os.path.abspath(args.root)
    paths = [os.path.abspath(p) for p in args.paths] or discover(root)
    if not paths:
        print(f"manywalks-lint: no sources found under {root}/src",
              file=sys.stderr)
        return 2

    if args.inventory:
        return print_inventory(root, paths)

    findings = []
    for path in paths:
        relpath = os.path.relpath(path, root)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as error:
            print(f"manywalks-lint: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
        for finding in lint_text(path, relpath, text):
            finding.path = relpath.replace(os.sep, "/")
            findings.append(finding)

    for finding in findings:
        print(finding.format())
    if findings:
        print(f"manywalks-lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"manywalks-lint: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
