#!/usr/bin/env python3
"""Repo-rule lint engine for the exaclim codebase.

Run from the repo root (the `lint` CMake target does this):

    python3 tools/lint.py [--list-rules] [paths...]

The engine walks every C++ file once, builds a shared FileContext
(raw lines, comment/string-stripped code lines, full text) and hands it
to each registered Rule object. Rules carry their own id and docstring;
`--list-rules` prints the registry.

Suppression: a finding on a line is suppressed by annotating that line
with `// lint:allow` (suppresses every rule — legacy form, use sparingly)
or `// lint:allow(rule-id)` / `// lint:allow(rule-a,rule-b)` to suppress
only the named rules. File-scoped rules (pragma-once, guarded-include,
alloc-guard-include) are structural and cannot be line-suppressed.

Repo rules (knob-doc) run once per invocation over the whole tree
rather than per file: they cross-check src/ against README.md.

Hot-path regions: code between `// hot-path: begin` and
`// hot-path: end` markers — plus every file listed in
tools/hot_path_manifest.txt — is subject to the hot-path-alloc rule.

Exit status: 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIRS = ["src", "bench", "examples", "tests"]
CPP_SUFFIXES = {".cpp", ".hpp"}
HOT_PATH_MANIFEST = REPO_ROOT / "tools" / "hot_path_manifest.txt"

ALLOW_RE = re.compile(r"lint:allow(?:\(([^)]*)\))?")
HOT_BEGIN_MARKER = "hot-path: begin"
HOT_END_MARKER = "hot-path: end"


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string/char literals and // comments.

    Block comments spanning lines are handled by the caller feeding us
    pre-filtered lines; within a line we drop /* ... */ spans too.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # keep token boundaries
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_comments_keep_strings(line: str) -> str:
    """Drops // and /* */ comment text but keeps string literal contents
    (for rules that must inspect them, e.g. getenv names)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            start = i
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(line[start:i])
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def suppressed(raw_line: str, rule_id: str) -> bool:
    """True when `raw_line` carries a lint:allow marker covering rule_id."""
    for match in ALLOW_RE.finditer(raw_line):
        names = match.group(1)
        if names is None:
            return True  # bare lint:allow suppresses everything
        if rule_id in {n.strip() for n in names.split(",")}:
            return True
    return False


@dataclass
class FileContext:
    """Everything a rule needs about one file, computed once."""

    rel: Path                 # path relative to the repo root
    raw_lines: list[str]
    code_lines: list[str]     # comments + string contents stripped
    text: str
    root: Path                # repo root the include resolver runs against
    in_hot_manifest: bool = False
    _hot_lines: set[int] | None = field(default=None, repr=False)
    _unbalanced_hot: list[tuple[int, str]] = field(default_factory=list)

    def hot_lines(self) -> set[int]:
        """1-based line numbers inside hot-path regions (markers included).

        Also records unbalanced markers into _unbalanced_hot for the
        hot-path-alloc rule to report.
        """
        if self._hot_lines is not None:
            return self._hot_lines
        hot: set[int] = set()
        open_line = 0
        for lineno, raw in enumerate(self.raw_lines, 1):
            if HOT_BEGIN_MARKER in raw:
                if open_line:
                    self._unbalanced_hot.append(
                        (lineno, "nested 'hot-path: begin' (already open "
                                 f"since line {open_line})"))
                open_line = lineno
            elif HOT_END_MARKER in raw:
                if not open_line:
                    self._unbalanced_hot.append(
                        (lineno, "'hot-path: end' without a matching begin"))
                else:
                    hot.update(range(open_line, lineno + 1))
                    open_line = 0
        if open_line:
            self._unbalanced_hot.append(
                (open_line, "'hot-path: begin' never closed"))
        self._hot_lines = hot
        return hot


class Linter:
    def __init__(self, root: Path = REPO_ROOT,
                 hot_manifest: set[str] | None = None) -> None:
        self.root = root
        self.findings: list[str] = []
        if hot_manifest is None:
            hot_manifest = load_hot_manifest(HOT_PATH_MANIFEST)
        self.hot_manifest = hot_manifest

    def report(self, rel: Path, lineno: int, rule: str, message: str) -> None:
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def report_line(self, ctx: FileContext, lineno: int, rule: str,
                    message: str) -> None:
        """Like report(), but honours line-level lint:allow suppression."""
        raw = ctx.raw_lines[lineno - 1] if lineno <= len(ctx.raw_lines) else ""
        if suppressed(raw, rule):
            return
        self.report(ctx.rel, lineno, rule, message)

    def make_context(self, path: Path) -> FileContext:
        rel = path.relative_to(self.root)
        text = path.read_text(encoding="utf-8")
        raw_lines = text.splitlines()

        # Pre-filter block comments across lines.
        code_lines: list[str] = []
        in_block = False
        for raw in raw_lines:
            line = raw
            if in_block:
                end = line.find("*/")
                if end == -1:
                    code_lines.append("")
                    continue
                line = line[end + 2:]
                in_block = False
            stripped = strip_comments_and_strings(line)
            # strip_comments drops unterminated /* spans; detect them to
            # carry block-comment state forward.
            opener = line.find("/*")
            if opener != -1 and line.find("*/", opener + 2) == -1:
                in_block = True
            code_lines.append(stripped)

        return FileContext(
            rel=rel, raw_lines=raw_lines, code_lines=code_lines, text=text,
            root=self.root,
            in_hot_manifest=rel.as_posix() in self.hot_manifest)

    def lint_file(self, path: Path) -> None:
        ctx = self.make_context(path)
        for rule in RULES:
            rule.check(ctx, self)

    def lint_repo(self) -> None:
        for rule in REPO_RULES:
            rule.check_repo(self)


# ------------------------------------------------------------------ rules --


class Rule:
    """One lint rule: an id, a one-line docstring, and a check pass."""

    id = ""
    doc = ""

    def check(self, ctx: FileContext, linter: Linter) -> None:
        raise NotImplementedError


class PragmaOnceRule(Rule):
    id = "pragma-once"
    doc = "every header starts with #pragma once."

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if ctx.rel.suffix != ".hpp":
            return
        for raw in ctx.raw_lines:
            s = raw.strip()
            if not s or s.startswith("//"):
                continue
            if s != "#pragma once":
                linter.report(ctx.rel, 1, self.id,
                              "header must start with #pragma once")
            return


class EndlRule(Rule):
    id = "endl"
    doc = "no std::endl — it flushes; use '\\n'."

    RE = re.compile(r"std::endl\b")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        for lineno, code in enumerate(ctx.code_lines, 1):
            if self.RE.search(code):
                linter.report_line(ctx, lineno, self.id,
                                   "std::endl flushes the stream; use '\\n'")


class RawMutexRule(Rule):
    id = "raw-mutex"
    doc = ("no std::mutex / std::condition_variable / std::lock_guard / "
           "std::unique_lock / std::scoped_lock outside src/common/sync.hpp. "
           "The annotated exaclim::Mutex / MutexLock / CondVar wrappers are "
           "what give Clang's thread-safety analysis visibility.")

    RE = re.compile(
        r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
        r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
        r"shared_lock)\b")
    ALLOWED = {Path("src/common/sync.hpp")}

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if ctx.rel in self.ALLOWED:
            return
        for lineno, code in enumerate(ctx.code_lines, 1):
            m = self.RE.search(code)
            if m:
                linter.report_line(
                    ctx, lineno, self.id,
                    f"raw std::{m.group(1)}; use exaclim::Mutex / "
                    "MutexLock / CondVar from common/sync.hpp")


class NakedNewRule(Rule):
    id = "naked-new"
    doc = ("no naked `new` / `delete` in library code — use "
           "std::make_unique / std::vector / RAII owners.")

    NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:(]")
    DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[A-Za-z_:(*]")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        for lineno, code in enumerate(ctx.code_lines, 1):
            if self.NEW_RE.search(code) or self.DELETE_RE.search(code):
                linter.report_line(ctx, lineno, self.id,
                                   "naked new/delete; use std::make_unique "
                                   "or a container")


class UnboundedRecvRule(Rule):
    id = "unbounded-recv"
    doc = ("no unbounded Recv/RecvT/RecvAny/RecvValue in src/ outside "
           "src/comm/world.*: a blocking receive hangs forever on a dead "
           "peer (DESIGN §8, §13 — the elastic exchange path must stay "
           "fully bounded). Use RecvTimeout / TryRecv / RecvValueTimeout, "
           "or annotate the line with `// fault: blocking-ok` where a "
           "blocking wait is intended (e.g. collectives over live ranks).")

    # Won't match RecvTimeout / TryRecv / RecvValueTimeout, whose names
    # diverge after the prefix.
    RE = re.compile(r"(\.|->)Recv(T|Any|Value)?\s*[<(]")
    BLOCKING_OK_MARKER = "fault: blocking-ok"

    def check(self, ctx: FileContext, linter: Linter) -> None:
        posix = ctx.rel.as_posix()
        # Only the transport itself (world.*) may block: it implements the
        # primitives. Everything else — including comm/collectives.cpp,
        # comm/elastic.cpp and all of hvd/ — rides the exchange path and
        # must use the bounded forms.
        if not posix.startswith("src/") or posix.startswith("src/comm/world."):
            return
        for lineno, (raw, code) in enumerate(
                zip(ctx.raw_lines, ctx.code_lines), 1):
            if self.BLOCKING_OK_MARKER in raw:
                continue
            if self.RE.search(code):
                linter.report_line(
                    ctx, lineno, self.id,
                    "unbounded Recv blocks forever on a dead peer; use "
                    "RecvTimeout/TryRecv or annotate "
                    "`// fault: blocking-ok`")


class IncludePathRule(Rule):
    id = "include-path"
    doc = ("quoted includes must resolve against src/ (catches stale paths "
           'and "../" escapes); system headers use angle brackets.')

    RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

    def check(self, ctx: FileContext, linter: Linter) -> None:
        for lineno, raw in enumerate(ctx.raw_lines, 1):
            # code_lines blank out string contents, which would erase the
            # quoted include target — inspect a string-preserving strip.
            m = self.RE.match(strip_comments_keep_strings(raw))
            if not m or m.group(1) != '"':
                continue
            target = m.group(2)
            candidates = [
                ctx.root / "src" / target,
                ctx.root / ctx.rel.parent / target,
                ctx.root / "tests" / target,
            ]
            if not any(c.is_file() for c in candidates):
                linter.report_line(
                    ctx, lineno, self.id,
                    f'quoted include "{target}" does not resolve against '
                    "src/ or the including directory")
            if ".." in Path(target).parts:
                linter.report_line(
                    ctx, lineno, self.id,
                    f'include "{target}" uses "..": spell the full module '
                    "path instead")


class GuardedIncludeRule(Rule):
    id = "guarded-include"
    doc = ("files using EXACLIM_GUARDED_BY / EXACLIM_REQUIRES must include "
           "common/thread_annotations.hpp (directly or via "
           "common/sync.hpp).")

    RE = re.compile(r"EXACLIM_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|"
                    r"ACQUIRE|RELEASE|EXCLUDES|CAPABILITY)\b")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if ctx.rel.name == "thread_annotations.hpp":
            return
        if not self.RE.search(ctx.text):
            return
        if ("thread_annotations.hpp" not in ctx.text
                and "common/sync.hpp" not in ctx.text):
            linter.report(ctx.rel, 1, self.id,
                          "uses EXACLIM_* thread-safety annotations but "
                          "includes neither common/thread_annotations.hpp "
                          "nor common/sync.hpp")


class HotPathAllocRule(Rule):
    id = "hot-path-alloc"
    doc = ("no `new` / `make_unique` / `.resize(` / `.push_back(` inside "
           "regions annotated `// hot-path: begin` ... `// hot-path: end` "
           "or in files listed in tools/hot_path_manifest.txt — steady-"
           "state kernels must not touch the heap (ROADMAP item 2).")

    RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_:(]"
                    r"|\bmake_unique\s*<"
                    r"|\.resize\s*\("
                    r"|\.push_back\s*\(")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        hot = ctx.hot_lines()
        for lineno, message in ctx._unbalanced_hot:
            linter.report(ctx.rel, lineno, self.id, message)
        if ctx.in_hot_manifest:
            lines = range(1, len(ctx.code_lines) + 1)
        elif hot:
            lines = sorted(hot)
        else:
            return
        for lineno in lines:
            m = self.RE.search(ctx.code_lines[lineno - 1])
            if m:
                where = ("hot-path manifest file" if ctx.in_hot_manifest
                         else "hot-path region")
                linter.report_line(
                    ctx, lineno, self.id,
                    f"heap allocation `{m.group(0).strip()}` in {where}; "
                    "hoist the buffer into a workspace/scratch slot")


class HotPathVectorRule(Rule):
    id = "hot-path-vector"
    doc = ("no direct `std::vector<float>` declarations in files listed "
           "in tools/hot_path_manifest.txt — hot-path float buffers must "
           "come from the pooled arena (PoolBuffer / AcquireScratch, "
           "DESIGN §12), not ad-hoc heap vectors.")

    RE = re.compile(r"\bstd::vector\s*<\s*float\s*>")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if not ctx.in_hot_manifest:
            return
        for lineno, code in enumerate(ctx.code_lines, 1):
            m = self.RE.search(code)
            if m:
                linter.report_line(
                    ctx, lineno, self.id,
                    "`std::vector<float>` in a hot-path manifest file; "
                    "use PoolBuffer or AcquireScratch so the buffer is "
                    "arena-pooled")


class EnvPrefixRule(Rule):
    id = "env-prefix"
    doc = ("all getenv names must start with EXACLIM_ so every knob is "
           "discoverable by prefix and cannot collide with other software.")

    RE = re.compile(r'\bgetenv\s*\(\s*"([^"]*)"')

    def check(self, ctx: FileContext, linter: Linter) -> None:
        for lineno, raw in enumerate(ctx.raw_lines, 1):
            code = strip_comments_keep_strings(raw)
            for m in self.RE.finditer(code):
                name = m.group(1)
                if not name.startswith("EXACLIM_"):
                    linter.report_line(
                        ctx, lineno, self.id,
                        f'getenv("{name}"): environment knobs must be '
                        "EXACLIM_-prefixed")


class AllocGuardIncludeRule(Rule):
    id = "alloc-guard-include"
    doc = ("files using EXACLIM_ASSERT_NO_ALLOC (or the census macros) "
           "must include common/alloc_tracker.hpp.")

    RE = re.compile(r"EXACLIM_(ASSERT_NO_ALLOC|ALLOC_CENSUS(_THREAD)?|"
                    r"ALLOC_SITE)\b")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if ctx.rel.name in ("alloc_tracker.hpp", "alloc_tracker.cpp"):
            return
        if not self.RE.search(ctx.text):
            return
        if "common/alloc_tracker.hpp" not in ctx.text:
            linter.report(ctx.rel, 1, self.id,
                          "uses EXACLIM_ASSERT_NO_ALLOC / "
                          "EXACLIM_ALLOC_CENSUS but does not include "
                          "common/alloc_tracker.hpp")


class LayerChildrenRule(Rule):
    id = "layer-children"
    doc = ("a src/ class deriving from Layer that owns a "
           "std::unique_ptr<…> / LayerPtr member (or a vector of them) "
           "must declare Children(): Params(), StateTensors() and "
           "SetPrecision() reach sublayers only through that list "
           "(DESIGN §5).")

    CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)(?:\s+final)?\s*:"
                          r"([^{;]*)\{")
    OWNER_RE = re.compile(
        r"^\s*(?:std::vector\s*<\s*)?(?:std::unique_ptr\s*<.*>|LayerPtr)"
        r"\s*>?\s*\w+\s*(?:=.*|\{.*\})?$", re.S)
    ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
    CHILDREN_RE = re.compile(r"\bChildren\s*\(")

    def check(self, ctx: FileContext, linter: Linter) -> None:
        if not ctx.rel.as_posix().startswith("src/"):
            return
        code = "\n".join(ctx.code_lines)
        layers = {"Layer"}  # plus classes this file derives from them
        for m in self.CLASS_RE.finditer(code):
            bases = set(re.findall(r"\w+", m.group(2)))
            if not bases & layers:
                continue
            layers.add(m.group(1))
            body = self._top_level(code, m.end())
            if self.CHILDREN_RE.search(body):
                continue
            statements = self.ACCESS_RE.sub(";", body).split(";")
            if any(self.OWNER_RE.match(st) for st in statements):
                lineno = code.count("\n", 0, m.start()) + 1
                linter.report_line(
                    ctx, lineno, self.id,
                    f"{m.group(1)} owns sublayers but declares no "
                    "Children(); list them there, in Params() order")

    @staticmethod
    def _top_level(code: str, start: int) -> str:
        """The class body from just past its `{`, with nested blocks
        (function bodies, nested types) replaced by `;`."""
        out: list[str] = []
        depth = 1
        for c in code[start:]:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
                if depth == 1:
                    out.append(";")
            elif depth == 1:
                out.append(c)
        return "".join(out)


class RepoRule:
    """A cross-file rule: runs once per lint run over the whole tree."""

    id = ""
    doc = ""

    def check_repo(self, linter: Linter) -> None:
        raise NotImplementedError


class KnobDocRule(RepoRule):
    id = "knob-doc"
    doc = ("every EXACLIM_* knob src/ reads — getenv(\"EXACLIM_…\") or a "
           "common/env.hpp Env*(\"EXACLIM_…\") helper — must appear in "
           "README.md, and every README knob-table row (| `EXACLIM_…`) "
           "must name a knob src/ reads: no undocumented knob, no stale "
           "row.")

    READ_RE = re.compile(
        r'\b(?:getenv|Env[A-Z]\w*)\s*\(\s*"(EXACLIM_[A-Z0-9_]+)"')
    ROW_RE = re.compile(r"^\|\s*`(EXACLIM_[A-Z0-9_]+)`")
    MENTION_RE = re.compile(r"\bEXACLIM_[A-Z0-9_]*[A-Z0-9]")

    def check_repo(self, linter: Linter) -> None:
        readme = linter.root / "README.md"
        readme_lines = (readme.read_text(encoding="utf-8").splitlines()
                        if readme.is_file() else [])
        mentioned = {m.group(0) for line in readme_lines
                     for m in self.MENTION_RE.finditer(line)}
        read: set[str] = set()
        for path in iter_files([], linter.root, dirs=["src"]):
            rel = path.relative_to(linter.root)
            raw_lines = path.read_text(encoding="utf-8").splitlines()
            for lineno, raw in enumerate(raw_lines, 1):
                for m in self.READ_RE.finditer(
                        strip_comments_keep_strings(raw)):
                    name = m.group(1)
                    read.add(name)
                    if name not in mentioned and not suppressed(raw, self.id):
                        linter.report(rel, lineno, self.id,
                                      f"{name} is read here but README.md "
                                      "never mentions it; document the knob")
        for lineno, line in enumerate(readme_lines, 1):
            m = self.ROW_RE.match(line)
            if m and m.group(1) not in read:
                linter.report(Path("README.md"), lineno, self.id,
                              f"README knob row {m.group(1)} names a knob "
                              "src/ never reads; delete the stale row")


RULES: list[Rule] = [
    PragmaOnceRule(),
    EndlRule(),
    RawMutexRule(),
    NakedNewRule(),
    UnboundedRecvRule(),
    IncludePathRule(),
    GuardedIncludeRule(),
    HotPathAllocRule(),
    HotPathVectorRule(),
    EnvPrefixRule(),
    AllocGuardIncludeRule(),
    LayerChildrenRule(),
]

REPO_RULES: list[RepoRule] = [
    KnobDocRule(),
]


def load_hot_manifest(path: Path) -> set[str]:
    """Reads the hot-path manifest: one repo-relative path per line,
    '#' comments and blank lines ignored."""
    if not path.is_file():
        return set()
    entries: set[str] = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.add(line)
    return entries


def iter_files(paths: list[str], root: Path = REPO_ROOT,
               dirs: list[str] | None = None) -> list[Path]:
    if paths:
        roots = [Path(p).resolve() for p in paths]
    else:
        roots = [root / d for d in (SRC_DIRS if dirs is None else dirs)]
    files: list[Path] = []
    for r in roots:
        if r.is_file():
            files.append(r)
            continue
        for p in sorted(r.rglob("*")):
            if p.suffix in CPP_SUFFIXES and p.is_file():
                files.append(p)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src bench "
                             "examples tests)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule in [*RULES, *REPO_RULES]:
            print(f"{rule.id}:")
            for line in rule.doc.split("\n"):
                print(f"    {line}")
        return 0

    linter = Linter()
    files = iter_files(args.paths)
    for path in files:
        linter.lint_file(path)
    linter.lint_repo()

    if linter.findings:
        for finding in linter.findings:
            print(finding)
        print(f"\ntools/lint.py: {len(linter.findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"tools/lint.py: OK ({len(files)} files clean, "
          f"{len(RULES) + len(REPO_RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
