#!/usr/bin/env python3
"""Repo-specific invariant linter.

Enforces rules no generic static analyzer knows about — the contracts that
keep the estimator algebra reproducible and the batch kernels fast:

  forbidden-rng          Entropy-seeded or libc randomness (``rand``,
                         ``srand``, ``std::random_device``) is banned
                         everywhere: every experiment must be a
                         deterministic function of its master seed. Driver
                         randomness comes from src/util/rng.h, scheme
                         randomness from src/prng/.
  hot-path-std-function  ``std::function`` is banned in the per-tuple
                         layers (src/sketch, src/prng, src/sampling,
                         src/stream): type-erased dispatch on the update
                         path is exactly what the batched kernels removed.
                         Per-chunk uses carry an explicit waiver.
  batch-kernel-modulo    The hardware ``%`` operator is banned inside
                         ``*Batch`` kernel bodies; bucket reduction must go
                         through the Granlund-Montgomery mulhi path
                         (PairwiseHash::FastModBuckets) or bitmasks.
  mutator-metrics        Every public sketch mutator (``Update``,
                         ``UpdateBatch``, ``Merge``) defined in src/sketch,
                         every stream operator/source mutator
                         (``OnTuple``, ``OnTuples``, ``OnWindow``, ``Next``,
                         ``NextChunk``) defined in src/stream, and every
                         shard-engine entry point (``Run``, ``Restore``,
                         ``WriteCheckpoint``) defined in
                         src/stream/shard_engine must contain a
                         SKETCHSAMPLE_METRIC_* hook so production counters
                         never silently lose coverage.
  simd-intrinsics-confined  Raw ``<immintrin.h>`` includes and ``_mm*``/
                         ``__m256``/``__m512`` intrinsic tokens are allowed
                         only in the per-ISA kernel TUs
                         (``src/prng/simd/kernels_*.cc``); everything else
                         must go through the runtime-dispatched
                         ``simd::Kernels()`` table, which carries the cpuid
                         guard and the scalar bit-exactness contract.
  simd-scalar-twin       Every kernel slot a vector table registers with a
                         designated initializer must also be registered in
                         the scalar table (``kernels_scalar.cc``): the
                         scalar twin is the reference implementation the
                         dispatch tests compare against and the guaranteed
                         fallback on non-x86 hosts.
  direct-include         Library code (src/, tools/) that names a common
                         standard-library symbol must directly include its
                         canonical header instead of leaning on transitive
                         includes, which break silently under refactors.
  raw-atomic-confined    Raw ``std::atomic`` / ``std::memory_order`` tokens
                         are confined to the atomics-policy seam
                         (src/util/atomics_policy.h) and the metrics
                         counters (src/util/metrics.*). Everything else
                         writes against an atomics policy so the model
                         checker (src/mc/) can instantiate it — a raw
                         atomic elsewhere is concurrency the checker
                         cannot see. Harnesses that legitimately drive
                         real threads carry a file-level waiver.
  node-container-in-hot-path  Node-based containers (``std::set``,
                         ``std::map``, ``std::multiset``, ``std::multimap``,
                         ``std::deque``, ``std::list``) are banned in
                         src/sketch, src/stream and src/service/push_source.*:
                         summaries are copied into every snapshot and merged
                         per lane, and the PushSource queue sits on every
                         ingested tuple, so their storage must be contiguous.
                         Node-by-node copies, merges and frees there once
                         cost ~100 ns per offered tuple.
  tsan-supp-rationale    Every suppression entry in tsan.supp must be
                         preceded by a ``# rationale:`` comment naming the
                         third-party component it silences. The file is
                         intentionally empty; suppressions must not creep
                         in silently.
  self-contained-header  Every first-party header must compile as its own
                         translation unit (include-what-you-use hygiene).

Waivers: append ``lint:allow(<rule>)`` in a comment on the offending line
(or the line directly above) together with a justification. Waivers are
for cold paths with a measured reason, not for convenience. A whole file
can be waived with ``lint:allow-file(<rule>)`` in a comment anywhere in
the file — reserved for rules whose unit of exemption really is the file
(e.g. a multi-threaded test harness under raw-atomic-confined).

Usage:
  tools/lint_invariants.py [--root DIR] [--no-headers] [--cxx BIN] [FILE...]

With FILE arguments, only those files are scanned (header rule still runs
only on listed headers). Exit codes: 0 clean, 1 violations, 2 internal
error. Adding a rule: write a ``check_*`` function returning a list of
Violation, register it in CHECKS, document it in docs/STATIC_ANALYSIS.md,
and add a self-test to tests/lint_invariants_test.py.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
CPP_SUFFIXES = (".h", ".cc")
WAIVER_RE = re.compile(r"lint:allow\(([a-z-]+(?:,\s*[a-z-]+)*)\)")
FILE_WAIVER_RE = re.compile(r"lint:allow-file\(([a-z-]+(?:,\s*[a-z-]+)*)\)")

# Directories whose code runs per tuple; std::function here is a hot-path
# dispatch bug unless explicitly waived.
HOT_PATH_DIRS = ("src/sketch", "src/prng", "src/sampling", "src/stream")

# The one place allowed to define driver randomness primitives.
RNG_HOME = "src/util/rng.h"


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces (newlines survive), so regex line/column
    positions in the result map 1:1 onto the original file.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def waived(lines: list[str], lineno: int, rule: str) -> bool:
    """True when `rule` is waived on `lineno` or the line above (1-based)."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            m = WAIVER_RE.search(lines[idx])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def file_waived(text: str, rule: str) -> bool:
    """True when `rule` is waived for the whole file via lint:allow-file."""
    for m in FILE_WAIVER_RE.finditer(text):
        if rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    root: str  # absolute repo root (for sibling-file lookups)
    text: str  # original contents
    code: str  # comments/strings blanked
    lines: list[str]  # original lines, for waiver lookup

    @classmethod
    def load(cls, root: str, rel: str) -> "SourceFile":
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            text = fh.read()
        return cls(
            path=rel,
            root=root,
            text=text,
            code=strip_comments_and_strings(text),
            lines=text.splitlines(),
        )


# --------------------------------------------------------------------------
# forbidden-rng
# --------------------------------------------------------------------------

FORBIDDEN_RNG = [
    # (pattern over comment-stripped code, human name)
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\brandom_device\b"), "random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd\s*::\s*s?rand\s*\("), "std::rand()/std::srand()"),
]


def check_forbidden_rng(f: SourceFile) -> list[Violation]:
    if f.path == RNG_HOME:
        return []
    found = []
    for pattern, name in FORBIDDEN_RNG:
        for m in pattern.finditer(f.code):
            lineno = line_of(f.code, m.start())
            if waived(f.lines, lineno, "forbidden-rng"):
                continue
            found.append(
                Violation(
                    f.path,
                    lineno,
                    "forbidden-rng",
                    f"{name} breaks seeded reproducibility; derive seeds via "
                    "MixSeed/Xoshiro256 (src/util/rng.h)",
                )
            )
    return found


# --------------------------------------------------------------------------
# hot-path-std-function
# --------------------------------------------------------------------------


def check_hot_path_std_function(f: SourceFile) -> list[Violation]:
    if not f.path.startswith(HOT_PATH_DIRS):
        return []
    found = []
    for m in re.finditer(r"\bstd\s*::\s*function\b", f.code):
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "hot-path-std-function"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "hot-path-std-function",
                "std::function in a per-tuple layer; use a template "
                "parameter, virtual batch call, or waive with a per-chunk "
                "cost argument",
            )
        )
    return found


# --------------------------------------------------------------------------
# batch-kernel-modulo
# --------------------------------------------------------------------------

BATCH_DEF_RE = re.compile(r"\b(\w*Batch)\s*\(")


def _batch_kernel_bodies(code: str):
    """Yields (name, body_start, body_end) for *Batch function definitions.

    A match is a definition (not a call) when, after the balanced parameter
    list and any qualifiers (const/noexcept/override/...), the next
    significant character is '{'.
    """
    for m in BATCH_DEF_RE.finditer(code):
        pos = m.end() - 1  # at '('
        depth = 0
        n = len(code)
        while pos < n:
            if code[pos] == "(":
                depth += 1
            elif code[pos] == ")":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        if pos >= n:
            continue
        pos += 1
        # Skip qualifier tokens up to '{' or a terminator.
        while pos < n and code[pos] not in "{;,)=":
            pos += 1
        if pos >= n or code[pos] != "{":
            continue
        body_start = pos
        depth = 0
        while pos < n:
            if code[pos] == "{":
                depth += 1
            elif code[pos] == "}":
                depth -= 1
                if depth == 0:
                    yield m.group(1), body_start, pos
                    break
            pos += 1


MODULO_RE = re.compile(r"%(?![=%])|%=")


def check_batch_kernel_modulo(f: SourceFile) -> list[Violation]:
    if not f.path.startswith("src"):
        return []
    found = []
    for name, start, end in _batch_kernel_bodies(f.code):
        body = f.code[start:end]
        for m in MODULO_RE.finditer(body):
            lineno = line_of(f.code, start + m.start())
            if waived(f.lines, lineno, "batch-kernel-modulo"):
                continue
            found.append(
                Violation(
                    f.path,
                    lineno,
                    "batch-kernel-modulo",
                    f"hardware % inside batch kernel {name}(); use "
                    "PairwiseHash::FastModBuckets (mulhi magic) or a bitmask",
                )
            )
    return found


# --------------------------------------------------------------------------
# mutator-metrics
# --------------------------------------------------------------------------

# Per-directory mutator vocabularies. src/sketch mutates counters; the
# src/stream operator/source layer mutates per-tuple ingest state (source
# pulls, fault injection, controller windows) and must stay just as
# observable in production. The shard engine's entry points mutate the
# merged sketch and checkpoint/controller state across worker threads, so
# they carry the same obligation; its scope is listed first because prefix
# matching takes the first hit and src/stream would shadow it.
MUTATOR_SCOPES = (
    ("src/stream/shard_engine", "Run|Restore|WriteCheckpoint"),
    ("src/sketch", "Update|UpdateBatch|Merge"),
    ("src/stream", "OnTuples|OnTuple|OnWindow|NextChunk|Next"),
)


def check_mutator_metrics(f: SourceFile) -> list[Violation]:
    methods = next(
        (
            methods
            for prefix, methods in MUTATOR_SCOPES
            if f.path.startswith(prefix)
        ),
        None,
    )
    if methods is None or not f.path.endswith(".cc"):
        return []
    # The optional <T> matches member definitions of class templates
    # (ShardEngine<SketchT>::Run); nested template arguments are out of
    # scope for this regex and would need a balanced-angle-bracket walk.
    mutator_def_re = re.compile(r"\b(\w+(?:<\w+>)?)::(%s)\s*\(" % methods)
    forward_re = re.compile(r"\b(%s)\s*\(" % methods)
    found = []
    for m in mutator_def_re.finditer(f.code):
        cls, method = m.group(1), m.group(2)
        # Walk from the '(' to the body, mirroring _batch_kernel_bodies.
        pos = m.end() - 1
        depth = 0
        n = len(f.code)
        while pos < n:
            if f.code[pos] == "(":
                depth += 1
            elif f.code[pos] == ")":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        pos += 1
        while pos < n and f.code[pos] not in "{;,)=":
            pos += 1
        if pos >= n or f.code[pos] != "{":
            continue  # declaration, not definition
        body_start = pos
        depth = 0
        while pos < n:
            if f.code[pos] == "{":
                depth += 1
            elif f.code[pos] == "}":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        body = f.code[body_start:pos]
        lineno = line_of(f.code, m.start())
        if "SKETCHSAMPLE_METRIC" in body:
            continue
        # Thin forwarding wrappers (a body that just calls another public
        # mutator, e.g. Update -> UpdateBatch or Next -> NextChunk) inherit
        # the callee's hook.
        if forward_re.search(body):
            continue
        if waived(f.lines, lineno, "mutator-metrics"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "mutator-metrics",
                f"{cls}::{method}() has no SKETCHSAMPLE_METRIC_* hook; "
                "instrument it (see src/util/metrics.h) so production "
                "counters cover every mutation path",
            )
        )
    return found


# --------------------------------------------------------------------------
# direct-include
# --------------------------------------------------------------------------

# Curated high-precision map: symbol pattern -> canonical header. Only
# symbols whose home header is unambiguous are listed; the goal is catching
# transitive-include reliance, not reimplementing include-what-you-use.
DIRECT_INCLUDE_RULES = [
    (re.compile(r"\bstd\s*::\s*vector\b"), "vector"),
    (re.compile(r"\bstd\s*::\s*string\b"), "string"),
    (re.compile(r"\bstd\s*::\s*optional\b"), "optional"),
    (re.compile(r"\bstd\s*::\s*function\b"), "functional"),
    (re.compile(r"\bstd\s*::\s*(?:multi)?map\b"), "map"),
    (re.compile(r"\bstd\s*::\s*(?:multi)?set\b"), "set"),
    (re.compile(r"\bstd\s*::\s*unordered_map\b"), "unordered_map"),
    (re.compile(r"\bstd\s*::\s*unordered_set\b"), "unordered_set"),
    (re.compile(r"\bstd\s*::\s*(?:shared_ptr|unique_ptr|make_shared|make_unique|weak_ptr)\b"), "memory"),
    (re.compile(r"\bstd\s*::\s*atomic\b"), "atomic"),
    (re.compile(r"\bstd\s*::\s*(?:mutex|lock_guard|unique_lock|scoped_lock)\b"), "mutex"),
    (re.compile(r"\bstd\s*::\s*thread\b"), "thread"),
    (re.compile(r"\bstd\s*::\s*(?:sort|stable_sort|nth_element|min|max|clamp|fill|copy|shuffle|lower_bound|upper_bound|accumulate(?!\w))\b"), "algorithm"),
    (re.compile(r"\bstd\s*::\s*(?:sqrt|log|log2|exp|pow|fabs|isnan|isfinite|ceil|floor|lround|llround)\b"), "cmath"),
    (re.compile(r"\bstd\s*::\s*(?:move|forward|swap|pair|exchange)\b"), "utility"),
    (re.compile(r"\bstd\s*::\s*numeric_limits\b"), "limits"),
    (re.compile(r"\bstd\s*::\s*(?:ifstream|ofstream|fstream)\b"), "fstream"),
    (re.compile(r"\bstd\s*::\s*(?:stringstream|ostringstream|istringstream)\b"), "sstream"),
    (re.compile(r"\bstd\s*::\s*(?:invalid_argument|runtime_error|out_of_range|logic_error)\b"), "stdexcept"),
    (re.compile(r"\b(?:std\s*::\s*)?u?int(?:8|16|32|64)_t\b"), "cstdint"),
]

# std::accumulate actually lives in <numeric>; handled separately to keep
# the algorithm pattern simple.
ACCUMULATE_RE = re.compile(r"\bstd\s*::\s*(?:accumulate|iota|reduce)\b")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.MULTILINE)


def check_direct_include(f: SourceFile) -> list[Violation]:
    if not f.path.startswith(("src", "tools")):
        return []
    includes = set(INCLUDE_RE.findall(f.text))
    # A source file directly including its own header inherits that header's
    # includes as part of its interface contract; only same-named pairs get
    # this grace, everything else must include directly.
    own_header = f.path[:-3] + ".h" if f.path.endswith(".cc") else None
    inherited: set[str] = set()
    if own_header and own_header in includes:
        try:
            with open(
                os.path.join(f.root, own_header), encoding="utf-8"
            ) as fh:
                inherited = set(INCLUDE_RE.findall(fh.read()))
        except OSError:
            pass
    available = includes | inherited
    found = []
    rules = DIRECT_INCLUDE_RULES + [(ACCUMULATE_RE, "numeric")]
    for pattern, header in rules:
        if header in available:
            continue
        m = pattern.search(f.code)
        if m is None:
            continue
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "direct-include"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "direct-include",
                f"uses {m.group(0)} without direct #include <{header}> "
                "(transitive includes break silently under refactors)",
            )
        )
    return found


# --------------------------------------------------------------------------
# simd-intrinsics-confined
# --------------------------------------------------------------------------

# The per-ISA kernel translation units — the only files allowed to touch raw
# vector intrinsics. Everything else (including dispatch.h/kernels.h, which
# must stay compilable without -m flags for the self-contained-header rule)
# goes through the simd::KernelTable function pointers.
SIMD_KERNEL_FILE_RE = re.compile(r"^src/prng/simd/kernels_[a-z0-9_]+\.cc$")

SIMD_INTRINSIC_TOKEN_RE = re.compile(
    r"\b__m(?:128|256|512)[id]?\b|\b_mm(?:256|512)?_\w+\s*\("
)


def check_simd_intrinsics_confined(f: SourceFile) -> list[Violation]:
    """Raw <immintrin.h> usage is confined to the per-ISA kernel TUs.

    Intrinsics scattered through the tree defeat the dispatch layer twice
    over: the code stops working on hosts without the ISA (no runtime cpuid
    guard), and the scalar-twin bit-exactness contract stops covering it.
    """
    if SIMD_KERNEL_FILE_RE.match(f.path):
        return []
    found = []
    for m in re.finditer(r'#\s*include\s*[<"](immintrin\.h|x86intrin\.h)[">]', f.code):
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "simd-intrinsics-confined"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "simd-intrinsics-confined",
                f"includes <{m.group(1)}> outside src/prng/simd/kernels_*.cc; "
                "vector code must live in the dispatched kernel TUs",
            )
        )
    for m in SIMD_INTRINSIC_TOKEN_RE.finditer(f.code):
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "simd-intrinsics-confined"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "simd-intrinsics-confined",
                f"raw vector intrinsic '{m.group(0).rstrip('(').strip()}' outside "
                "src/prng/simd/kernels_*.cc; go through simd::Kernels()",
            )
        )
    return found


# --------------------------------------------------------------------------
# simd-scalar-twin
# --------------------------------------------------------------------------

SIMD_SCALAR_TABLE = "src/prng/simd/kernels_scalar.cc"

# Designated-initializer fields of a KernelTable literal: `.field = value`.
KERNEL_TABLE_FIELD_RE = re.compile(r"^\s*\.([a-z0-9_]+)\s*=", re.MULTILINE)


def check_simd_scalar_twin(f: SourceFile) -> list[Violation]:
    """Every vector kernel slot must have a scalar twin in the scalar table.

    The dispatch contract (src/prng/simd/dispatch.h) promises that capping
    SKETCHSAMPLE_ISA=scalar reproduces any vector level bit-for-bit. That
    only holds if no vector table registers a kernel slot the scalar table
    does not: such a slot would have no reference implementation to test
    against and no fallback on non-x86 hosts. Table literals use designated
    initializers, so the slot sets are parsed syntactically.
    """
    if not SIMD_KERNEL_FILE_RE.match(f.path) or f.path == SIMD_SCALAR_TABLE:
        return []
    try:
        with open(os.path.join(f.root, SIMD_SCALAR_TABLE), encoding="utf-8") as fh:
            scalar_code = strip_comments_and_strings(fh.read())
    except OSError:
        return [
            Violation(
                f.path,
                1,
                "simd-scalar-twin",
                f"cannot read {SIMD_SCALAR_TABLE} to verify scalar twins",
            )
        ]
    scalar_fields = set(KERNEL_TABLE_FIELD_RE.findall(scalar_code))
    found = []
    for m in KERNEL_TABLE_FIELD_RE.finditer(f.code):
        field = m.group(1)
        if field in scalar_fields or field == "name":
            continue
        lineno = line_of(f.code, m.start(1))
        if waived(f.lines, lineno, "simd-scalar-twin"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "simd-scalar-twin",
                f"vector kernel slot '.{field}' has no scalar twin registered "
                f"in {SIMD_SCALAR_TABLE}; the scalar table is the reference "
                "semantics every ISA level is tested against",
            )
        )
    return found


# --------------------------------------------------------------------------
# raw-atomic-confined
# --------------------------------------------------------------------------

# The only files allowed to name std::atomic / std::memory_order directly:
# the atomics-policy seam itself, and the metrics counters (monotonic
# relaxed counters with no inter-thread protocol — nothing for the model
# checker to check).
RAW_ATOMIC_HOMES = (
    "src/util/atomics_policy.h",
    "src/util/metrics.h",
    "src/util/metrics.cc",
)

RAW_ATOMIC_RE = re.compile(r"\bstd\s*::\s*(atomic\w*|memory_order\w*)\b")


def check_raw_atomic_confined(f: SourceFile) -> list[Violation]:
    """Raw std::atomic use is confined to the atomics-policy seam.

    Concurrency primitives are written against an atomics policy
    (src/util/atomics_policy.h) so the model checker (src/mc/) can swap in
    instrumented atomics and exhaustively explore their interleavings. A
    raw std::atomic anywhere else is synchronization the checker cannot
    see — it gets neither interleaving coverage nor mutation testing.
    Multi-threaded test/bench harnesses that drive *real* threads around a
    checked primitive carry a file-level waiver with a rationale.
    """
    if f.path in RAW_ATOMIC_HOMES:
        return []
    if file_waived(f.text, "raw-atomic-confined"):
        return []
    found = []
    for m in RAW_ATOMIC_RE.finditer(f.code):
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "raw-atomic-confined"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "raw-atomic-confined",
                f"raw std::{m.group(1)} outside the atomics-policy seam; "
                "write against a Policy template parameter "
                "(src/util/atomics_policy.h) so src/mc/ can model-check it, "
                "or add a file-level waiver with a rationale",
            )
        )
    return found


# --------------------------------------------------------------------------
# node-container-in-hot-path
# --------------------------------------------------------------------------

NODE_CONTAINER_PATHS = ("src/sketch/", "src/stream/", "src/service/push_source.")
NODE_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(set|map|multiset|multimap|deque|list)\b"
)


def check_node_container_in_hot_path(f: SourceFile) -> list[Violation]:
    """No node-based containers where storage is copied or drained per tuple.

    Bottom-k summaries are copied into every published snapshot and merged
    from every lane, and PushSource carries every ingested tuple; a node
    container there pays an allocation, a pointer chase and a free per
    element on each of those passes. Contiguous storage (a sorted vector, a
    ring) keeps them O(k) memcpy-friendly passes.
    """
    if not f.path.startswith(NODE_CONTAINER_PATHS):
        return []
    found = []
    for m in NODE_CONTAINER_RE.finditer(f.code):
        lineno = line_of(f.code, m.start())
        if waived(f.lines, lineno, "node-container-in-hot-path"):
            continue
        found.append(
            Violation(
                f.path,
                lineno,
                "node-container-in-hot-path",
                f"std::{m.group(1)} in a snapshot/ingest hot path; keep the "
                "storage contiguous (sorted std::vector, ring buffer) or "
                "waive with a measured cold-path reason",
            )
        )
    return found


CHECKS = [
    check_forbidden_rng,
    check_hot_path_std_function,
    check_batch_kernel_modulo,
    check_mutator_metrics,
    check_direct_include,
    check_simd_intrinsics_confined,
    check_simd_scalar_twin,
    check_raw_atomic_confined,
    check_node_container_in_hot_path,
]


# --------------------------------------------------------------------------
# tsan-supp-rationale
# --------------------------------------------------------------------------

TSAN_SUPP = "tsan.supp"


def check_tsan_supp_rationale(root: str) -> list[Violation]:
    """Every tsan.supp entry needs a '# rationale:' comment above it.

    The suppression file is intentionally empty: first-party races are bugs,
    not suppressions. If an entry ever appears (third-party library noise),
    it must be preceded — within its contiguous comment block — by a line
    starting '# rationale:' naming the component and why the race is benign
    or out of our control. This keeps suppressions from creeping in during
    a rushed CI fix.
    """
    path = os.path.join(root, TSAN_SUPP)
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    found = []
    has_rationale = False  # in the comment block immediately above
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            has_rationale = False
        elif line.startswith("#"):
            if line[1:].strip().lower().startswith("rationale:"):
                has_rationale = True
        else:
            if not has_rationale:
                found.append(
                    Violation(
                        TSAN_SUPP,
                        lineno,
                        "tsan-supp-rationale",
                        f"suppression entry '{line}' has no '# rationale:' "
                        "comment in the block above it; name the third-party "
                        "component and why the report is benign",
                    )
                )
            # One rationale covers the entries until the next blank line.
    return found


# --------------------------------------------------------------------------
# self-contained-header
# --------------------------------------------------------------------------


def check_headers(root: str, headers: list[str], cxx: str) -> list[Violation]:
    """Compiles each header as a standalone TU with -fsyntax-only."""
    found = []
    with tempfile.TemporaryDirectory(prefix="lint_hdr_") as tmp:
        tu = os.path.join(tmp, "tu.cc")
        for rel in headers:
            with open(tu, "w", encoding="utf-8") as fh:
                fh.write(f'#include "{rel}"\n')
            proc = subprocess.run(
                [
                    cxx,
                    "-std=c++20",
                    "-fsyntax-only",
                    "-Wall",
                    "-Wextra",
                    "-Werror",
                    f"-I{root}",
                    tu,
                ],
                capture_output=True,
                text=True,
                check=False,
            )
            if proc.returncode != 0:
                detail = proc.stderr.strip().splitlines()
                head = detail[0] if detail else "compile failed"
                found.append(
                    Violation(
                        rel,
                        1,
                        "self-contained-header",
                        f"header does not compile standalone: {head}",
                    )
                )
    return found


def collect_files(root: str) -> list[str]:
    files = []
    for base in SCAN_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(CPP_SUFFIXES):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel.replace(os.sep, "/"))
    return sorted(files)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None, help="repo root (default: this script's ../)"
    )
    parser.add_argument(
        "--no-headers",
        action="store_true",
        help="skip the self-contained-header compile check",
    )
    parser.add_argument(
        "--cxx",
        default=os.environ.get("CXX") or "c++",
        help="compiler for the header check (default: $CXX or c++)",
    )
    parser.add_argument(
        "files", nargs="*", help="restrict the scan to these repo-relative files"
    )
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    )

    scan_tsan_supp = True
    if args.files:
        files = [f.replace(os.sep, "/") for f in args.files]
        missing = [f for f in files if not os.path.isfile(os.path.join(root, f))]
        if missing:
            print(f"lint_invariants: no such file: {', '.join(missing)}", file=sys.stderr)
            return 2
        scan_tsan_supp = TSAN_SUPP in files
        files = [f for f in files if f.endswith(CPP_SUFFIXES)]
    else:
        files = collect_files(root)

    violations: list[Violation] = []
    if scan_tsan_supp:
        violations.extend(check_tsan_supp_rationale(root))
    for rel in files:
        try:
            src = SourceFile.load(root, rel)
        except (OSError, UnicodeDecodeError) as err:
            print(f"lint_invariants: cannot read {rel}: {err}", file=sys.stderr)
            return 2
        for check in CHECKS:
            violations.extend(check(src))

    if not args.no_headers:
        headers = [f for f in files if f.endswith(".h")]
        if shutil.which(args.cxx) is None:
            print(
                f"lint_invariants: compiler '{args.cxx}' not found; "
                "skipping self-contained-header check",
                file=sys.stderr,
            )
        else:
            violations.extend(check_headers(root, headers, args.cxx))

    for v in sorted(violations, key=lambda v: (v.path, v.line, v.rule)):
        print(v)
    if violations:
        print(
            f"lint_invariants: {len(violations)} violation(s) across "
            f"{len({v.path for v in violations})} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_invariants: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
