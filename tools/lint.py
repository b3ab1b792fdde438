#!/usr/bin/env python3
"""Dynamite project lint: mechanical invariants clang-tidy can't express.

Scans src/ (C++ sources and headers) for project-rule violations:

  raw-assert        no raw assert() — use DYNAMITE_CHECK / DYNAMITE_DCHECK
                    (util/check.h), which survive NDEBUG and print file:line.
  raw-print         no printf/fprintf/vprintf/vfprintf stream output outside
                    util/debug_log.h — route diagnostics through
                    debug_log::Logf (gated tracing) or debug_log::Errorf
                    (unconditional), so lines never tear across threads.
                    Buffer formatters (snprintf, vsnprintf) are fine.
  raw-thread        no std::thread anywhere in src/ — evaluation is
                    sequential, and an ad-hoc thread would let an escaping
                    exception terminate the process instead of reaching the
                    crash-free boundaries (failpoint::GuardExceptions).
  raw-mutex         no std::mutex / std::shared_mutex /
                    std::condition_variable / std::lock_guard /
                    std::unique_lock / std::scoped_lock outside
                    util/thread_annotations.h — use dynamite::Mutex /
                    MutexLock so every critical section is visible to
                    clang's -Wthread-safety analysis.
  bare-suppression  every DYNAMITE_NO_THREAD_SAFETY_ANALYSIS must carry a
                    justification comment on the same line or the line above
                    (the suppression policy; see src/util/README.md).
  raw-chrono        no std::chrono outside util/{timer,deadline,trace} — use
                    Timer / Deadline for measurement and trace spans for
                    attribution; scattered clocks fragment the time axis the
                    trace layer depends on.
  adhoc-counter     no ad-hoc std::atomic tally members (…hits_, …misses_,
                    …fallbacks_, …) outside util/{failpoint,metrics,trace} —
                    register a metrics::Counter so the tally shows up in
                    Session::Metrics() instead of a private field.

Findings print as `path:line: [rule] message` (clickable in editors and CI
logs). Exit status 1 if anything is found, 0 on a clean tree.

Usage:
  tools/lint.py                 # lint src/ of the repo containing this script
  tools/lint.py --root DIR      # lint DIR/src instead
  tools/lint.py --self-test     # run the embedded rule tests and exit
"""

import argparse
import os
import re
import sys

# Each rule: (id, regex, message, set of path suffixes exempt from the rule).
# Paths are repo-relative with forward slashes.
RULES = [
    (
        "raw-assert",
        re.compile(r"(?<![A-Za-z0-9_])assert\s*\("),
        "raw assert() compiles out under NDEBUG; use DYNAMITE_CHECK or "
        "DYNAMITE_DCHECK (util/check.h)",
        set(),
    ),
    (
        "raw-print",
        re.compile(r"(?<![A-Za-z0-9_])(?:std::)?v?f?printf\s*\("),
        "stream output outside util/debug_log.h tears across threads; use "
        "debug_log::Logf or debug_log::Errorf",
        {"src/util/debug_log.h"},
    ),
    (
        "raw-thread",
        re.compile(r"std::thread(?![A-Za-z0-9_])"),
        "std::thread bypasses the crash-free boundaries; the library "
        "evaluates on the calling thread",
        set(),
    ),
    (
        "raw-mutex",
        re.compile(
            r"std::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
            r"condition_variable(?:_any)?|lock_guard|unique_lock|"
            r"scoped_lock|shared_lock)(?![A-Za-z0-9_])"
        ),
        "unannotated std synchronization is invisible to -Wthread-safety; "
        "use dynamite::Mutex / MutexLock (util/thread_annotations.h)",
        {"src/util/thread_annotations.h"},
    ),
    (
        "raw-chrono",
        re.compile(r"std::chrono(?![A-Za-z0-9_])"),
        "raw std::chrono fragments the time axis; use Timer (util/timer.h), "
        "Deadline (util/deadline.h), or a trace span (util/trace.h)",
        {
            "src/util/timer.h",
            "src/util/deadline.h",
            "src/util/trace.h",
            "src/util/trace.cc",
        },
    ),
    (
        "adhoc-counter",
        re.compile(
            r"std::atomic<[^>]*>\s+\w*(?:hits|misses|fallbacks|refreshes|"
            r"lookups|builds|retries|drops)_?\s*[{;=]"
        ),
        "ad-hoc atomic tallies are invisible to Session::Metrics(); use "
        "metrics::GetCounter / DYNAMITE_METRIC_INC (util/metrics.h)",
        {
            "src/util/failpoint.h",
            "src/util/metrics.h",
            "src/util/trace.h",
            "src/util/trace.cc",
        },
    ),
]

SUPPRESSION = "DYNAMITE_NO_THREAD_SAFETY_ANALYSIS"
SUPPRESSION_EXEMPT = {"src/util/thread_annotations.h"}  # the #define itself

CPP_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

_STRING_OR_CHAR = re.compile(
    r'"(?:[^"\\\n]|\\.)*"'  # string literal
    r"|'(?:[^'\\\n]|\\.)*'"  # char literal
)
_LINE_COMMENT = re.compile(r"//.*$")


def strip_code_line(line, in_block_comment):
    """Removes comments and literal contents from one line of C++.

    Returns (code_only_line, still_in_block_comment). Literal text is blanked
    rather than removed so column positions stay meaningful. This is a
    line-based approximation (no raw strings, no line continuations), which
    is exactly enough for token-presence rules.
    """
    out = []
    i = 0
    while i < len(line):
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        m = _STRING_OR_CHAR.match(line, i)
        if m:
            out.append('""' if line[i] == '"' else "''")
            i = m.end()
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        out.append(line[i])
        i += 1
    return "".join(out), in_block_comment


def has_comment(line):
    """True if the raw line contains (or continues) a comment with text."""
    return "//" in line or "/*" in line or "*" == line.strip()[:1]


def lint_file(rel_path, text):
    """Yields (line_number, rule_id, message) findings for one file."""
    findings = []
    lines = text.split("\n")
    in_block = False
    prev_raw = ""
    for lineno, raw in enumerate(lines, start=1):
        code, in_block = strip_code_line(raw, in_block)
        for rule_id, pattern, message, exempt in RULES:
            if rel_path in exempt:
                continue
            # static_assert / DYNAMITE_DCHECK-style prefixed identifiers are
            # excluded by each pattern's lookbehind.
            for _m in pattern.finditer(code):
                findings.append((lineno, rule_id, message))
        if SUPPRESSION in code and rel_path not in SUPPRESSION_EXEMPT:
            if not (has_comment(raw) or has_comment(prev_raw)):
                findings.append(
                    (
                        lineno,
                        "bare-suppression",
                        f"{SUPPRESSION} without a justification comment on "
                        "this line or the line above (suppression policy: "
                        "src/util/README.md)",
                    )
                )
        prev_raw = raw
    return findings


def lint_tree(root):
    """Lints every C++ file under root/src; returns a list of finding strings."""
    src = os.path.join(root, "src")
    results = []
    for dirpath, _dirnames, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if not name.endswith(CPP_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for lineno, rule_id, message in lint_file(rel, text):
                results.append(f"{rel}:{lineno}: [{rule_id}] {message}")
    return results


# ------------------------------------------------------------- self-test ---

# (name, path the snippet pretends to live at, snippet, expected rule ids)
SELF_TEST_CASES = [
    ("raw assert flagged", "src/a/x.cc", "assert(x > 0);", ["raw-assert"]),
    ("static_assert allowed", "src/a/x.cc", "static_assert(sizeof(int) == 4);", []),
    ("DCHECK allowed", "src/a/x.cc", "DYNAMITE_DCHECK(a <= b);", []),
    ("assert in comment allowed", "src/a/x.cc", "// assert(x) is banned", []),
    ("assert in string allowed", "src/a/x.cc", 'log("assert(x)");', []),
    ("assert in block comment allowed", "src/a/x.cc", "/*\n assert(x);\n*/", []),
    ("fprintf flagged", "src/a/x.cc", 'std::fprintf(stderr, "boom\\n");', ["raw-print"]),
    ("printf flagged", "src/a/x.cc", 'printf("%d", 1);', ["raw-print"]),
    ("vfprintf flagged", "src/a/x.cc", "std::vfprintf(stderr, f, args);", ["raw-print"]),
    ("snprintf allowed", "src/a/x.cc", "std::snprintf(buf, sizeof(buf), f);", []),
    ("vsnprintf allowed", "src/a/x.cc", "std::vsnprintf(b, n, f, a);", []),
    (
        "fprintf allowed in debug_log.h",
        "src/util/debug_log.h",
        "std::vfprintf(stderr, format, args);",
        [],
    ),
    ("std::thread flagged", "src/a/x.cc", "std::thread t(fn);", ["raw-thread"]),
    (
        "std::thread flagged in util/",
        "src/util/x.h",
        "std::vector<std::thread> threads_;",
        ["raw-thread"],
    ),
    ("std::mutex flagged", "src/a/x.cc", "std::mutex mu_;", ["raw-mutex"]),
    ("std::lock_guard flagged", "src/a/x.cc", "std::lock_guard<T> l(mu);", ["raw-mutex"]),
    ("std::condition_variable flagged", "src/a/x.cc", "std::condition_variable cv;", ["raw-mutex"]),
    ("std::shared_lock flagged", "src/a/x.cc", "std::shared_lock<T> l(mu);", ["raw-mutex"]),
    (
        "std::mutex allowed in thread_annotations.h",
        "src/util/thread_annotations.h",
        "std::mutex mu_;",
        [],
    ),
    ("dynamite Mutex allowed", "src/a/x.cc", "Mutex mu_;\nMutexLock lock(mu_);", []),
    (
        "bare suppression flagged",
        "src/a/x.cc",
        "void Get() DYNAMITE_NO_THREAD_SAFETY_ANALYSIS {",
        ["bare-suppression"],
    ),
    (
        "justified suppression allowed (line above)",
        "src/a/x.cc",
        "// Lock-free readers synchronize via release/acquire on size_.\n"
        "void Get() DYNAMITE_NO_THREAD_SAFETY_ANALYSIS {",
        [],
    ),
    (
        "justified suppression allowed (same line)",
        "src/a/x.cc",
        "void Get() DYNAMITE_NO_THREAD_SAFETY_ANALYSIS {  // reads are acquire-published",
        [],
    ),
    ("std::chrono flagged", "src/a/x.cc",
     "auto t = std::chrono::steady_clock::now();", ["raw-chrono"]),
    ("std::chrono allowed in timer.h", "src/util/timer.h",
     "std::chrono::steady_clock::time_point start_;", []),
    ("std::chrono allowed in trace.cc", "src/util/trace.cc",
     "return std::chrono::steady_clock::now().time_since_epoch().count();", []),
    ("std::chrono in comment allowed", "src/a/x.cc",
     "// std::chrono is banned here", []),
    ("adhoc counter flagged", "src/a/x.cc",
     "std::atomic<uint64_t> cache_hits_{0};", ["adhoc-counter"]),
    ("adhoc counter assignment flagged", "src/a/x.cc",
     "std::atomic<size_t> fallbacks = 0;", ["adhoc-counter"]),
    ("adhoc counter allowed in failpoint.h", "src/util/failpoint.h",
     "std::atomic<uint64_t> hits_{0};", []),
    ("non-tally atomic allowed", "src/a/x.cc",
     "std::atomic<uint64_t> size_{0};", []),
    (
        "two findings on one line",
        "src/a/x.cc",
        'if (!x) { assert(x); fprintf(stderr, "x\\n"); }',
        ["raw-assert", "raw-print"],
    ),
]


def self_test():
    failures = 0
    for name, path, snippet, expected in SELF_TEST_CASES:
        got = [rule for _ln, rule, _msg in lint_file(path, snippet)]
        if got != expected:
            print(f"FAIL {name}: expected {expected}, got {got}")
            failures += 1
        else:
            print(f"ok   {name}")
    print(f"{len(SELF_TEST_CASES) - failures}/{len(SELF_TEST_CASES)} self-test cases passed")
    return failures == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script's directory)",
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run embedded rule tests and exit"
    )
    args = parser.parse_args()

    if args.self_test:
        sys.exit(0 if self_test() else 1)

    findings = lint_tree(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        sys.exit(1)
    print("lint: clean")


if __name__ == "__main__":
    main()
