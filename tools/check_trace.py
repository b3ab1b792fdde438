#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON dump produced by DYNAMITE_TRACE.

Two checks, both hard failures:

  1. Schema: the file is a JSON object with a "traceEvents" array; every
     event carries name/ph/pid/tid/ts; "X" (complete) events also carry a
     non-negative dur; "i" (instant) events carry scope "s"; "M" rows are
     thread_name metadata. Unknown phases fail -- the writer only emits
     M/X/i, so anything else means corruption.
  2. Coverage (--min-coverage): for each session.* root name (one per
     Session entry point: session.synthesize, session.migrate,
     session.synthesize_interactive, ...), the union of non-root "X"
     intervals, clipped to the longest root span of that name, must cover
     at least the given fraction of that span's duration ("spans cover
     >=90% of wall time"): if a pipeline stage loses its span, coverage of
     the entry point that runs it drops and this gate catches it.

Exit status: 0 on pass, 1 on any violation (each printed to stderr).
"""

import argparse
import json
import sys

KNOWN_PHASES = {"M", "X", "i"}


def validate_schema(events):
    errors = []
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                errors.append(f"{where}: missing '{key}'")
        ph = e.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            if e.get("name") != "thread_name":
                errors.append(f"{where}: metadata event is not thread_name")
            continue
        if "ts" not in e:
            errors.append(f"{where}: missing 'ts'")
        if ph == "X":
            if "dur" not in e:
                errors.append(f"{where}: complete event missing 'dur'")
            elif e["dur"] < 0:
                errors.append(f"{where}: negative dur {e['dur']}")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant event missing scope 's'")
    return errors


def union_length(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def check_root_coverage(spans, root, min_coverage):
    r0, r1 = root["ts"], root["ts"] + root["dur"]
    if root["dur"] <= 0:
        return [f"root span {root['name']} has zero duration"]
    clipped = []
    for e in spans:
        if e["name"].startswith("session."):
            continue
        s, t = max(e["ts"], r0), min(e["ts"] + e["dur"], r1)
        if t > s:
            clipped.append((s, t))
    coverage = union_length(clipped) / root["dur"]
    print(f"root {root['name']}: {root['dur'] / 1000.0:.3f}ms, "
          f"child-span coverage {coverage:.1%} "
          f"({len(clipped)} overlapping spans)")
    if coverage < min_coverage:
        return [f"{root['name']}: coverage {coverage:.1%} below required "
                f"{min_coverage:.0%}"]
    return []


def check_coverage(events, min_coverage):
    spans = [e for e in events if e.get("ph") == "X"]
    longest = {}
    for e in spans:
        name = e["name"]
        if name.startswith("session.") and (
                name not in longest or e["dur"] > longest[name]["dur"]):
            longest[name] = e
    if not longest:
        return ["no session.* root span in trace"]
    errors = []
    for name in sorted(longest):
        errors += check_root_coverage(spans, longest[name], min_coverage)
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--min-coverage", type=float, default=None,
                        help="required fraction of each session.* root "
                             "span covered by child spans (e.g. 0.9)")
    args = parser.parse_args(argv)

    with open(args.trace) as f:
        doc = json.load(f)
    if "traceEvents" not in doc or not isinstance(doc["traceEvents"], list):
        print("trace: missing traceEvents array", file=sys.stderr)
        return 1
    events = doc["traceEvents"]

    errors = validate_schema(events)
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    counts = {}
    for e in events:
        counts[e.get("ph")] = counts.get(e.get("ph"), 0) + 1
    print(f"{args.trace}: {len(events)} events "
          f"({counts.get('X', 0)} spans, {counts.get('i', 0)} instants, "
          f"{counts.get('M', 0)} metadata), {dropped} dropped")

    if args.min_coverage is not None:
        errors += check_coverage(events, args.min_coverage)

    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
