#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload table3|bulk --seed N --seconds S --trace 0|1
                             [--smoke] [--corrupt-reference]

Run from the root of a source tree. The program is built from ../src with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
using the default build type of the root CMakeLists.txt. The run clears
the DYNAMITE_* environment knobs so the library resolves to its sequential
defaults, and records the host (nproc, effective parallelism, compiler,
build type, revision, seed) next to the results.

Output: the driver's per-scenario rows and run record, a host record, and
last the result object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero without a result when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
CLEARED_ENV = ("DYNAMITE_NUM_THREADS", "DYNAMITE_TRACE", "DYNAMITE_FAILPOINTS", "DYNAMITE_DEBUG")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def default_build_type():
    """The root CMakeLists.txt's default CMAKE_BUILD_TYPE."""
    with open(os.path.join(ROOT, "CMakeLists.txt")) as f:
        match = re.search(r"set\(CMAKE_BUILD_TYPE\s+(\w+)\)", f.read())
    return match.group(1) if match else "RelWithDebInfo"


def build(out_dir, build_type):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=" + build_type]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out_dir, "perfbench_driver")


def source_digest():
    """Digest of the library and benchmark sources: the checkout's identity
    when it is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return rev.stdout.strip() if rev.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["table3", "bulk"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true", help="tiny scale, runs in seconds")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="test hook: check against a deliberately wrong reference")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no source tree next to perfbench/ (expected CMakeLists.txt and src/)")

    build_type = default_build_type()
    driver = build(build_dir(), build_type)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("driver exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")

    # Measured after the run, so it cannot disturb it.
    spin = subprocess.run([driver, "--spin-test"], env=env, stdout=subprocess.PIPE, text=True)
    host = json.loads(spin.stdout.splitlines()[-1]) if spin.returncode == 0 else {}
    host.update({
        "row": "host",
        "seed": args.seed,
        "cmake_build_type": build_type,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "cleared_env": list(CLEARED_ENV),
    })

    for line in lines[:-1]:
        print(line)
    print(json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
