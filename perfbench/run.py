#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload respecialize|steady|native \
        --seed N --seconds S --trace 0|1

The benchmark program, kbench (perfbench/src, linked against the libraries
in src/), is built with CMake in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; build output goes to stderr. The last line
of stdout is the run's JSON result, whose metrics are checked against
BENCHMARK.json. Exits nonzero, printing no result, when the sources or the
toolchain are missing, the build fails, or the metrics differ from the
declared ones.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "kbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "kbench")


def check_metrics(result, traced):
    """The result must carry exactly the metrics BENCHMARK.json declares for
    its mode, each with the declared unit. Returns an error or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing %s, undeclared %s, wrong unit %s" % (
            missing, extra, units)
    return None


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # The compilers (and the native tier's host-compiler builds) write their
    # temporary files under the build tree, not the system temp directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(build_dir, env)
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    done = subprocess.run([binary] + args + ["--out-dir", build_dir], stdout=subprocess.PIPE,
                          text=True, env=env)
    lines = done.stdout.splitlines()
    result = lines.pop() if lines and lines[-1].startswith('{"correct"') else None
    for line in lines:
        print(line)
    if result is not None:
        error = check_metrics(json.loads(result), traced)
        if error:
            fail(error)
        print(result)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
