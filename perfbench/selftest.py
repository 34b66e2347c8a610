#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py [--workloads respecialize,steady,native]

Checks, for each workload named:
  * the same seed gives the same request sequence, a different seed another;
  * two runs with the same seed report identical deterministic numbers
    (sim_ms_mean untraced; the per-layer counts and sizes traced);
  * every run reports exactly the metrics BENCHMARK.json declares for its
    mode, each with the declared unit, and passes its own correctness checks
    (a traced run also checks that every replayed kcc compile reproduces
    CompileModule's listing);
and that run.py fails without printing a result when only BENCHMARK.json and
perfbench/ are present. The native workload builds its shared objects from
scratch on every run, so it costs a few minutes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Numbers that depend on the seed alone.
DETERMINISTIC_E2E = ["sim_ms_mean"]
DETERMINISTIC_LAYER = [
    "kcc.compiles", "kcc.miniptx_instrs", "kcc.folded_consts", "kcc.strength_reduced",
    "vcuda.cache_hits", "vcuda.cache_misses", "vcuda.disk_hits", "vgpu.launches",
    "vgpu.warp_instrs", "launch.tier_decoded", "launch.tier_native",
    "launch.tier_native_shape", "native.tu_kb", "native.builds", "native.shape_builds",
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def result(workload, seed, trace, seconds):
    code, out, err = run(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err[-2000:])
        return None
    return json.loads(lines[-1])


def listing(workload, seed):
    code, out, _ = run(["--workload", workload, "--seed", str(seed), "--list"])
    return out if code == 0 else None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layer


def test_workload(workload, seconds):
    e2e, layer = declared()
    a, b, c = listing(workload, 1), listing(workload, 1), listing(workload, 2)
    check(a is not None and a == b, workload + ": same seed, same request sequence")
    check(a is not None and a != c, workload + ": different seed, different sequence")

    for trace, want, keys in ((0, e2e, DETERMINISTIC_E2E), (1, layer, DETERMINISTIC_LAYER)):
        first, second = result(workload, 7, trace, seconds), result(workload, 7, trace, seconds)
        check(first is not None and second is not None,
              "%s trace=%d: two runs completed" % (workload, trace))
        if first is None or second is None:
            continue
        for r in (first, second):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  "%s trace=%d: every request verified" % (workload, trace))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, "%s trace=%d: exactly the declared metrics and units"
                  % (workload, trace))
        same = [k for k in keys if first["metrics"][k]["value"] == second["metrics"][k]["value"]]
        check(same == keys, "%s trace=%d: deterministic numbers repeat (%s)"
              % (workload, trace, ", ".join(sorted(set(keys) - set(same))) or "all"))
        if trace == 0:
            # On steady and native the seed moves sim_ms_mean through a few
            # discrete choices, so two seeds may agree; some of three must not.
            base = first["metrics"]["sim_ms_mean"]["value"]
            differs = False
            for seed in (8, 9, 10):
                other = result(workload, seed, 0, seconds)
                if other is not None and other["metrics"]["sim_ms_mean"]["value"] != base:
                    differs = True
                    break
            check(differs, workload + ": other seeds give another sim_ms_mean")


def test_no_sources():
    scratch = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                           "selftest-nosrc")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steady", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=scratch, env=env,
                          capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the library sources run.py fails and prints no result")
    shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="respecialize,steady,native")
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    test_no_sources()
    for workload in args.workloads.split(","):
        test_workload(workload, args.seconds)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
