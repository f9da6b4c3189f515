#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from this checkout and runs one
workload, printing every metric by name with its unit. The last line of
stdout is the JSON result (correct, attempted, failed, metrics).

    python3 perfbench/run.py --workload oneshot-t1 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke       # selftest + every workload, tiny sizes
    python3 perfbench/run.py --self-test   # statistics/seed-mapping tests only

Workloads, metrics and what each layer metric should move: perfbench/README.md.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot-t1", "oneshot-nproc", "serve-trotter")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(out, "configure.log"))
    run_logged(["cmake", "--build", out, "--target", "perfbench",
                "perfbench_selftest", "-j", str(os.cpu_count() or 1)],
               os.path.join(out, "build.log"))
    return out


def run_binary(cmd, capture=False):
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    return proc


def smoke(out):
    if run_binary([os.path.join(out, "perfbench_selftest")]).returncode != 0:
        fail("selftest failed")
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = run_binary([os.path.join(out, "perfbench"), "--workload",
                               workload, "--seconds", "1", "--trace", trace,
                               "--smoke"], capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            good = result.get("correct") is True and result.get("failed") == 0
            print("smoke %-14s trace=%s: %s (%s jobs)"
                  % (workload, trace, "ok" if good else "FAILED",
                     result.get("attempted")))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.self_test):
        parser.error("one of --workload, --smoke, --self-test is required")

    out = build()
    if args.self_test:
        return run_binary([os.path.join(out, "perfbench_selftest")]).returncode
    if args.smoke:
        return smoke(out)
    return run_binary([os.path.join(out, "perfbench"), "--workload",
                       args.workload, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
