#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see RATIONALE.md).

    python3 perfbench/run.py --workload fig4|tenants|drain|serve|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root or anywhere else: paths are resolved from this
file. The first call configures and builds the benchmark program (Release)
into .bench_build/ at the repository root; later calls rebuild only what
changed. Every line the program prints goes to stdout; the last one is a
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output check passed.

--workload all runs the four workloads untraced and then traced, and ends
with one JSON object whose metrics are named <workload>.<metric>.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "fgbench")
WORKLOADS = ["fig4", "tenants", "drain", "serve"]
BUILD_TYPE = "Release"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "fgbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
            return head.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                          else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:12]


def run_one(args, workload, trace, commit):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--commit", commit]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # For the benchmark's own tests: a smaller input, and a reference
    # deliberately made wrong so the output check must fail.
    p.add_argument("--scale", type=float)
    p.add_argument("--corrupt-reference", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    commit = source_id()
    if args.workload != "all":
        code, _ = run_one(args, args.workload, args.trace, commit)
        sys.exit(code)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            code, out = run_one(args, workload, trace, commit)
            worst = max(worst, code)
            lines = out.strip().splitlines()
            if code not in (0, 1) or not lines:
                fail("fgbench failed on " + workload, code or 2)
            result = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
