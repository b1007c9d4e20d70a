#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload serve_small|serve_bulk|corec_s3d \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. The last stdout line is the result object; span dumps and
one result record per run land in <build dir>/out. --smoke runs every
workload briefly at tiny sizes, traced and untraced, and checks that each
metric named in BENCHMARK.json is reported and that verification passes.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_small", "serve_bulk", "corec_s3d")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(bdir):
    """Configures and builds the benchmark and corec-server (incremental)."""
    cmake_dir = os.path.join(bdir, "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", jobs,
         "--target", "perfbench", "perfbench_server"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return cmake_dir


def source_rev():
    """git revision when available, plus a digest of the measured sources."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "nogit"
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (rev, digest.hexdigest()[:12])


def run_workload(cmake_dir, out_dir, rev, workload, seed, seconds, trace,
                 smoke=False):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [os.path.join(cmake_dir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", os.path.join(cmake_dir, "corec-server"),
           "--out-dir", out_dir, "--rev", rev]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke(cmake_dir, out_dir, rev):
    """Each workload in both modes at tiny sizes: all metrics, all correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(cmake_dir, out_dir, rev, workload, 1,
                                     0.5, trace, smoke=True)
            tag = "%s trace=%d" % (workload, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no result line" % tag)
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: exit %d, correct=%s, failed=%d"
                                % (tag, code, result["correct"],
                                   result["failed"]))
            missing = [n for n in names[trace] if n not in result["metrics"]]
            extra = [n for n in result["metrics"] if n not in names[trace]]
            if missing or extra:
                problems.append("%s: missing %s, unlisted %s"
                                % (tag, missing, extra))
            print("smoke %-24s exit %d, %d metrics, %d ops"
                  % (tag, code, len(result["metrics"]), result["attempted"]))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    bdir = build_dir()
    try:
        cmake_dir = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    rev = source_rev()
    if args.smoke:
        return smoke(cmake_dir, out_dir, rev)
    code, out = run_workload(cmake_dir, out_dir, rev, args.workload,
                             args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
