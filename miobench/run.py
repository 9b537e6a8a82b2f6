#!/usr/bin/env python3
"""Build and run the MioDB end-to-end benchmark (see README.md).

    python3 miobench/run.py --workload <name> --seed <n> --seconds <n> \
        --trace <0|1> [--scale <f>]

Run from the root of a source tree. The benchmark binary is built from
src/ with CMake under $CARGO_TARGET_DIR (default .bench_build), then run
once. Its result, one JSON object, is the last line of standard output;
lines before it carry details (sample counts, tail percentiles, the
trace file). Any failure -- a bad argument, a missing source tree, a
failed build, a crash, a run over RUN_LIMIT_S -- exits non-zero
without a result.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ycsb_a_1k", "ycsb_c_256")
# The wall-clock limit of one run of the binary: past it the run is
# killed and fails, so the whole script ends within 180 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def fail(message):
    print(f"miobench: {message}", file=sys.stderr)
    sys.exit(1)


def whole(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"not a whole number in [{lo}, {hi}]: {text!r}")
        return int(text)
    return parse


def scale(text):
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not re.fullmatch(r"[0-9.]+", text) or not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"not a number in (0, 1]: {text!r}")
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="MioDB end-to-end benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=whole(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=whole(1, 600))
    parser.add_argument("--trace", required=True, type=whole(0, 1))
    parser.add_argument("--scale", type=scale, default="1",
                        help="fraction of the full data and op counts "
                             "(the self-test runs tiny sizes)")
    return parser.parse_args(argv)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no store sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "miobench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "miobench"),
                      "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "miobench", "-j", jobs])
    for step in steps:
        try:
            # Build output goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, cwd=ROOT,
                                  timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")
    return build_dir


def main(argv):
    args = parse_args(argv)
    build_dir = build()
    cmd = [str(build_dir / "miobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    trace_file = None
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(trace_file)]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s and was killed")
    if proc.returncode != 0:
        fail(f"benchmark exited {proc.returncode}")

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    for line in lines[:-1]:
        print(line)
    if trace_file is not None:
        print(json.dumps({"trace_file": str(trace_file.relative_to(ROOT))}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
