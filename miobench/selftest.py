#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

    python3 miobench/selftest.py

It checks that run.py knows exactly the workloads of BENCHMARK.json.
For each it runs miobench/run.py at 2% of the full data and op counts,
untraced and traced, and checks that:
  - the run exits 0, its outputs were correct and no op failed;
  - the untraced run emits exactly the end-to-end metrics, and the
    traced run exactly the per-layer metrics, each with its unit;
  - every span in the traced run's trace file lies inside its parent.
It also checks that malformed arguments exit non-zero, and so does a
run from a tree holding only BENCHMARK.json and miobench/. Exits 0 when
all checks pass and 1 otherwise.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, str(ROOT / "miobench"))
from run import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(ROOT / "miobench" / "run.py")]
TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.02"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run(args, cmd=RUN, cwd=ROOT):
    done = subprocess.run(cmd + args, cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


def check_units(label, got, expected):
    want = {m["name"]: m["unit"] for m in expected}
    check(set(got) == set(want),
          f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name in got:
            check(got[name]["unit"] == unit,
                  f"{label}: {name} has unit {got[name]['unit']!r}, "
                  f"want {unit!r}")


def check_spans(label, path):
    spans = {}
    with open(ROOT / path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    check(len(spans) > 0, f"{label}: empty trace file")
    bad = 0
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            bad += 1
        if s["parent"] == 0:
            continue
        p = spans.get(s["parent"])
        if p is None or not (p["start_ns"] <= s["start_ns"] and
                             s["end_ns"] <= p["end_ns"]):
            bad += 1
    check(bad == 0, f"{label}: {bad} spans outside their parent")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in bench["workloads"]]
    check(listed == list(WORKLOADS),
          f"BENCHMARK.json lists {listed}, run.py knows {list(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            label = f"{name} trace={trace}"
            before = len(failures)
            rc, lines = run(["--workload", name, "--trace", str(trace)]
                            + TINY)
            check(rc == 0, f"{label}: exit {rc}")
            if rc != 0:
                continue
            result = json.loads(lines[-1])
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] > 0,
                  f"{label}: correct={result['correct']} "
                  f"failed={result['failed']}")
            check_units(label, result["metrics"],
                        bench["per_layer" if trace else "end_to_end"])
            if trace:
                files = [json.loads(l)["trace_file"] for l in lines[:-1]
                         if l.startswith('{"trace_file"')]
                check(len(files) == 1, f"{label}: no trace file reported")
                if files:
                    check_spans(label, files[0])
            if len(failures) == before:
                print(f"ok   {label}", file=sys.stderr)

    name = WORKLOADS[0]
    before = len(failures)
    for bad in (["--workload", "no_such_workload", "--trace", "0"] + TINY,
                ["--workload", name, "--trace", "0", "--seed", "x",
                 "--seconds", "1"],
                ["--workload", name, "--trace", "2"] + TINY,
                ["--workload", name, "--trace", "0", "--bogus", "1"] + TINY,
                ["--workload", name, "--trace", "0", "--seed", "1"]):
        rc, lines = run(bad)
        check(rc != 0 and not lines, f"bad arguments accepted: {bad}")

    # Without src/ the build must fail loudly, not print a result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "miobench", bare / "miobench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = run(["--workload", name, "--trace", "0"] + TINY,
                    cmd=[sys.executable, "miobench/run.py"], cwd=bare)
    check(rc != 0 and not lines, "a tree without src/ printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    if len(failures) == before:
        print("ok   malformed arguments and a bare tree rejected",
              file=sys.stderr)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        sys.exit(1)
    print("all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
