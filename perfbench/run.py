#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. Builds the iatf library, the
iatf_served daemon and the benchmark binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
binary, and checks that its result names exactly the metrics
BENCHMARK.json lists for the mode: end_to_end for --trace 0, per_layer for
--trace 1. The binary's output is passed through; its last line is the
result JSON. --selftest builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build; the build log goes to a file."""
    for needed in ("CMakeLists.txt", "src", "include", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"no iatf source tree here ({needed} missing)", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed")


def run_group(cmd, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the binary's daemon included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"timed out after {timeout} s")
    return proc.returncode, out


def check_result(line, spec, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, units "
                         f"{[k for k in want if k in got and got[k] != want[k]]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    if args.selftest:
        code, out = run_group([os.path.join(build_dir, "perfbench_tests"),
                               spec_path], 120)
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}", 2)
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(build_dir, "iatf", "tools", "iatf_served"),
           "--workdir", os.path.relpath(workdir, ROOT)]
    code, out = run_group(cmd, timeout=min(170, 2 * args.seconds + 90))
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        die(f"perfbench exited {code}")
    try:
        check_result(lines[-1], spec, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(out)
        die(f"bad result line: {e}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
