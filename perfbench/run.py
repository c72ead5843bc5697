#!/usr/bin/env python3
"""Builds and runs the randrank benchmark from the root of a checkout.

    python3 perfbench/run.py --workload wire --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (the library sources under src/ plus the
benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one workload. The program's output is passed through; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Before printing it, this script checks that the metrics are exactly
the ones BENCHMARK.json lists for the mode (end_to_end untraced, per_layer
traced), with the listed units. Exits nonzero, without a result line, when
the checkout cannot be built or the output does not match; exits nonzero
with the result line when a correctness gate failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700


def run_timeout_s(seconds):
    """A run measures `seconds` (twice over on a traced run's two passes)
    plus set-ups, the wire check, warm-ups and probes."""
    return 2 * seconds + 90


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_to_end(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compiler processes too) and waits for it before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out, err


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "serve",
                                       "sharded_rank_server.h")):
        fail(f"no randrank sources under {root}/src")
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            code, _, _ = run_to_end(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                    stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd)} exited {code}")


def git_sha(root):
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def check_result(line, spec, traced):
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"unexpected keys {sorted(result)}"
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return None, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            return None, f"{name}: unit {metrics[name].get('unit')} != {unit}"
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    workloads = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    if os.path.commonpath([build_dir, root]) != root:
        fail(f"build directory {build_dir} is outside the checkout")
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "randrank_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        code, out, err = run_to_end(cmd, run_timeout_s(args.seconds), cwd=root,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or not lines[-1]:
        sys.stdout.write(out)
        fail(f"benchmark exited {code} without a result")
    result, problem = check_result(lines[-1], spec, bool(args.trace))
    if result is None:
        sys.stdout.write(out)
        fail(problem)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
