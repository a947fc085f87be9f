#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <announce|loop|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles ../src) in
.bench_build/perfbench, optimized; later calls rebuild incrementally. The
benchmark binary prints a stamp, notes, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}; this script checks
that object against BENCHMARK.json and passes everything through. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "p4p_perfbench"
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(targets=("p4p_perfbench",)):
    """Configures (once) and builds the requested targets; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(BUILD_DIR), "-j", build_jobs(), "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_revision():
    """Git revision when the checkout is a git repository, plus a digest of
    the sources the benchmark compiles (a checkout need not be one)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    rev = "nogit"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{rev}+src-{digest.hexdigest()[:12]}"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message when the result line breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", source_revision()]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    problem = check_result(lines[-1], bool(args.trace))
    if problem:
        sys.stderr.write(proc.stdout)
        fail(problem)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
