#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Run from the repository root:

  python3 perfbench/run.py --workload paper32 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

The build goes to .bench_build/ (configured once, then rebuilt only when
sources change); build output goes to stderr so that the last line of
stdout is the benchmark's JSON result. Traced runs (--trace 1) also write
their spans to .bench_out/spans-<workload>-seed<seed>.jsonl.
"""
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found; "
             "run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main(argv):
    build()
    args = list(argv)
    if _flag(args, "--trace") == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        name = f"spans-{_flag(args, '--workload')}-seed{_flag(args, '--seed')}"
        args += ["--spans-out", os.path.join(OUT_DIR, name + ".jsonl")]
    env = dict(os.environ)
    env.pop("GLOCKS_JOBS", None)  # the benchmark fixes its own job count
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY, *args], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


def _flag(args, name):
    """Value following `name` in args, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
