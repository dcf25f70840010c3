#!/usr/bin/env python3
"""Build the ddl benchmark from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: closed_loop_campaign, yield_campaign, service_short_jobs.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); an up-to-date build is a no-op.  Build
output goes to stderr, so the measuring program's last stdout line -- one
JSON object with the keys correct, attempted, failed and metrics -- stays
the last line of this script's stdout.  The exit code is the program's:
0 when every output matched, non-zero on a mismatch or any error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed_loop_campaign", "yield_campaign", "service_short_jobs")


def build(build_dir, env):
    """Configures (once) and builds ddl_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no ddl sources next to perfbench/ (src/ missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ddl_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "ddl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Compiler and library temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    try:
        os.makedirs(env["TMPDIR"], exist_ok=True)
        binary = build(build_dir, env)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    run_dir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(run_dir, "work"),
               "--trace-out", os.path.join(build_dir,
                                           f"trace-{args.workload}.json")]
    try:
        return subprocess.run(command, check=False, env=env).returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
