#!/usr/bin/env python3
"""Builds and runs the MFV end-to-end benchmark.

Run from the root of a checkout:

    python3 mfvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds mfvbench/CMakeLists.txt (the mfv
libraries from src/ plus the mfvbench binary) into .bench_build/; later
calls only re-check that build. The binary's stdout passes through
unchanged, so the last line is the run's JSON result. Build output goes
to stderr. Extra flags (--smoke, --corrupt) are handed to the binary.
`--workload all` runs every workload in turn.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "mfvbench")


def build():
    """Configures (once) and builds mfvbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mfvbench: no mfv source tree at %s/src" % ROOT, file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("mfvbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", CMAKE_DIR, "--target", "mfvbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_id():
    """Names the code under test: the git commit when there is one, plus a
    digest of the source files (a plain checkout has no git metadata)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = "git:" + head.stdout.strip() + " " + ident
    return ident


def option(args, flag):
    return args[args.index(flag) + 1] if flag in args and args.index(flag) + 1 < len(args) else None


def binary_command(args, ident):
    # A relative socket directory keeps unix socket paths short however
    # deep the checkout sits.
    command = [BINARY] + args + ["--workdir", os.path.relpath(os.path.join(BUILD, "run")),
                                 "--commit", ident]
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"), option(args, "--seed"))
        command += ["--trace-out", os.path.join(traces, name)]
    return command


def run_all(args, ident):
    """--workload all: every workload of BENCHMARK.json in turn, each in its
    own process; the last line maps each workload to its result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    results, code = {}, 0
    for name in names:
        one = list(args)
        one[one.index("--workload") + 1] = name
        done = subprocess.run(binary_command(one, ident), stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        code = code or done.returncode
    print(json.dumps(results))
    return code


def main(args):
    if not build():
        print("mfvbench: build failed", file=sys.stderr)
        return 1
    ident = source_id()
    if option(args, "--workload") == "all":
        return run_all(args, ident)
    sys.stdout.flush()
    return subprocess.run(binary_command(args, ident)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
