#!/usr/bin/env python3
"""Typhoon benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark and the Typhoon sources it measures (CMake, Release)
into .bench_build/perfbench under the repository root, runs one workload,
passes its report through, and exits non-zero when the build fails, the
run fails a correctness gate, or the result line is malformed. The last
line of stdout is the result JSON. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("wordcount_proc", "ack_pipeline", "local_openloop")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_timeout_s(seconds):
    """Kill the binary past this: seven rounds plus rejected rounds,
    bootstrap and convergence take a few times the measured window."""
    return 60 + 4 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    # typhoon_perfbench depends on typhoon_hostd, which it spawns.
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "typhoon_perfbench"])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")[-4000:]
                log(f"perfbench: build failed: {' '.join(cmd)}\n{tail}")
                return False
    return True


def source_sha():
    """The commit when run inside git, else a digest of the measured sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(line):
    """Parse the binary's last stdout line; returns (result, problem)."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, "result keys are not " + ", ".join(sorted(RESULT_KEYS))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None, "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return None, "failed must be a whole number"
    if not result["metrics"]:
        return None, "no metrics"
    if result["correct"] is not True:
        return result, "run reported correct = false"
    return result, None


def run(args):
    binary = BUILD / "typhoon_perfbench"
    hostd = BUILD / "typhoon_src" / "typhoon" / "typhoon_hostd"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hostd", str(hostd), "--source-sha", source_sha()]
    # Own process group, killed whole on timeout. The typhoon_hostd
    # children run in groups of their own and shut down when the killed
    # binary's control channels close.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=str(ROOT))
    timeout = run_timeout_s(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"perfbench: run exceeded {timeout}s and was killed")
        return 1
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result, problem = check_result(lines[-1] if lines else "")
    if result is not None:
        print(lines[-1], flush=True)
    if problem is not None or proc.returncode != 0:
        log(f"perfbench: {problem or 'exit code %d' % proc.returncode}")
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not build():
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
