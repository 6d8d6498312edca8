#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
`perfbench` binary (Release) from the checkout's sources into .bench_build/;
later calls only let the build system confirm it is up to date. Build output
goes to stderr, so standard output carries only the run: the build and
machine it ran on, one "metric" line per metric, and last one JSON object
with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones: setup_s and run_s as the
binary measured them, plus peak_rss_mb, the peak resident memory of the
workload's process, which this script reads from the kernel when the process
exits. With --trace 1 they are the per-layer ones (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("million_churn", "zone_mincost", "threshold_trials")

# Library knobs that change code paths, sizes, thread counts or what gets
# recorded. They are removed from the workload's environment; the binary
# also refuses to start when one is set.
KNOBS = (
    "P2PVOD_SPARSE",
    "P2PVOD_SPARSE_REBUILD_PCT",
    "P2PVOD_GRAIN",
    "P2PVOD_PROBE_WIDTH",
    "P2PVOD_SCALE",
    "P2PVOD_ZONES",
    "P2PVOD_THREADS",
    "P2PVOD_TRACE",
    "P2PVOD_PROFILE",
    "P2PVOD_METRICS",
    "P2PVOD_SERIES",
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no p2pvod sources (CMakeLists.txt, src/) next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds 1..600")

    build()
    env = {key: value for key, value in os.environ.items() if key not in KNOBS}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               cwd=ROOT)
    output = process.stdout.read().decode()
    process.stdout.close()
    # wait4 rather than wait: it returns the resource usage of this one
    # child, whose ru_maxrss (KiB on Linux) is the workload's peak RSS.
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    lines = output.splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(output)
        fail("perfbench exited with code %d" % process.returncode)

    result = json.loads(lines[-1])
    if args.trace == 0:
        peak = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        result["metrics"]["peak_rss_mb"] = peak
        lines.insert(-1, "metric peak_rss_mb %.6g MB" % peak["value"])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
