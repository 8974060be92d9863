#!/usr/bin/env python3
"""Host-time benchmark of the anton-comm simulator.

Run from the repository root:

    python3 perfbench/run.py --workload md-steps --seed 1 --seconds 20 --trace 0

Each run builds perfbench/ (a CMake package of its own that compiles the
simulator sources) into .bench_build/perfbench, runs one workload and prints
its result as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
metrics plus a Chrome trace file under .bench_build/perfbench/runs/.

--workload all runs every workload untraced, then the corrupt-digest
self-check, and prints every end-to-end metric under its own name; it exits
nonzero when a result check fails or the self-check is not counted.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["md-steps", "ping-sweep", "serve-mix"]
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 10


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (Path("src").is_dir() and Path("tools/plan_registry.cpp").is_file()):
        die("run from the repository root: the simulator sources are missing")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    binary = build_dir / "perfbench"
    before = binary.stat().st_mtime if binary.exists() else None
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    if binary.stat().st_mtime != before:
        # A compile just loaded every core; let the host settle before any
        # timing, or the first run after a build reads slow.
        time.sleep(SETTLE_AFTER_BUILD_S)
    return binary


def run_one(binary, build_dir, workload, seed, seconds, trace,
            corrupt=False, capture_stderr=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pinned", str(HERE / "pinned.json"),
           "--out-dir", str(build_dir / "runs")]
    if corrupt:
        cmd.append("--corrupt-digest")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def run_all(binary, build_dir, seed, seconds):
    ok = True
    named = {}
    for w in WORKLOADS:
        proc = run_one(binary, build_dir, w, seed, seconds, 0,
                       capture_stderr=True)
        sys.stderr.write(proc.stderr)
        result = last_json(proc.stdout)
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"{w}: result checks FAILED", file=sys.stderr)
            ok = False
            continue
        for line in proc.stderr.splitlines():
            if line.startswith("METRIC "):
                _, name, value, unit = line.split()[:4]
                named[name] = (float(value), unit)
        for name in ("peak_rss_mb", "setup_s"):
            m = result["metrics"][name]
            named[f"{name}[{w}]"] = (m["value"], m["unit"])
        print(f"{w}: {result['attempted']} attempted, "
              f"{result['failed']} failed")
    # The corrupt-digest self-check: one pinned digest is corrupted, and the
    # run must report it as a failed operation and exit nonzero.
    proc = run_one(binary, build_dir, "md-steps", seed, 1, 0, corrupt=True,
                   capture_stderr=True)
    result = last_json(proc.stdout)
    counted = (proc.returncode != 0 and result is not None
               and result["failed"] >= 1 and not result["correct"])
    print(f"corrupt-digest self-check: "
          f"{result['failed'] if result else '?'} failed operation(s), "
          f"exit {proc.returncode} -> {'counted' if counted else 'NOT COUNTED'}")
    ok = ok and counted
    for name, (value, unit) in named.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-digest", action="store_true",
                    help="corrupt one pinned digest; the run must fail")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        die(f"build failed: {e}")
    if args.workload == "all":
        sys.exit(run_all(binary, build_dir, args.seed, args.seconds))
    try:
        proc = run_one(binary, build_dir, args.workload, args.seed,
                       args.seconds, args.trace, args.corrupt_digest)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
