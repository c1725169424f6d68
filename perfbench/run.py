#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid|serve|churn|fleet \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (the simulator
libraries from src/ plus the driver perfbench.cc) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset. Later calls only re-run the incremental build.

With --trace 0 the driver is run once for the timed loop and twice
more for set-up alone (set-up memoizes per process, so each sample
needs a fresh one); setup_s is the median of the three. With
--trace 1 one driver run prints the per-layer metrics and writes its
spans next to the build. The last stdout line is the result JSON.

--self-check runs every workload at a tiny length, clean and with a
forced output mismatch, and exits 0 only if the clean runs report no
failed operation and every forced mismatch raises the failure count.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "serve", "churn", "fleet")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    bdir = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "kelp_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "kelp_perfbench")


def drive(binary, args):
    """Run the driver; returns (stdout lines, parsed last line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def run(opts):
    binary = build()
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" %
                        (opts.workload, opts.seed, opts.trace))
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    setups = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, r = drive(binary, common + ["--setup-only"])
            setups.append(r["setup_s"])

    lines, result = drive(binary, common + [
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--spans", stem + ".spans.json",
        "--outputs", stem + ".outputs.txt"])
    for line in lines:
        print(line)
    if not opts.trace:
        own = result["metrics"]["setup_s"]
        setups.append(own["value"])
        print("setup_s samples (one process each): %s" %
              " ".join("%.4f" % s for s in setups))
        own["value"] = statistics.median(setups)
    print(json.dumps(result), flush=True)
    return 0


def self_check():
    """Tiny runs: clean ones pass, forced mismatches are caught."""
    binary = build()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            base = ["--workload", workload, "--seed", "7",
                    "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            _, clean = drive(binary, base)
            _, bad = drive(binary, base + ["--corrupt"])
            good = (clean["failed"] == 0 and clean["correct"] and
                    bad["failed"] > 0 and not bad["correct"])
            ok = ok and good
            print("self-check %-5s trace=%d: clean %d/%d failed, "
                  "forced mismatch %d/%d failed: %s" %
                  (workload, trace, clean["failed"], clean["attempted"],
                   bad["failed"], bad["attempted"],
                   "ok" if good else "FAIL"), flush=True)
    print("self-check: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    opts = p.parse_args()
    if opts.self_check:
        return self_check()
    if opts.workload is None:
        p.error("--workload is required")
    if opts.seed < 0 or opts.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return run(opts)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
