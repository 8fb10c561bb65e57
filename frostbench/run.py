#!/usr/bin/env python3
"""frost's benchmark: one workload, one seed, one JSON line.

    python3 frostbench/run.py --workload exhaustive-i1 --seed 1 \
        --seconds 12 --trace 0

Run from the root of a frost checkout. Builds frost and the harness from
source into .bench_build (or $CARGO_TARGET_DIR), generates the workload's
inputs from the seed, measures, checks the outputs, and prints as the last
line of standard output
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 prints the end-to-end metrics, --trace 1 those of a separate
traced run, layer by layer. README.md explains the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["exhaustive-i1", "exhaustive-i4", "file-mixed", "daemon-mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that exceeds this is stuck; its processes are killed.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary dir."""
    out = os.path.join(build_dir, "frostbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j3",
                    "--target", "frost-bench", "frost-tvd"],
                   check=True, stdout=sys.stderr)
    return out


def run_child(cmd, timeout):
    """Runs cmd; on timeout kills it (its daemon dies with it)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out: " + " ".join(cmd))
        sys.exit(3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("frost sources not found next to frostbench/; "
            "run from the root of a frost checkout")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    try:
        bin_dir = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    bench = os.path.join(bin_dir, "frost-bench")
    tvd = os.path.join(bin_dir, "frost-tvd")

    work = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--dir", work]
        rc, _ = run_child([bench, "gen"] + common, RUN_TIMEOUT_S)
        if rc != 0:
            log("input generation failed (exit %d)" % rc)
            return 2
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, "%s-seed%d.tsv" %
                                 (a.workload, a.seed))
        cmd = [bench, "run"] + common + [
            "--seconds", repr(a.seconds), "--trace", str(a.trace),
            "--tvd", tvd, "--trace-out", trace_out]
        rc, out = run_child(cmd, RUN_TIMEOUT_S)
        if rc != 0:
            log("benchmark failed (exit %d)" % rc)
            return rc
        sys.stdout.write(out)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
