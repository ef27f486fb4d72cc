#!/usr/bin/env python3
"""Builds the chart-to-tables benchmark from source and runs it.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload search_exhaustive --seed 1 \
      --seconds 10 --trace 0
      One run. The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1. The line before
      it is the run's full report.

  python3 perfbench/run.py --workload serve_pruned --seed 1 --report
      The run report: an untraced and a traced run of the workload at the
      seed, merged into one JSON object with the machine, operations
      attempted and failed, every metric with its unit, the DTW
      ground-truth effectiveness figures, and the tracing overhead.

  python3 perfbench/run.py --selftest
      The response checker's self-test.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build);
snapshots and span files are written under that directory too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search_exhaustive", "serve_pruned", "ingest_serve")


def out_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no src/ beside perfbench/; run from a full "
                 "source checkout")
    build_dir = out_dir() / "build"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir


def run_once(build_dir, workload, seed, seconds, trace, ground_truth=False):
    """One run of the benchmark binary; returns (report, result, stdout)."""
    work = out_dir() / "work"
    traces = out_dir() / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(work)]
    if trace:
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if ground_truth:
        cmd.append("--ground-truth")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: run exited with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return report, result, proc.stdout


def report(build_dir, args):
    base, _, _ = run_once(build_dir, args.workload, args.seed, args.seconds,
                          0, ground_truth=True)
    traced, _, _ = run_once(build_dir, args.workload, args.seed, args.seconds,
                            1)
    overhead = {}
    for name, metric in base["end_to_end"].items():
        untraced = metric["value"]
        if name.endswith("_ms") or name in ("setup_s", "throughput_per_s"):
            overhead[name] = traced["end_to_end"][name]["value"] / untraced - 1
    merged = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": base["machine"],
        "inputs": base["inputs"],
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "correct": base["correct"] and traced["correct"],
        "tail_percentile": base["tail_percentile"],
        "end_to_end": base["end_to_end"],
        "per_layer": traced["per_layer"],
        "extra": {**traced["extra"], **base["extra"]},
        "tracing_overhead": overhead,
    }
    print(json.dumps(merged, indent=1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build_dir = build()
    if args.selftest:
        sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")],
                                cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.report:
        report(build_dir, args)
        return
    _, _, stdout = run_once(build_dir, args.workload, args.seed,
                            args.seconds, args.trace)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
