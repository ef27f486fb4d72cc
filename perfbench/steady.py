#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and compares the spread
of every end-to-end metric with its bound in BENCHMARK.json.

  python3 perfbench/steady.py --workload serve_pruned --runs 10 --sets 2

Each run lasts BENCHMARK.json's run_seconds and uses its own seed (set s,
run i -> seed 1 + s*runs + i). For each set and metric it prints the
median, the quartiles (Python's statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. Every spread must stay
within its bound; `steady` marks spreads under a third of the bound. An
ungated row, setup_first_s, gives the spread of a run's first set-up alone
(from the run report), beside setup_s, the median of a run's set-ups. With
--sets 2 it also reports how far the second set's median moved from the
first's in the metric's worse direction, against the bound, and whether the
share of failed operations is identical in every run. Exits 1 if any check
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    """One untraced run; returns (result, report)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"steady: run failed (seed {seed}): exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            r, report = one_run(args.workload, seed, seconds)
            r["setup_first_s"] = report["extra"]["setup_first_s"]["value"]
            results.append(r)
            print(f"set {s + 1} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in r["metrics"].items()),
                  flush=True)
        sets.append(results)

    ok = True
    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "sets": []}
    for s, results in enumerate(sets):
        ok &= all(r["correct"] for r in results)
        block = {"failed_share": [r["failed"] / r["attempted"]
                                  for r in results],
                 "metrics": {}}
        for name, m in spec.items():
            st = summarize([r["metrics"][name]["value"] for r in results])
            st["bound"] = m["bound"]
            st["within_bound"] = st["spread"] <= m["bound"]
            st["steady"] = st["spread"] < m["bound"] / 3
            ok &= st["within_bound"]
            block["metrics"][name] = st
        block["setup_first_s"] = summarize(
            [r["setup_first_s"] for r in results])
        summary["sets"].append(block)

    print(f"\n{'metric':<20} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for s, block in enumerate(summary["sets"]):
        for name, st in block["metrics"].items():
            verdict = ("steady" if st["steady"] else
                       "within bound" if st["within_bound"] else "OVER BOUND")
            print(f"{name:<20} {s + 1:>3} {st['median']:>11.5g} "
                  f"{st['q1']:>11.5g} {st['q3']:>11.5g} "
                  f"{st['spread']:>7.3f} {st['bound']:>6.2f}  {verdict}")
        st = block["setup_first_s"]
        print(f"{'setup_first_s':<20} {s + 1:>3} {st['median']:>11.5g} "
              f"{st['q1']:>11.5g} {st['q3']:>11.5g} {st['spread']:>7.3f} "
              f"{'-':>6}  ungated")
    if args.sets == 2:
        first, second = summary["sets"]
        drift = {}
        print(f"\n{'metric':<20} {'worse_by':>9} {'bound':>6}  verdict")
        for name, m in spec.items():
            a = first["metrics"][name]["median"]
            b = second["metrics"][name]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            drift[name] = {"worse_by": worse, "bound": m["bound"],
                           "ok": worse <= m["bound"]}
            ok &= drift[name]["ok"]
            print(f"{name:<20} {worse:>9.3f} {m['bound']:>6.2f}  "
                  f"{'ok' if drift[name]['ok'] else 'WORSE THAN BOUND'}")
        same_share = len(set(first["failed_share"] +
                             second["failed_share"])) == 1
        summary["drift"] = drift
        summary["failed_share_identical"] = same_share
        ok &= same_share
        print(f"failed share identical across runs: {same_share}")
    summary["ok"] = ok
    print(json.dumps(summary))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
