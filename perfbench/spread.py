#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (interquartile range over median)
against its bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads build,report,serve --seeds 1-10
    python3 perfbench/spread.py --workloads serve --seeds 1-5 --out runs.json

To compare two saved sets (for example the baseline of two sets of ten
runs) as a Markdown table of each set's quartiles and the second
median's change against the bound:

    python3 perfbench/spread.py --compare set1.json set2.json

Each run is the exact command in BENCHMARK.json plus the workload,
seed and seconds arguments, untraced. A run that fails or reports
incorrect outputs stops the script. A spread is marked WIDE when it is
above a third of the metric's bound; --compare fails when a spread is
above its bound or the second median is worse than the first by more
than the bound. Every metric is checked, `setup_s` included.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, took


def summarize(bench, workload, results):
    rows = []
    ok = True
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= m["bound"] / 3 else "WIDE"
        ok &= verdict == "ok"
        rows.append((workload, m["name"], med, q1, q3, spread, m["bound"], verdict))
    return rows, ok


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def compare(bench, first, second):
    """Markdown table: each set's q1/median/q3 and spread per metric and
    workload, and the second median's change against the first."""
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f))
    print("| workload | metric | unit | set 1 q1 / median / q3 | spread | set 2 q1 / median / q3 | spread | change | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for workload in sets[0]:
        for m in bench["end_to_end"]:
            cells, medians = [], []
            for runs in sets:
                values = [r["metrics"][m["name"]]["value"] for r in runs[workload]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                cells += [f"{q1:.6g} / {med:.6g} / {q3:.6g}", f"{(q3 - q1) / med:.3f}"]
                ok &= (q3 - q1) / med <= m["bound"]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
            ok &= worse <= m["bound"]
            print(f"| {workload} | `{m['name']}` | {m['unit']} | {cells[0]} | {cells[1]} | {cells[2]} | {cells[3]} | {change:+.3f} | {m['bound']} |")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="build,report,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write every run's result line here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saved sets instead of running")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        return compare(bench, *args.compare)
    all_rows, all_ok, record = [], True, {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            result, took = run_once(bench, workload, seed)
            results.append(result)
            record.setdefault(workload, []).append({"seed": seed, "seconds": round(took, 1), **result})
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr, flush=True)
        rows, ok = summarize(bench, workload, results)
        all_rows += rows
        all_ok &= ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    if all_rows:
        print(f"{'workload':<8} {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for w, name, med, q1, q3, spread, bound, verdict in all_rows:
            print(f"{w:<8} {name:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6} {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
