#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, as the acceptance check
states it: run every workload N times, each time with another --seed, and
for each metric take the distance between the first and third quartile of
the N values (statistics.quantiles(values, n=4)) as a share of their
median. A metric is steady when that spread is below a third of its bound.

Run from the repository root:  python3 benchmark/spread.py [--runs 10]
[--first-seed 1] [--seconds S] [--out benchmark/out/spread-report.txt]

The command, workloads, bounds and run length come from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", default="benchmark/out/spread-report.txt")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    started = time.time()
    # Seeds outermost, so every workload sees every part of the session.
    values = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            for name, v in run_once(bench["command"], w, seed, seconds).items():
                values[w].setdefault(name, []).append(v)
            print(f"seed {seed} {w}: done at {time.time() - started:.0f} s", flush=True)
    lines = [f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
             f"{seconds} s each, {time.time() - started:.0f} s in all",
             f"{'workload':<20}{'metric':<22}{'median':>16}{'spread':>9}{'bound':>7}  verdict"]
    worst = 0.0
    for w in workloads:
        for m in bench["end_to_end"]:
            s, med = spread(values[w][m["name"]])
            third = m["bound"] / 3
            # setup_s is judged on its medians only, never on its spread.
            judged = m["name"] != "setup_s"
            verdict = ("not judged" if not judged else
                       "steady" if s < third else
                       "within bound" if s <= m["bound"] else "EXCEEDS BOUND")
            if judged:
                worst = max(worst, s / m["bound"])
            lines.append(f"{w:<20}{m['name']:<22}{med:>16.4f}{s:>9.4f}{m['bound']:>7.2f}  {verdict}")
            lines.append(f"{'':<42}values {' '.join(f'{v:.5g}' for v in values[w][m['name']])}")
    lines.append(f"worst spread/bound {worst:.2f} (steady below 0.33, accepted up to 1.00)")
    report = "\n".join(lines) + "\n"
    with open(args.out, "w") as f:
        f.write(report)
    print(report, end="")


if __name__ == "__main__":
    main()
