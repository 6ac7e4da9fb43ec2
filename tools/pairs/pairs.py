#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark.

Runs the command of BENCHMARK.json in two checkouts, one run of each per
pair, and summarises every end-to-end metric per workload: each side's
median and quartiles, how many pairs the change won, and the median of the
per-pair change/parent ratios. The ratio is taken within a pair, whose two
runs are adjacent in time, so a machine that drifts between pairs moves
both sides of it alike; the quartiles of one side's runs do not cancel
that drift.

    python3 tools/pairs/pairs.py --parent ../parent --change . \\
        --workloads scale_n128,grid_small --pairs 10 [--seed 0] \\
        [--json pairs.json]

Each checkout is built first (cargo build --release of benchmark/), into
its own benchmark/target: CARGO_TARGET_DIR is removed from the runs'
environment so the two builds cannot share a directory. Within a pair the
order alternates (parent first in even pairs, change first in odd ones).
The command, the run length and each metric's direction come from the
change's BENCHMARK.json, so both sides always run the protocol's length.
A run that reports incorrect outputs or a failed operation stops the
script.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def build(checkout, env):
    subprocess.run(["cargo", "build", "--release", "--quiet",
                    "--manifest-path", "benchmark/Cargo.toml"],
                   cwd=checkout, env=env, check=True)


def run_once(command, checkout, env, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout} {workload}: outputs incorrect or "
                 f"{result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(workload, metrics, runs):
    """Lines for one workload: runs[side] is a list of per-pair dicts."""
    pairs = len(runs["parent"])
    lines = [f"{workload}: {pairs} pairs"]
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(par)
        c1, cm, c3 = quartiles(chg)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        ratios = [c / p for p, c in zip(par, chg) if p]
        ratio = statistics.median(ratios) if ratios else float("nan")
        delta = (cm - pm) / pm * 100 if pm else float("nan")
        beyond = (cm - pm) * (1 if higher else -1) > (p3 - p1)
        lines.append(
            f"  {name:<20} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"median {delta:+.2f} %  change better in {wins}/{pairs}  "
            f"median pair ratio {ratio:.4f}  "
            f"{'beyond' if beyond else 'within'} the parent's IQR")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = {w["name"] for w in bench["workloads"]}
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    seconds = bench["run_seconds"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        build(checkout, env)

    started = time.time()
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                runs[w][side].append(run_once(bench["command"], sides[side], env, w,
                                              args.seed, seconds))
            rate = {s: runs[w][s][-1].get("events_per_s", float("nan")) for s in order}
            print(f"pair {i + 1}/{args.pairs} {w}: " +
                  "  ".join(f"{s} {rate[s]:.4g}/s" for s in order) +
                  f"  ({time.time() - started:.0f} s)", flush=True)

    print(f"\n{args.pairs} alternating pairs, {seconds} s runs, seed {args.seed}, "
          f"{time.time() - started:.0f} s in all")
    for w in workloads:
        print("\n".join(summarise(w, bench["end_to_end"], runs[w])))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "seed": args.seed, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
