#!/usr/bin/env python3
"""Re-record perfbench/record.json, the benchmark's steadiness record.

Run from the repository root, on an otherwise idle machine:

    python3 perfbench/record.py [--runs 10] [--workloads a,b]

For every workload it makes, through perfbench/run.py: one run at the
default seed (digest-checked), one at a held-out seed, --runs runs at
other seeds (the spread: median, quartiles, min and max of every
end-to-end metric), and one traced run at the default seed (the
per-layer baseline).  About 8 minutes per workload at 35 s runs.
Workloads not re-run keep their previous entries.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "record.json")
HELD_OUT_SEED = 9001
SPREAD_SEED0 = 101

# What one unit is, per workload (see src/workloads.cc).
UNITS = {
    "arch85-steady":
        "a fresh System of 8 MOESI caches (64 sets x 2 ways), default "
        "Arch85Params (5% sharing), default Strict Engine, 20000 refs/proc "
        "= 160000 refs",
    "campaign-faulted":
        "CampaignRunner(1).run of a flat spec (12 seed-replica jobs, "
        "4 caches MOESI(random chooser)/Berkeley/Dragon/MOESI 16x2, "
        "checkEveryAccess, spurious abort + storms, memory delay, memory "
        "drop; 3000 refs/proc; Perfetto sink on job 0) and of a hier spec "
        "(6 jobs, 2 clusters x 4 class-member caches, checkEveryAccess, "
        "scrub every 512 accesses, reintegrate after 4000 cycles, "
        "spurious abort, memory delay, bridge drop/delay/dup, filterStale, "
        "leafStall; 3000 refs/proc), plus both tables and the Perfetto "
        "JSON rendered to memory = 18 jobs",
    "mc-explore":
        "mc::explore of MOESI, Berkeley, Dragon, MOESI x 2 lines (6724 "
        "states, 269944 transitions) plus mc::exploreHier of "
        "(MOESI, Berkeley) | Dragon x 2 lines (2401 states, 55860 "
        "transitions) = 9125 states",
}


def run(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{res['attempted']} units, {res['failed']} failed", flush=True)
    return res


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(samples):
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return {"median": med, "q1": q1, "q3": q3, "min": min(samples),
            "max": max(samples), "iqr_over_median": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "digests.json")) as f:
        default_seed = json.load(f)["default_seed"]
    seconds = bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    record = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            record = json.load(f)
    entries = record.get("workloads", {})

    for w in bench["workloads"]:
        name = w["name"]
        if name not in names:
            continue
        print(f"{name}:", flush=True)
        default = run(name, default_seed, seconds)
        held_out = run(name, HELD_OUT_SEED, seconds)
        runs = [run(name, SPREAD_SEED0 + i, seconds)
                for i in range(args.runs)]
        traced = run(name, default_seed, seconds, trace=1)
        metrics = [m["name"] for m in bench["end_to_end"]]
        entries[name] = {
            "why": w["why"],
            "unit": UNITS[name],
            "failed_units": {
                "default_seed": f"{default['failed']}/{default['attempted']}",
                "held_out_seed":
                    f"{held_out['failed']}/{held_out['attempted']}",
                "spread_runs": f"{sum(r['failed'] for r in runs)}/"
                               f"{sum(r['attempted'] for r in runs)}",
                "traced": f"{traced['failed']}/{traced['attempted']}"},
            "default_seed": values(default),
            "held_out_seed": values(held_out),
            "spread": {m: spread([values(r)[m] for r in runs])
                       for m in metrics},
            "per_layer_default_seed": values(traced),
        }

    record.update({
        "recorded": time.strftime("%Y-%m-%d"),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "cpu": cpu_model()},
        "run_seconds": seconds,
        "default_seed": default_seed,
        "held_out_seed": HELD_OUT_SEED,
        "spread_seeds": [SPREAD_SEED0, SPREAD_SEED0 + args.runs - 1],
        "workloads": entries,
    })
    with open(OUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
