#!/usr/bin/env python3
"""Fail if a guarded benchmark row regressed against the committed record.

Usage:
    check_bench_regression.py MEASURED_JSON [--record BENCH_micro.json]
        [--bench ROW]... [--tolerance 0.10]

MEASURED_JSON is google-benchmark --benchmark_format=json output run
with --benchmark_repetitions; for every guarded row the median across
repetitions is compared against the record's optimized_ns entry.
--bench is repeatable; without it the default guarded set below is
enforced.  Exits non-zero when any measured median exceeds its
committed number by more than the tolerance.
"""

import argparse
import json
import statistics
import sys

# Rows enforced when no --bench is given.  BM_EngineThroughput/8 is the
# historical acceptance row (default ordering, which now routes through
# the speculative post-grant loop); the two speculative rows pin the
# clean-batch fast path and the rollback-storm adversary separately.
DEFAULT_GUARDED = [
    "BM_EngineThroughput/8",
    "BM_SpeculativeEngineThroughput/8",
    "BM_SpeculativeRollbackStorm/8",
]


def measured_median(report, bench):
    # With --benchmark_repetitions google-benchmark emits one entry
    # per repetition plus _mean/_median/_stddev aggregates; prefer its
    # own median aggregate, fall back to computing one.
    times = []
    for b in report["benchmarks"]:
        if b["name"] == f"{bench}_median":
            return float(b["real_time"])
        if b["name"] == bench and b.get("run_type", "iteration") != "aggregate":
            times.append(float(b["real_time"]))
    if not times:
        sys.exit(f"error: benchmark {bench!r} not found in measured report")
    return statistics.median(times)


def check_row(report, record, bench, tolerance):
    """Returns an error string, or None when the row is within bounds."""
    committed = record["optimized_ns"].get(bench)
    if committed is None:
        return (f"error: {bench!r} has no optimized_ns entry "
                f"in the record")

    measured = measured_median(report, bench)
    ratio = measured / committed
    limit = 1.0 + tolerance
    print(f"{bench}: measured median {measured:.0f} ns, "
          f"committed {committed:.0f} ns ({ratio:.2f}x, "
          f"limit {limit:.2f}x)")
    if ratio > limit:
        return (f"{bench} regressed {(ratio - 1.0) * 100:.1f}% > "
                f"{tolerance * 100:.0f}% tolerance")
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("measured", help="google-benchmark JSON output")
    ap.add_argument("--record", default="BENCH_micro.json")
    ap.add_argument("--bench", action="append", dest="benches",
                    metavar="ROW",
                    help="row to enforce (repeatable; default: the "
                         "committed guarded set)")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    with open(args.measured) as f:
        report = json.load(f)
    with open(args.record) as f:
        record = json.load(f)

    failures = []
    for bench in args.benches or DEFAULT_GUARDED:
        err = check_row(report, record, bench, args.tolerance)
        if err is not None:
            failures.append(err)

    if failures:
        sys.exit("FAIL: " + "; ".join(failures))
    print("OK")


if __name__ == "__main__":
    main()
