#!/usr/bin/env python3
"""Build and run the fbsim end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator libraries (../src) and the benchmark binary, fbbench, are
built from source into $CARGO_TARGET_DIR (default .bench_build).  With
--trace 0 fbbench measures the end-to-end metrics with tracing off; set-up is
measured in SETUP_SAMPLES separate processes (the measured run is one of
them) and setup_s is their median.  With --trace 1 it reports the
per-layer metrics and writes its spans, with self times, to
<build dir>/spans/.  At the default seed every unit's digest must match
perfbench/digests.json.

Progress goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 11
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configure (once) and build `target`; returns the binary's path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", "2"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def spawn(argv):
    """Run fbbench; returns (spawn time in ns, text lines, result)."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return t0, lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.self_test:
        binary = build(build_dir, "fbbench_selftest")
        return subprocess.run([binary], timeout=600).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "digests.json")) as f:
        record = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        ap.error("--seed and a positive --seconds are required")

    binary = build(build_dir, "fbbench")
    common = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    argv = common + ["--seconds", str(args.seconds),
                     "--trace", str(args.trace)]
    if args.seed == record["default_seed"]:
        argv += ["--expect-digest", record["digests"][args.workload]]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        argv += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0, _, res = spawn(common + ["--setup-only"])
            setup.append((res["setup_end_ns"] - t0) / 1e9)
    t0, summary, res = spawn(argv)
    setup.append((res["setup_end_ns"] - t0) / 1e9)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = dict(res["metrics"], setup_s=statistics.median(setup))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"fbbench did not report {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for line in summary:
        print(line)
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
