#!/usr/bin/env python3
"""The mission-service benchmark: builds mission_bench from source, runs one
workload against an in-process mission service, checks every result, and
prints each metric by name with its unit.

    python3 missionbench/run.py --workload cold-mix --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass and
the stack replay and prints the per-layer metrics. durable-open runs here
but is not declared in BENCHMARK.json (see README.md). The last line of
standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full report, with the host fingerprint, is also saved under
<build dir>/reports/ for compare.py. The build dir is $CARGO_TARGET_DIR
(default .bench_build) under the repository root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("cold-mix", "warm-fed", "durable-open")
RUN_TIMEOUT_S = 170


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build_bench():
    """Configures and builds mission_bench against the repository's
    sources; a no-op when up to date. Build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "ehw").is_dir():
        sys.exit("missionbench: the repository sources are not next to %s" % HERE)
    build = build_root() / "missionbench"
    if not (build / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "--target", "mission_bench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return build / "mission_bench"


def run_bench(binary, args):
    """Runs one workload; returns the raw samples."""
    scratch = build_root() / "runs" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    raw_path = scratch / "raw.json"
    try:
        subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--scratch", str(scratch), "--out", str(raw_path)],
                       check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        with open(raw_path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def finite(value):
    """JSON has no infinity: a latency made infinite by failed missions is
    printed as the largest double."""
    return value if math.isfinite(value) else sys.float_info.max


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        raw = run_bench(build_bench(), args)
        stats.check_lateness(raw["passes"])
    except stats.InvalidRun as e:
        sys.exit("missionbench: invalid run, not reported: %s" % e)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        sys.exit("missionbench: %s" % e)

    attempted, failed, correct = stats.counts(raw)
    host = stats.host_fingerprint(raw["build"])
    if args.trace:
        values, table, tail = stats.per_layer(raw), stats.PER_LAYER, None
    else:
        (values, tail), table = stats.end_to_end(raw), stats.END_TO_END
    metrics = {name: {"value": finite(values[name]), "unit": table[name][0]} for name in table}

    for name, metric in metrics.items():
        line = "%-34s %16.6f %s" % (name, metric["value"], metric["unit"])
        if name == "mission_tail_ms":
            block, whole = tail
            line += ("  (p%.2f per %d-mission block, %d beyond; whole run p%.2f = %.3f ms, %d of %d beyond)"
                     % (block.percentile, block.samples, block.beyond, whole.percentile,
                        finite(whole.value), whole.beyond, whole.samples))
        print(line)
    if args.trace:
        for name, (unit, _) in stats.DURABLE_LAYER.items():
            print("%-34s %16.6f %s" % (name, values[name], unit))
    else:
        print("%-34s %16.6f ratio" % ("failed_frac", 1.0 - values["done_frac"]))
    print("host %s" % json.dumps(host, sort_keys=True))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    reports = build_root() / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    with open(reports / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
