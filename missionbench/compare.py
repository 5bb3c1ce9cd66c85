#!/usr/bin/env python3
"""Summarises and compares saved benchmark reports (run.py writes one per
run under <build dir>/reports/).

    python3 missionbench/compare.py REPORTS          # medians and spreads
    python3 missionbench/compare.py BASE HEAD        # HEAD against BASE

Each argument is a report file or a directory of them. For every workload
and metric the summary gives the median of the runs and their spread: the
distance between the first and third quartiles as a share of the median.
A comparison flags a metric whose HEAD median is worse than the BASE median
by more than the bound BENCHMARK.json gives it. Reports from different
hosts or builds are refused ("host changed — rebaseline"), exit code 3.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = []
    for f in files:
        with open(f, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


def one_host(reports):
    """The shared host fingerprint; raises HostChanged on any difference."""
    for r in reports[1:]:
        stats.check_same_host(reports[0]["host"], r["host"])
    return reports[0]["host"] if reports else {}


def summarise(reports):
    """{(workload, metric): (median, spread, unit)} over the runs."""
    values = defaultdict(list)
    units = {}
    for r in reports:
        for name, metric in r["metrics"].items():
            values[(r["workload"], name)].append(metric["value"])
            units[(r["workload"], name)] = metric["unit"]
    out = {}
    for key, vals in values.items():
        mid = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(mid)
        out[key] = (mid, spread, units[key])
    return out


def bounds():
    """{metric: (better, bound)} for the end-to-end metrics."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    sets = [load(a) for a in argv]
    try:
        hosts = [one_host(s) for s in sets]
        if len(hosts) == 2:
            stats.check_same_host(hosts[0], hosts[1])
    except stats.HostChanged as e:
        print(e)
        return 3
    if len(sets) == 1:
        for (workload, name), (mid, spread, unit) in sorted(summarise(sets[0]).items()):
            print("%-13s %-34s %16.6f %-6s spread %.3f" % (workload, name, mid, unit, spread))
        return 0
    base, head = summarise(sets[0]), summarise(sets[1])
    limits = bounds()
    worse = 0
    for key in sorted(set(base) & set(head)):
        workload, name = key
        b, h = base[key][0], head[key][0]
        change = (h - b) / abs(b) if b else 0.0
        verdict = ""
        if name in limits:
            better, bound = limits[name]
            loss = -change if better == "higher" else change
            if loss > bound:
                verdict = "WORSE than bound %.2f" % bound
                worse += 1
        print("%-13s %-34s %16.6f -> %16.6f %+7.1f%% %s"
              % (workload, name, b, h, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
