"""Statistics of the mission-service benchmark.

mission_bench (the C++ program) records raw samples only; this module turns
them into the named metrics, so every median, tail, rate and share has one
implementation, covered by tests/test_stats.py.

Rules:
  * A timing is reported as a median and as a tail: the highest percentile
    with at least ten samples beyond it, capped at p99 (reached at 1000
    samples). The tail's percentile and sample count travel with it.
    mission_tail_ms applies that rule per block of 200 missions and takes
    the median block (see block_tail).
  * A mission that failed, was cancelled, refused or returned a wrong
    result has an infinite latency: it misses every latency limit.
  * Closed loop latency runs from the submit being sent; open loop latency
    runs from the mission's due time, so a late generator cannot hide a
    stall. A run whose generator was late through its own fault (not
    blocked on the daemon's previous ack) is invalid.
  * Results from hosts with different fingerprints are never compared.
"""

import math
import os
import statistics
from dataclasses import dataclass

# End-to-end metrics (printed with --trace 0): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "missions_per_s": ("1/s", "higher"),
    "mission_p50_ms": ("ms", "lower"),
    "mission_tail_ms": ("ms", "lower"),
    "ack_p50_us": ("us", "lower"),
    "read_p50_us": ("us", "lower"),
    "done_frac": ("ratio", "higher"),
    "sim_ms_per_mission": ("ms", "lower"),
    "rss_mb": ("MiB", "lower"),
}

# Per-layer metrics (printed with --trace 1): name -> (unit, better).
PER_LAYER = {
    "svc.ack_p99_us": ("us", "lower"),
    "svc.read_p99_us": ("us", "lower"),
    "svc.forward_hop_us": ("us", "lower"),
    "svc.affinity_rate": ("ratio", "higher"),
    "svc.refused": ("count", "lower"),
    "sched.queue_wait_p50_ms": ("ms", "lower"),
    "sched.queue_wait_tail_ms": ("ms", "lower"),
    "sched.cache_hit_rate": ("ratio", "higher"),
    "sched.memo_hit_rate": ("ratio", "higher"),
    "sched.images_hit_rate": ("ratio", "higher"),
    "img.scene_ms": ("ms", "lower"),
    "platform.fingerprint_us": ("us", "lower"),
    "platform.compile_us": ("us", "lower"),
    "platform.wave_rest_us": ("us", "lower"),
    "evo.frame_set_id_us": ("us", "lower"),
    "evo.driver_ms": ("ms", "lower"),
    "pe.fitness_us": ("us", "lower"),
    "pe.eval_share": ("ratio", "lower"),
    "sim.pe_writes_per_candidate": ("count", "lower"),
    "sim.reconfig_share": ("ratio", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}

# Per-layer metrics of the journaled open loop (durable-open), which
# BENCHMARK.json does not declare: on the declared workloads they are zero
# by construction. Printed as text beside PER_LAYER, never in the result.
DURABLE_LAYER = {
    "svc.journal_appends_per_mission": ("count", "lower"),
    "svc.checkpoints_per_mission": ("count", "lower"),
    "svc.journal_bytes_per_mission": ("bytes", "lower"),
    "bench.late_p99_ms": ("ms", "lower"),
}

# An open-loop run whose generator sent 1% of its submits later than this
# through its own fault (see lateness_ms) is invalid: its latencies would
# not be honest.
LATE_BOUND_MS = 20.0

HOST_CHANGED = "host changed — rebaseline"


class InvalidRun(Exception):
    """The run measured something other than the workload it names."""


class HostChanged(Exception):
    """Two results come from different hosts or builds."""


@dataclass
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def percentile(values, q):
    """Nearest-rank percentile q (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, capped at
    p99. With ten samples or fewer no percentile qualifies: the maximum is
    returned with beyond == 0."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Tail(0.0, 0.0, 0, 0)
    if n <= 10:
        return Tail(ordered[-1], 100.0, 0, n)
    beyond = max(10, n // 100)
    return Tail(ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond, n)


TAIL_BLOCK = 200


def block_tail(values):
    """mission_tail_ms. The latencies, in sequence order, are cut into
    blocks of TAIL_BLOCK missions; each block's tail is its highest
    percentile with ten samples beyond it (p95); the metric is the median
    of the block tails. A stall of the host's disk or CPU inflates the
    blocks it hits, not the metric, so it repeats from run to run; the
    stall itself shows in the whole-run tail printed beside it and in
    svc.ack_p99_us / bench.late_p99_ms. Fewer than two whole blocks: the
    tail rule over the whole sample."""
    blocks = len(values) // TAIL_BLOCK
    if blocks < 2:
        return tail(values)
    tails = [tail(values[b * TAIL_BLOCK:(b + 1) * TAIL_BLOCK]) for b in range(blocks)]
    return Tail(statistics.median(t.value for t in tails), tails[0].percentile,
                tails[0].beyond, TAIL_BLOCK)


def succeeded(mission):
    """Done, and equal to the standalone reference run."""
    return mission["status"] == "done" and mission["identical"]


def latencies_ms(missions, open_loop):
    """Per-mission latency in ms: from the due time (open loop) or the send
    (closed loop) to the result; infinite for any mission that did not
    succeed."""
    out = []
    for m in missions:
        if not succeeded(m):
            out.append(math.inf)
            continue
        start = m["due_s"] if open_loop else m["sent_s"]
        out.append((m["recv_s"] - start) * 1e3)
    return out


def refresh_us(reads):
    """One operator refresh (mpa ps + mpa top): a status and a stats round
    trip, timed back to back."""
    return [r["status_us"] + r["stats_us"] for r in reads]


def lateness_ms(missions):
    """How late the open-loop generator sent each submit through its own
    fault. One connection submits in sequence order, so a submit cannot
    leave before the daemon acked the previous one; that wait is the
    daemon's (it is in the latency, which runs from the due time) and is
    not counted here. Lateness runs from the later of the due time and the
    previous ack."""
    out = []
    previous_ack = None
    for m in sorted((m for m in missions if "due_s" in m), key=lambda m: m["index"]):
        ready = m["due_s"] if previous_ack is None else max(m["due_s"], previous_ack)
        out.append(max(0.0, (m["sent_s"] - ready) * 1e3))
        previous_ack = m["ack_s"]
    return out


def window_s(missions):
    """The timed window: from its start to the last answer received."""
    return max([max(m["recv_s"], m["ack_s"]) for m in missions] or [0.0])


def missions_per_s(missions):
    """Missions finished done per wall second: the median over the whole
    seconds of the window of the missions whose results arrived in that
    second, so a stall of a few seconds on a shared host does not move it.
    Windows shorter than 3 s fall back to done / window."""
    window = window_s(missions)
    done = [m["recv_s"] for m in missions if succeeded(m)]
    seconds = int(window)
    if seconds < 3:
        return len(done) / window if window > 0 else 0.0
    per_second = [0] * seconds
    for t in done:
        if t < seconds:
            per_second[int(t)] += 1
    return float(statistics.median(per_second))


def failed_count(missions):
    return sum(1 for m in missions if not succeeded(m))


def prefix(missions, count):
    """The first `count` missions of the pass's seeded sequence."""
    return sorted(missions, key=lambda m: m["index"])[:count]


def sim_ms_per_mission(missions, count):
    """Mean simulated mission time over the sequence's first `count`
    missions, so it repeats exactly for a seed."""
    done = [m for m in prefix(missions, count) if succeeded(m)]
    return statistics.fmean(m["sim_ns"] for m in done) / 1e6 if done else 0.0


def check_lateness(passes):
    for p in passes:
        late = lateness_ms(p["missions"])
        if late and percentile(late, 99) > LATE_BOUND_MS:
            raise InvalidRun(
                "generator ran late: p99 %.1f ms behind the due times (bound %.0f ms)"
                % (percentile(late, 99), LATE_BOUND_MS))


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus the block tail and
    the whole-run tail for the label printed beside mission_tail_ms."""
    p = raw["passes"][0]
    missions = sorted(p["missions"], key=lambda m: m["index"])
    lat = latencies_ms(missions, raw["open_loop"])
    t = block_tail(lat)
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "missions_per_s": missions_per_s(missions),
        "mission_p50_ms": median(lat),
        "mission_tail_ms": t.value,
        "ack_p50_us": median([(m["ack_s"] - m["sent_s"]) * 1e6 for m in missions]),
        "read_p50_us": median(refresh_us(p["reads"])),
        "done_frac": 1.0 - failed_count(missions) / len(missions),
        "sim_ms_per_mission": sim_ms_per_mission(missions, int(raw["sim_prefix"])),
        "rss_mb": raw["rss_mb"],
    }
    return metrics, (t, tail(lat))


def _delta(before, after, *path):
    def get(stats):
        for key in path:
            stats = stats.get(key, {}) if isinstance(stats, dict) else {}
        return stats if isinstance(stats, (int, float)) else 0.0
    return get(after) - get(before)


def _ratio(num, den):
    return num / den if den else 0.0


def _per_call_us(timer):
    return _ratio(timer["ns"], timer["calls"]) / 1e3


def per_layer(raw):
    """The per-layer metrics (PER_LAYER and DURABLE_LAYER) of a traced run:
    passes[0] untraced, passes[1] traced, and the stack replay of the
    traced pass's missions."""
    untraced, traced = raw["passes"][0], raw["passes"][1]
    missions = traced["missions"]
    n = len(missions)
    replay = raw["replay"]
    rows = replay["missions"]
    before, after = traced["stats_before"], traced["stats_after"]

    hop = 0.0
    if traced["hop_front_us"] and traced["hop_direct_us"]:
        hop = median(traced["hop_front_us"]) - median(traced["hop_direct_us"])
    affinity = 0.0
    if raw["backends"] > 0:
        affinity = _ratio(_delta(before, after, "placement", "affinity_hits"),
                          _delta(before, after, "placement", "placed"))

    def hit_rate(kind):
        hits = sum(m[kind + "_hits"] for m in missions)
        return _ratio(hits, hits + sum(m[kind + "_misses"] for m in missions))

    waits = [r["queue_wait_s"] * 1e3 for r in rows]
    images = replay["images"]
    replay_s = sum(r["images_s"] + r["run_spec_s"] for r in rows)
    kernel_ns = statistics.fmean(replay["kernel_ns"]) if replay["kernel_ns"] else 0.0

    count = int(raw["sim_prefix"])
    intrinsic = [m for m in prefix(missions, count) if succeeded(m) and m["kind"] != "cascade"]
    first = {m["index"] for m in prefix(missions, count)}
    sim_rows = [r for r in rows if r["index"] in first]

    late = lateness_ms(missions)
    acks = [(m["ack_s"] - m["sent_s"]) * 1e6 for m in missions]
    return {
        "svc.ack_p99_us": percentile(acks, 99),
        "svc.read_p99_us": percentile(refresh_us(traced["reads"]), 99),
        "svc.forward_hop_us": hop,
        "svc.affinity_rate": affinity,
        "svc.journal_appends_per_mission": _ratio(_delta(before, after, "journal", "appended"), n),
        "svc.checkpoints_per_mission":
            _ratio(_delta(before, after, "journal", "checkpoints_written"), n),
        "svc.journal_bytes_per_mission":
            _ratio(traced["journal_bytes_after"] - traced["journal_bytes_before"], n),
        "svc.refused": float(sum(1 for m in missions if m["status"] == "refused")),
        "sched.queue_wait_p50_ms": median(waits),
        "sched.queue_wait_tail_ms": tail(waits).value,
        "sched.cache_hit_rate": hit_rate("cache"),
        "sched.memo_hit_rate": hit_rate("memo"),
        "sched.images_hit_rate": _ratio(images["hits"], images["hits"] + images["misses"]),
        "img.scene_ms": _ratio(sum(r["images_s"] for r in rows) * 1e3, len(rows)),
        "platform.fingerprint_us": _per_call_us(replay["fingerprint"]),
        "platform.compile_us": _per_call_us(replay["compile"]),
        "platform.wave_rest_us":
            _ratio(replay["wave"]["ns"] - replay["compile_hook"]["ns"], replay["candidates"]) / 1e3,
        "evo.frame_set_id_us": _per_call_us(replay["frame_set_id"]),
        "evo.driver_ms":
            _ratio(sum(r["run_spec_s"] - r["waves_s"] for r in rows), len(rows)) * 1e3,
        "pe.fitness_us": kernel_ns / 1e3,
        "pe.eval_share": _ratio(kernel_ns * replay["memo_misses"] / 1e9, replay_s),
        "sim.pe_writes_per_candidate":
            _ratio(sum(m["pe_writes"] for m in intrinsic),
                   sum(m["generations"] * m["lambda"] for m in intrinsic)),
        "sim.reconfig_share":
            _ratio(sum(r["reconfig_busy_ns"] for r in sim_rows), sum(r["sim_ns"] for r in sim_rows)),
        "bench.late_p99_ms": percentile(late, 99) if late else 0.0,
        "bench.trace_overhead":
            1.0 - _ratio(missions_per_s(missions), missions_per_s(untraced["missions"])),
    }


def counts(raw):
    """(attempted, failed, correct) over every service pass. Correct means
    no result differed from its standalone reference (nor, in a traced
    run, from its stack replay)."""
    attempted = sum(len(p["missions"]) for p in raw["passes"])
    failed = sum(failed_count(p["missions"]) for p in raw["passes"])
    correct = raw["gate_mismatches"] == 0
    if "replay" in raw:
        correct = correct and raw["replay"]["mismatches"] == 0
    return attempted, failed, correct


def _cpu_info():
    model, mhz = "unknown", 0.0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "cpu MHz" and mhz == 0.0:
                    mhz = float(value)
    except OSError:
        pass
    return model, mhz


def host_fingerprint(build):
    """What must match for two results to be comparable. MHz is rounded to
    100 so that frequency jitter on one host does not read as a new host."""
    model, mhz = _cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": int(round(mhz / 100.0)) * 100,
        "build_type": build["build_type"],
        "native_arch": build["native_arch"],
        "compiler": build["compiler"],
    }


def check_same_host(a, b):
    """Raises HostChanged naming the fields that differ."""
    differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if differing:
        raise HostChanged("%s (%s differ)" % (HOST_CHANGED, ", ".join(differing)))
