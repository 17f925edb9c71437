#!/usr/bin/env python3
"""Whole-run simulator benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (into .bench_build/),
then runs whole simulations of one workload, one per process, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs operations back to back for S seconds and reports the
end-to-end metrics (medians over the operations). --trace 1 runs the
exactness self-check and one traced operation, and reports the per-layer
ledger. Every reported time is host time scaled to a fixed host speed
by a reference kernel timed between operations. See perfbench/NOTES.md
for what each metric means and why.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("fabric-1shard", "fabric-2shard", "switch-bursts")
BUILD_TIMEOUT_S = 840
OP_TIMEOUT_S = 60
MIN_OPS = 3
# Reported times are host times at the speed where the reference kernel
# (perfbench.exe --reference) takes this long.
REF_NOMINAL_NS = 150e6
TIME_FIELDS = ("setup_s", "topology_s", "wiring_s", "sources_s", "run_s", "sim_wall_s", "cpu_s")
CALIBRATED_NS = ("sched_ns", "admit_ns", "tm_ns", "link_ns", "span_floor_ns")

# Counts that a speed-only change must leave identical: they repeat
# bit-for-bit for a seed, traced or not.
EXACT_KEYS = (
    "offered", "delivered", "drops", "in_flight", "events", "queue_hwm",
    "merged", "piggybacked", "empty_carriers", "event_drops", "admissions",
    "handler_calls", "ingress_calls", "enqueue_calls", "dequeue_calls",
    "timer_calls", "tm_enqueues", "tm_drops", "link_deliveries", "flows",
    "peak_live_flows", "rounds", "cross_sent", "detections", "swept_hot",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return r.returncode == 0 and os.path.exists(EXE)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_exe(args):
    """Run perfbench.exe in its own process. Returns (stdout, rusage), or
    (None, None) if it crashed or timed out."""
    out_path = os.path.join(ROOT, BUILD_DIR, f"perfbench-out-{os.getpid()}.txt")
    with open(out_path, "w") as out:
        p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=out, stderr=sys.stderr)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(OP_TIMEOUT_S)
    timed_out = False
    try:
        _, status, ru = os.wait4(p.pid, 0)
    except _Timeout:
        timed_out = True
        p.kill()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        signal.alarm(0)
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    os.remove(out_path)
    if timed_out or p.returncode != 0:
        log(f"perfbench.exe {' '.join(args)}: exit {p.returncode}, timed out: {timed_out}")
        return None, None
    return text, ru


def reference():
    text, _ = run_exe(["--reference"])
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def run_op(workload, seed, trace_out=None):
    """One simulation in its own process. Returns its JSON record with
    peak_rss_mb added, or None if it crashed, timed out or printed no
    record."""
    args = ["--workload", workload, "--seed", str(seed)]
    if trace_out:
        args += ["--trace", "--trace-out", trace_out]
    text, ru = run_exe(args)
    try:
        rec = json.loads(text.strip().splitlines()[-1])
    except (AttributeError, ValueError, IndexError):
        log(f"{workload} seed {seed}: no record")
        return None
    rec["peak_rss_mb"] = ru.ru_maxrss / 1024.0  # Linux reports KiB
    return rec


class Ops:
    """Runs operations with the reference kernel timed in its own process
    before the first and after each one. The host's speed drifts by
    more than half over minutes (NOTES.md); an operation's times are
    scaled by REF_NOMINAL_NS over the mean of its two neighbouring
    reference times."""

    def __init__(self):
        self.prev = reference()

    def run(self, workload, seed, trace_out=None):
        rec = run_op(workload, seed, trace_out)
        nxt = reference()
        if rec is not None:
            if self.prev is None or nxt is None:
                log("reference kernel failed")
                rec = None
            else:
                ref_ns = (self.prev + nxt) / 2
                scale = REF_NOMINAL_NS / ref_ns
                rec["ref_ms"] = ref_ns * 1e-6
                rec["raw_run_s"] = rec["run_s"]
                for k in TIME_FIELDS:
                    rec[k] *= scale
                for v in rec.get("spans", {}).values():
                    v["total_ns"] *= scale
                if "calibration" in rec:
                    for k in CALIBRATED_NS:
                        rec["calibration"][k] *= scale
        self.prev = nxt
        return rec


def check(rec, ref):
    """Output checks, outside every timer: the packet books close, and a
    sharded run reproduces the sequential run's digests."""
    problems = []
    if not rec["books_ok"]:
        c = rec["counts"]
        problems.append(
            "books: offered %d, host sent %d, delivered %d, drops %d, in flight %d"
            % (c["offered"], c["host_sent"], c["delivered"], c["drops"], c["in_flight"]))
    if ref is not None:
        for k in ("arrival_digest", "metrics_digest"):
            if rec[k] != ref[k]:
                problems.append(f"{k} {rec[k]} differs from the 1-shard run's {ref[k]}")
    for p in problems:
        log(f"{rec['workload']} seed {rec['seed']}: {p}")
    return not problems


def digest_reference(workload, seed):
    """fabric-2shard must reproduce fabric-1shard's digests for the same
    seed; that reference comes from its own process, so it neither warms
    the timed process's heap nor inflates its peak RSS."""
    if workload != "fabric-2shard":
        return None, True
    ref = run_op("fabric-1shard", seed)
    return ref, ref is not None


def end_to_end(recs):
    med = lambda k: statistics.median(r[k] for r in recs)
    return {
        "run_s": {"value": med("run_s"), "unit": "s"},
        "pkts_per_s": {
            "value": statistics.median(r["counts"]["offered"] / r["run_s"] for r in recs),
            "unit": "pkt/s"},
        "cpu_s": {"value": med("cpu_s"), "unit": "s"},
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def timed(workload, seed, seconds):
    ref, ok = digest_reference(workload, seed)
    ops = Ops()
    recs, attempted, failed = [], 0, 0
    start = time.monotonic()
    while attempted < MIN_OPS or time.monotonic() - start < seconds:
        attempted += 1
        rec = ops.run(workload, seed)
        if rec is None:
            failed += 1
            continue
        recs.append(rec)
        if not (ok and check(rec, ref)):
            failed += 1
    if len(recs) >= 2:
        xs = sorted(r["run_s"] for r in recs)
        q = statistics.quantiles(xs, n=4)
        log(f"{workload} seed {seed}: {len(xs)} operations, run_s min {xs[0]:.4f} "
            f"p25 {q[0]:.4f} median {statistics.median(xs):.4f} p75 {q[2]:.4f} max {xs[-1]:.4f}; "
            f"unscaled median {statistics.median(r['raw_run_s'] for r in recs):.4f}, "
            f"reference median {statistics.median(r['ref_ms'] for r in recs):.1f} ms")
    return attempted, failed, (end_to_end(recs) if recs else None)


def ledger(workload, seed):
    """Exactness self-check plus one traced operation. Returns
    (attempted, failed, metrics)."""
    ref, ok = digest_reference(workload, seed)
    ops = Ops()
    plain = [ops.run(workload, seed) for _ in range(MIN_OPS)]
    other = ops.run(workload, seed + 1)
    trace_dir = os.path.join(ROOT, BUILD_DIR, "perfbench")
    os.makedirs(trace_dir, exist_ok=True)
    traced = ops.run(workload, seed,
                     trace_out=os.path.join(trace_dir, f"{workload}-seed{seed}-chains.json"))
    # The seed + 1 operation has no 1-shard reference: only its books
    # are checked.
    checked = [(r, ref) for r in plain + [traced]] + [(other, None)]
    attempted = len(checked)
    if any(r is None for r, _ in checked):
        return attempted, sum(1 for r, rf in checked if r is None or not (ok and check(r, rf))), None
    bad = {id(r) for r, rf in checked if not (ok and check(r, rf))}
    # Every exact count and both digests repeat bit-for-bit on one seed,
    # traced or not; another seed changes the arrival digest.
    base = plain[0]
    for r in plain[1:] + [traced]:
        diffs = [k for k in EXACT_KEYS if r["counts"][k] != base["counts"][k]]
        diffs += [k for k in ("arrival_digest", "metrics_digest") if r[k] != base[k]]
        if diffs:
            log(f"exactness: {', '.join(diffs)} differ between two runs of seed {seed}")
            bad.add(id(r))
    if other["arrival_digest"] == base["arrival_digest"]:
        log("exactness: seed + 1 left the arrival digest unchanged")
        bad.add(id(other))
    failed = len(bad)
    return attempted, failed, per_layer(plain, traced)


def per_layer(plain, traced):
    c = traced["counts"]
    cal = traced["calibration"]
    spans = traced["spans"]
    shards = traced["shards"]
    med = lambda f: statistics.median(f(r) for r in plain)
    run_s = med(lambda r: r["run_s"])
    core_s = shards * run_s  # the run's core-seconds: the ledger's whole
    pkts = c["offered"]
    floor = cal["span_floor_ns"]

    def span_ns(name):
        n = spans[name]["calls"]
        return n, spans[name]["total_ns"] - n * floor

    def per_call(name):
        # A class the workload never calls reports the ledger's per-call
        # resolution (the empty-span floor) and adds nothing to the share.
        n, t = span_ns(name)
        return t / n if n else floor

    handler_ns = sum(span_ns(name)[1] for name in spans if name != "send")
    send_n, send_t = span_ns("send")
    sched_t = c["events"] * cal["sched_ns"]
    admit_t = c["admissions"] * cal["admit_ns"]
    tm_ops = c["tm_enqueues"] + c["link_deliveries"]
    tm_t = c["tm_enqueues"] * cal["tm_ns"] + c["link_deliveries"] * cal["link_ns"]
    merge_s = med(lambda r: r["run_s"] - r["sim_wall_s"])
    idle = med(lambda r: 1 - r["cpu_s"] / (r["shards"] * r["run_s"]))
    shares = {
        "eventsim.share": sched_t * 1e-9 / core_s,
        "devents.share": admit_t * 1e-9 / core_s,
        "apps.share": handler_ns * 1e-9 / core_s,
        "tmgr.share": tm_t * 1e-9 / core_s,
        "workloads.share": send_t * 1e-9 / core_s,
        "obs.share": merge_s / core_s,
        "parsim.idle_frac": idle,
    }
    weights_mean = c["weight_sum"] / shards
    m = {
        "eventsim.events": (c["events"], "count"),
        "eventsim.events_per_pkt": (c["events"] / pkts, "count/pkt"),
        "eventsim.queue_hwm": (c["queue_hwm"], "count"),
        "eventsim.op_ns": (cal["sched_ns"], "ns"),
        "devents.merged_per_pkt": (c["merged"] / pkts, "count/pkt"),
        "devents.piggyback_ratio": (c["piggybacked"] / c["merged"] if c["merged"] else 0.0,
                                    "count/count"),
        "devents.empty_carriers": (c["empty_carriers"], "count"),
        "devents.event_drops": (c["event_drops"], "count"),
        "pisa.admissions": (c["admissions"], "count"),
        "devents.admit_ns": (cal["admit_ns"], "ns"),
        "apps.calls_per_pkt": (c["handler_calls"] / pkts, "count/pkt"),
        "apps.ingress_ns": (per_call("ingress-packet"), "ns"),
        "apps.enqueue_ns": (per_call("buffer-enqueue"), "ns"),
        "apps.dequeue_ns": (per_call("buffer-dequeue"), "ns"),
        "apps.timer_ns": (per_call("timer-expiration"), "ns"),
        "tmgr.enqueues": (c["tm_enqueues"], "count"),
        "tmgr.drops": (c["tm_drops"], "count"),
        "tmgr.link_deliveries": (c["link_deliveries"], "count"),
        "tmgr.op_ns": (tm_t / tm_ops if tm_ops else 0.0, "ns"),
        "workloads.flows": (c["flows"], "count"),
        "workloads.peak_live_flows": (c["peak_live_flows"], "count"),
        "workloads.send_ns": (send_t / send_n if send_n else floor, "ns"),
        "setup.topology_s": (med(lambda r: r["topology_s"]), "s"),
        "setup.wiring_s": (med(lambda r: r["wiring_s"]), "s"),
        "setup.sources_s": (med(lambda r: r["sources_s"]), "s"),
        "parsim.rounds": (c["rounds"], "count"),
        "parsim.cross_sent": (c["cross_sent"], "count"),
        "parsim.events_per_round": (c["events"] / c["rounds"], "count/round"),
        "parsim.imbalance": (c["weight_max"] / weights_mean, "count/count"),
        "obs.merge_s": (merge_s, "s"),
        "gc.minor_words_per_pkt": (plain[0]["minor_words"] / pkts, "words/pkt"),
        "gc.major_collections": (plain[0]["major_collections"], "cycles"),
        "trace.overhead_frac": (traced["run_s"] / run_s - 1, "frac"),
        "host.ref_ms": (traced["ref_ms"], "ms"),
    }
    for k, v in shares.items():
        m[k] = (v, "frac")
    m["ledger.unattributed_frac"] = (1 - sum(shares.values()), "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not build():
        log("cannot build perfbench/perfbench.exe")
        return 1
    if a.trace:
        attempted, failed, metrics = ledger(a.workload, a.seed)
    else:
        attempted, failed, metrics = timed(a.workload, a.seed, a.seconds)
    if metrics is None:
        log("no operation produced a result")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
