#!/usr/bin/env python3
"""Placement benchmark: two Table II flows and a dp-serve small-job mix.

Usage (from the repository root):

    python3 perfbench/run.py --workload flow-bigblue1 --seed 1 --seconds 30 --trace 0

Builds the `dreamplace` daemon and the `perfbench` driver (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload, checks its outputs, prints a human-readable summary and, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are the per-layer metrics. See
perfbench/README.md for every metric's definition.
"""

import argparse
import json
import math
import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (kind, design); flow designs are generated with the run's seed.
WORKLOADS = {
    "flow-bigblue1": ("flow", "bigblue1"),
    "flow-adaptec2": ("flow", "adaptec2"),
    "serve-mix": ("serve", "medium"),
}

# serve-mix job mix: one medium job per three small ones, drawn from a
# few distinct (preset, seed) jobs so repeats can be compared bitwise.
SERVE_MIX = (("medium", 1), ("small", 3))
SERVE_DISTINCT = {"medium": 4, "small": 12}
SERVE_IN_FLIGHT = 2
DAEMON_SPAWNS = 9
# serve-mix reports HPWL and iterations over this many leading jobs.
QUALITY_JOBS = 40
# Jobs of the mix the traced serve-mix run sends to the daemon.
SERVE_TRACED_JOBS = 8
# Bound on every subprocess wait: a hung program ends the run with an error.
PROCESS_TIMEOUT = 170.0

END_TO_END_UNITS = {
    "place_s": "s",
    "place_cpu_s": "s",
    "gp_s": "s",
    "gp_iterations": "count",
    "hpwl": "um",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "jobs_per_hour": "1/h",
    "job_p50_s": "s",
    "job_tail_s": "s",
}

PER_LAYER_UNITS = {
    "density.scatter_ms": "ms",
    "density.solve_ms": "ms",
    "density.gather_ms": "ms",
    "density.overflow_ms": "ms",
    "density.forward_calls_per_iter": "1/iter",
    "density.forward_s": "s",
    "density.backward_s": "s",
    "density.overflow_s": "s",
    "density.solve_gp_share": "ratio",
    "dct.dct2_ms": "ms",
    "dct.idct2_ms": "ms",
    "dct.idct_idxst_ms": "ms",
    "dct.idxst_idct_ms": "ms",
    "wirelength.wa_fb_ms": "ms",
    "wirelength.calls_per_iter": "1/iter",
    "wirelength.wa_s": "s",
    "gp.step_ms": "ms",
    "gp.step_tail_ms": "ms",
    "gp.self_ms_per_iter": "ms",
    "gp.unaccounted_share": "ratio",
    "gp.hpwl": "um",
    "gp.overflow": "ratio",
    "num.pool_runs_per_iter": "1/iter",
    "num.threads_spawned": "count",
    "lg.legalize_ms": "ms",
    "lg.hpwl_ratio": "ratio",
    "dplace.run_ms": "ms",
    "dplace.swap_ms": "ms",
    "dplace.reorder_ms": "ms",
    "dplace.ism_ms": "ms",
    "dplace.moves": "count",
    "dplace.hpwl_ratio": "ratio",
    "core.sanitize_ms": "ms",
    "core.checkpoint_capture_ms": "ms",
    "core.checkpoint_bytes": "B",
    "self.core_s": "s",
    "self.dp-gp_s": "s",
    "self.dp-density_s": "s",
    "self.dp-wirelength_s": "s",
    "self.dp-lg_s": "s",
    "self.dp-dplace_s": "s",
    "trace_overhead_pct": "%",
    "serve.admit_ms": "ms",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.bytes_per_job": "B",
    "serve.events_per_job": "count",
    "sched.step_p50_ms": "ms",
    "sched.turns_per_job": "count",
}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(q3 - q1) / median, with Python's default quartile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail(values):
    """The highest whole percentile >= 50 that has at least ten samples
    beyond it, as (value, percentile). Uses nearest-rank percentiles.
    With fewer than 20 samples no such percentile exists and the maximum
    is reported as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. `spans` are dicts with id, start, end, parent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def placement_failures(rec, first_hpwl):
    """Reasons a finished placement fails its checks; `first_hpwl` maps
    (design, seed) to the HPWL of the first repeat in this run."""
    why = []
    if not rec["legal"]:
        why.append("illegal placement")
    if not math.isclose(rec["hpwl_recomputed"], rec["hpwl"], rel_tol=1e-9):
        why.append("hpwl does not match the placement")
    # GP reports `converged` when a step ends at or below the overflow
    # target; a run that reaches it on its last allowed iteration counts.
    if not rec["converged"]:
        why.append("GP stopped at the iteration cap")
    if rec["overflow"] > rec["target_overflow"]:
        why.append("GP overflow above target")
    if rec["fallback"]:
        why.append("GP fell back to the conservative preset")
    key = (rec["design"], rec.get("seed"))
    if first_hpwl.setdefault(key, rec["hpwl"]) != rec["hpwl"]:
        why.append("hpwl differs between repeats")
    return why


def job_failures(job, target, first_hpwl):
    """Reasons a served job fails its checks. `job` holds the client's
    record of one submission; `target` is the GP overflow target."""
    terminals = job["terminals"]
    if len(terminals) != 1:
        return ["%d terminal events" % len(terminals)]
    ev = terminals[0]
    if ev.get("event") != "done":
        return ["job ended with %s" % ev.get("event")]
    why = []
    # GP stops early exactly when it reaches the target, so a final
    # overflow above it means the iteration cap ended the run.
    if ev["overflow"] > target:
        why.append("GP stopped at the iteration cap above the overflow target")
    if first_hpwl.setdefault(job["key"], ev["hpwl"]) != ev["hpwl"]:
        why.append("hpwl differs between repeats")
    return why


# ---------------------------------------------------------------------------
# Build and subprocess helpers
# ---------------------------------------------------------------------------


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["--bin", "dreamplace"]),
        (ROOT / "perfbench" / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: %s" % " ".join(cmd))
    return target / "release" / "dreamplace", target / "release" / "perfbench"


def run_driver(perfbench, args):
    """Runs the perfbench driver and returns its JSON records."""
    proc = subprocess.run([str(perfbench)] + args, stdout=subprocess.PIPE,
                          timeout=PROCESS_TIMEOUT, text=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench %s failed" % " ".join(args))
    return [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]


def proc_status(pid):
    """(VmHWM MiB, CPU seconds) of a live process."""
    with open("/proc/%d/status" % pid) as f:
        hwm = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return hwm / 1024.0, (int(fields[11]) + int(fields[12])) / 100.0


# ---------------------------------------------------------------------------
# dp-serve client
# ---------------------------------------------------------------------------


TRACE_PREFIX = '{"event":"trace","job":'


class Daemon:
    """A `dreamplace serve` process spoken to over stdio. A reader thread
    timestamps every event line as it arrives."""

    def __init__(self, binary):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [str(binary), "serve", "--threads", "2", "--jobs", str(SERVE_IN_FLIGHT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1)
        self.events = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        hello = self.next_event(PROCESS_TIMEOUT)
        if hello[1].get("event") != "hello":
            raise SystemExit("daemon did not say hello")
        self.setup_s = hello[0] - t0

    def _read(self):
        for line in self.proc.stdout:
            t = time.monotonic()
            if line.startswith(TRACE_PREFIX):
                # Trace lines are most of the stream; parse them after the
                # session so the client takes little CPU from the daemon.
                job = int(line[len(TRACE_PREFIX):].split(",", 1)[0])
                ev = {"event": "trace", "job": job, "raw": line}
            else:
                ev = json.loads(line)
            self.events.put((t, ev, len(line)))
        self.events.put(None)

    def next_event(self, timeout):
        item = self.events.get(timeout=timeout)
        if item is None:
            raise SystemExit("daemon closed its output")
        return item

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return time.monotonic()

    def scrape(self):
        """Requests the metrics exposition; returns {series: value}."""
        self.send({"cmd": "metrics"})
        while True:
            _, ev, _ = self.next_event(PROCESS_TIMEOUT)
            if ev.get("event") == "metrics":
                return parse_exposition(ev["data"])

    def close(self):
        """Drains the daemon and waits for it to exit."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=PROCESS_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.reader.join()


def parse_exposition(text):
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    return series


def histogram_p50(series, name):
    """Median of a Prometheus histogram summed over its label sets,
    interpolated linearly inside the bucket that holds it."""
    buckets = {}
    for key, v in series.items():
        if key.startswith(name + "_bucket{"):
            le = key.split('le="', 1)[1].split('"', 1)[0]
            bound = math.inf if le == "+Inf" else float(le)
            buckets[bound] = buckets.get(bound, 0.0) + v
    total = buckets.get(math.inf, 0.0)
    if total == 0:
        return 0.0
    lo, below = 0.0, 0.0
    for bound in sorted(buckets):
        if buckets[bound] >= total / 2:
            if math.isinf(bound):
                return lo
            return lo + (bound - lo) * (total / 2 - below) / max(buckets[bound] - below, 1e-12)
        lo, below = bound, buckets[bound]
    return lo


def mix_seeds(rng):
    """The distinct design seeds of each preset in the mix."""
    return {p: [rng.randrange(1, 1 << 31) for _ in range(k)]
            for p, k in SERVE_DISTINCT.items()}


def job_mix(seed):
    """An endless seeded sequence of submit requests: cycles of one medium
    and three small jobs in seeded order, so every run has the same mix."""
    rng = random.Random(seed)
    seeds = mix_seeds(rng)
    cycle = [p for p, w in SERVE_MIX for _ in range(w)]
    while True:
        rng.shuffle(cycle)
        for preset in cycle:
            yield {"cmd": "submit", "preset": preset, "seed": rng.choice(seeds[preset])}


def serve_session(daemon, requests, seconds):
    """Closed loop: keeps SERVE_IN_FLIGHT jobs submitted until `seconds`
    have passed or `requests` runs out, then waits for the jobs in flight.
    Returns the per-job records and the session's start and end times."""
    jobs = []  # submission order == accepted order on one session
    by_id = {}
    pending_accept = []
    in_flight = 0
    t_start = time.monotonic()

    def submit(req):
        nonlocal in_flight
        if req is None:
            return
        job = {"key": (req.get("preset") or req.get("aux"), req.get("seed")),
               "submit": daemon.send(req), "accepted": None, "first": None,
               "terminals": [], "bytes": 0, "events": 0, "trace": []}
        jobs.append(job)
        pending_accept.append(job)
        in_flight += 1

    for _ in range(SERVE_IN_FLIGHT):
        submit(next(requests, None))
    while in_flight:
        t, ev, size = daemon.next_event(PROCESS_TIMEOUT)
        kind = ev.get("event")
        if kind in ("error", "rejected") and "job" not in ev:
            raise SystemExit("daemon refused a request: %s" % ev)
        if kind == "accepted":
            job = pending_accept.pop(0)
            job["accepted"] = t
            by_id[ev["job"]] = job
        job = by_id.get(ev.get("job"))
        if job is None:
            continue
        job["bytes"] += size
        job["events"] += 1
        if kind == "trace":
            job["trace"].append(ev["raw"])
        if kind != "accepted" and job["first"] is None:
            job["first"] = t
        if kind in ("done", "failed", "overloaded", "rejected"):
            job["terminals"].append(ev)
            job["done"] = t
            in_flight -= 1
            if time.monotonic() - t_start < seconds:
                submit(next(requests, None))
    return jobs, t_start, time.monotonic()


def completed(job):
    return len(job["terminals"]) == 1 and job["terminals"][0].get("event") == "done"


def busy_seconds(trace):
    """(placement, GP) busy seconds of a job from its streamed trace: the
    summed durations of its leaf spans (io, sanitize, every `gp.iter`,
    the LG and DP kernels), and of its `gp.iter` spans alone. Time the
    job spent parked while its neighbour ran falls between spans."""
    begins, parents = {}, set()
    for d in trace:
        if d.get("ev") == "begin":
            begins[d["id"]] = d
            parents.add(d["parent"])
    total = gp = 0
    for d in trace:
        b = begins.get(d.get("id")) if d.get("ev") == "end" else None
        if b is not None and d["id"] not in parents:
            total += d["t"] - b["t"]
            if b["name"] == "gp.iter":
                gp += d["t"] - b["t"]
    return total / 1e9, gp / 1e9


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, label, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.append("%s: %s" % (label, "; ".join(reasons)))


def flow_end_to_end(perfbench, design, seed, seconds, tally):
    recs = run_driver(perfbench, ["flow", design, str(seed), str(seconds)])
    places = [r for r in recs if r["kind"] == "placement"]
    setups = [r["setup_s"] for r in recs if r["kind"] == "setup"]
    proc = next(r for r in recs if r["kind"] == "process")
    first = {}
    for i, r in enumerate(places):
        tally.check("%s placement %d" % (design, i), placement_failures(r, first))
    jobs = [r["gen_s"] + r["place_s"] for r in places]
    tail_s, tail_p = tail(jobs)
    return {
        "place_s": median([r["place_s"] for r in places]),
        "place_cpu_s": median([r["place_cpu_s"] for r in places]),
        "gp_s": median([r["gp_s"] for r in places]),
        "gp_iterations": median([r["gp_iterations"] for r in places]),
        "hpwl": median([r["hpwl"] for r in places]),
        "peak_rss_mb": proc["peak_rss_mb"],
        "setup_s": median(setups),
        "jobs_per_hour": len(places) * 3600.0 / proc["wall_s"],
        "job_p50_s": median(jobs),
        "job_tail_s": tail_s,
    }, "job_tail_s = p%d of %d placements" % (tail_p, len(jobs))


def serve_targets(perfbench):
    """GP overflow target of each preset in the mix."""
    return {preset: next(r for r in run_driver(perfbench, ["config", preset, "1"])
                         if r["kind"] == "config")["target_overflow"]
            for preset in SERVE_DISTINCT}


def serve_end_to_end(daemon_bin, perfbench, seed, seconds, tally):
    targets = serve_targets(perfbench)
    spawns = []
    for _ in range(DAEMON_SPAWNS - 1):
        d = Daemon(daemon_bin)
        spawns.append(d.setup_s)
        d.close()
    daemon = Daemon(daemon_bin)
    spawns.append(daemon.setup_s)
    try:
        _, cpu0 = proc_status(daemon.proc.pid)
        jobs, t0, t1 = serve_session(daemon, job_mix(seed), seconds)
        rss, cpu1 = proc_status(daemon.proc.pid)
    finally:
        daemon.close()
    first = {}
    for i, job in enumerate(jobs):
        tally.check("job %d %s" % (i, job["key"]),
                    job_failures(job, targets[job["key"][0]], first))
    done = [j for j in jobs if completed(j)]
    if not done:
        raise SystemExit("no serve-mix job completed")
    latency = [j["done"] - j["submit"] for j in done]
    tail_s, tail_p = tail(latency)
    # Quality over the first QUALITY_JOBS submissions, so it depends on the
    # seed only and not on how many jobs the session got through.
    ev = [j["terminals"][0] for j in jobs[:QUALITY_JOBS] if completed(j)]
    busy = [busy_seconds([json.loads(r)["data"] for r in j["trace"]]) for j in done]
    return {
        "place_s": median([b[0] for b in busy]),
        "place_cpu_s": (cpu1 - cpu0) / len(done),
        "gp_s": median([b[1] for b in busy]),
        "gp_iterations": statistics.mean([e["iterations"] for e in ev]),
        "hpwl": geomean([e["hpwl"] for e in ev]),
        "peak_rss_mb": rss,
        "setup_s": median(spawns),
        "jobs_per_hour": len(done) * 3600.0 / (t1 - t0),
        "job_p50_s": median(latency),
        "job_tail_s": tail_s,
    }, "job_tail_s = p%d of %d jobs" % (tail_p, len(latency))


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


SPAN_LAYER = {
    "placement": "core", "step.init": "core", "step.sanitize": "core",
    "step.finish": "core", "core.checkpoint": "core", "step.gp": "dp-gp",
    "step.lg": "dp-lg", "step.dp": "dp-dplace",
}


def per_layer(perfbench, daemon_bin, design, seed, serve_jobs, targets, tally):
    """Traced placements + replays of `design`, then a daemon session that
    runs `serve_jobs` (checked against `targets`, see serve_layers; None
    when the daemon places `design` itself); returns the per-layer
    metrics."""
    recs = run_driver(perfbench, ["trace", design, str(seed)])
    places = [r for r in recs if r["kind"] == "placement"]
    first = {}
    for i, r in enumerate(places):
        tally.check("%s placement %d" % (design, i), placement_failures(r, first))
    plain_s = median([r["place_s"] for r in places if not r["traced"]])
    traced_s = median([r["place_s"] for r in places if r["traced"]])
    traced = [r for r in places if r["traced"]][-1]
    ops = {r["name"]: r for r in recs if r["kind"] == "op" and r["traced"]}
    execs = next(r for r in recs if r["kind"] == "exec" and r["traced"])
    ckpt = next(r for r in recs if r["kind"] == "checkpoint")
    spans = [r for r in recs if r["kind"] == "span"]
    iters = traced["gp_iterations"]

    def op_s(name):
        return ops[name]["nanos"] / 1e9 if name in ops else 0.0

    def op_calls(name):
        return ops[name]["calls"] if name in ops else 0

    parents = {s["id"]: s["name"] for s in spans}

    def kernel_ms(name):
        """Mean over snapshots of the median call time of `name`."""
        snaps = {}
        for s in spans:
            if s["name"] == name:
                snaps.setdefault(parents[s["parent"]], []).append(s["end"] - s["start"])
        return statistics.mean(median(v) for v in snaps.values()) / 1e6

    def span_durations(name):
        return [(s["end"] - s["start"]) / 1e6 for s in spans
                if s["name"] == name and s["placement"] == 1]

    selfs = self_times(spans)
    layer_self = {}
    for s in spans:
        layer = SPAN_LAYER.get(s["name"])
        if layer:
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s["id"]] / 1e9
    density_s = sum(op_s(n) for n in ops if n.startswith("density."))
    wl_s = sum(op_s(n) for n in ops if n.startswith("wa.") or n.startswith("lse."))
    gp_s = traced["gp_s"]
    gp_self_s = layer_self.get("dp-gp", 0.0) - density_s - wl_s
    steps = span_durations("step.gp")
    step_tail, _ = tail(steps)
    fwd = op_calls("density.forward")
    wa_name = next((n for n in ops if n.endswith("forward_backward")), "wa.forward_backward")
    m = {
        "density.scatter_ms": kernel_ms("density.scatter"),
        "density.solve_ms": kernel_ms("density.solve"),
        "density.gather_ms": kernel_ms("density.gather"),
        "density.overflow_ms": kernel_ms("density.overflow"),
        "density.forward_calls_per_iter": fwd / iters,
        "density.forward_s": op_s("density.forward"),
        "density.backward_s": op_s("density.backward"),
        "density.overflow_s": op_s("density.overflow"),
        "density.solve_gp_share": kernel_ms("density.solve") * fwd / 1e3 / gp_s,
        "dct.dct2_ms": kernel_ms("dct.dct2"),
        "dct.idct2_ms": kernel_ms("dct.idct2"),
        "dct.idct_idxst_ms": kernel_ms("dct.idct_idxst"),
        "dct.idxst_idct_ms": kernel_ms("dct.idxst_idct"),
        "wirelength.wa_fb_ms": kernel_ms("wirelength.wa_fb"),
        "wirelength.calls_per_iter": op_calls(wa_name) / iters,
        "wirelength.wa_s": op_s(wa_name),
        "gp.step_ms": median(steps),
        "gp.step_tail_ms": step_tail,
        "gp.self_ms_per_iter": gp_self_s * 1e3 / iters,
        "gp.unaccounted_share": gp_self_s / gp_s,
        "gp.hpwl": traced["hpwl_gp"],
        "gp.overflow": traced["overflow"],
        "num.pool_runs_per_iter": execs["pool_runs"] / iters,
        "num.threads_spawned": execs["threads_spawned"],
        "lg.legalize_ms": sum(span_durations("step.lg")),
        "lg.hpwl_ratio": traced["hpwl_legal"] / traced["hpwl_gp"],
        "dplace.run_ms": sum(span_durations("step.dp")),
        "dplace.swap_ms": kernel_ms("dplace.swap"),
        "dplace.reorder_ms": kernel_ms("dplace.reorder"),
        "dplace.ism_ms": kernel_ms("dplace.ism"),
        "dplace.moves": traced["dp_moves"],
        "dplace.hpwl_ratio": traced["hpwl"] / traced["hpwl_legal"],
        "core.sanitize_ms": sum(span_durations("step.sanitize")),
        "core.checkpoint_capture_ms": ckpt["capture_s"] * 1e3,
        "core.checkpoint_bytes": ckpt["bytes"],
        "self.core_s": layer_self.get("core", 0.0),
        "self.dp-gp_s": gp_self_s,
        "self.dp-density_s": density_s,
        "self.dp-wirelength_s": wl_s,
        "self.dp-lg_s": layer_self.get("dp-lg", 0.0),
        "self.dp-dplace_s": layer_self.get("dp-dplace", 0.0),
        "trace_overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    }
    if targets is None:
        targets = {serve_jobs[0]["aux"]: traced["target_overflow"]}
    m.update(serve_layers(daemon_bin, serve_jobs, targets, tally))
    return m


def serve_layers(daemon_bin, requests, targets, tally):
    """Runs `requests` on a fresh daemon; `targets` maps each job's preset
    (or aux path) to its GP overflow target."""
    daemon = Daemon(daemon_bin)
    try:
        jobs, _, _ = serve_session(daemon, iter(requests), math.inf)
        scrape = daemon.scrape()
    finally:
        daemon.close()
    first = {}
    for i, job in enumerate(jobs):
        tally.check("served job %d" % i, job_failures(job, targets[job["key"][0]], first))
    turns = sum(v for k, v in scrape.items() if k.startswith("dp_sched_turns_total"))
    return {
        "serve.admit_ms": median([j["accepted"] - j["submit"] for j in jobs]) * 1e3,
        "serve.queue_wait_s": median([j["first"] - j["accepted"] for j in jobs]),
        "serve.run_s": median([j["done"] - j["first"] for j in jobs]),
        "serve.bytes_per_job": statistics.mean([j["bytes"] for j in jobs]),
        "serve.events_per_job": statistics.mean([j["events"] for j in jobs]),
        "sched.step_p50_ms": histogram_p50(scrape, "dp_sched_step_seconds") * 1e3,
        "sched.turns_per_job": turns / len(jobs),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    daemon_bin, perfbench = build()
    kind, design = WORKLOADS[args.workload]
    tally = Tally()
    note = ""
    if args.trace == 0 and kind == "flow":
        values, note = flow_end_to_end(perfbench, design, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    elif args.trace == 0:
        values, note = serve_end_to_end(daemon_bin, perfbench, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    else:
        if kind == "flow":
            # The daemon places the workload's own design, read as Bookshelf.
            aux_dir = Path.cwd() / ".bench_build" / "designs"
            trace_seed = args.seed
            aux = next(r for r in run_driver(
                perfbench, ["aux", design, str(trace_seed), str(aux_dir)])
                if r["kind"] == "aux")["path"]
            serve_jobs = [{"cmd": "submit", "aux": aux}]
            targets = None
        else:
            mix = job_mix(args.seed)
            serve_jobs = [next(mix) for _ in range(SERVE_TRACED_JOBS)]
            trace_seed = mix_seeds(random.Random(args.seed))["medium"][0]
            targets = serve_targets(perfbench)
        values = per_layer(perfbench, daemon_bin, design, trace_seed, serve_jobs, targets,
                           tally)
        units = PER_LAYER_UNITS
    assert set(values) == set(units), "metric set mismatch"

    print("workload %s seed %d trace %d: %d attempted, %d failed"
          % (args.workload, args.seed, args.trace, tally.attempted, tally.failed))
    for reason in tally.reasons:
        print("  FAILED " + reason)
    for name, v in values.items():
        print("  %-32s %16.6g %s" % (name, v, units[name]))
    if note:
        print("  (%s)" % note)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
