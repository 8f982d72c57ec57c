#!/usr/bin/env python3
"""Benchmark of the dcPIM simulator: host time per simulated scenario.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the simulator from
src/ twice, under .bench_build/perfbench: an optimized tree for timing and a
-pg tree for the layer trace. Each workload is one .campaign file in
perfbench/workloads. --seed picks DRAWS traffic seeds (draw_seeds); the
draws run in turn in one fresh single-threaded driver process through
campaign::parse_campaign_spec -> campaign::expand -> harness::run_experiment.

--trace 0 prints the end-to-end metrics: wall_s (host seconds of one
run_experiment call: the mean over the draws of each draw's fastest run),
setup_s (median host seconds of a set-up: parse + expand + a run stopped
before t = 0), peak_rss_mb, fail_ratio and the modelled outcomes (means or
sums over the draws). --trace 1 runs the first draw, which is --seed itself,
once untraced and once under gprof and prints the per-layer metrics. At the
default seed every run's outcome digest must match its draw's pin in
pins.json; at other seeds the digests are printed, and all runs of one draw
must agree on its digest.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout as it was
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TREES = {
    "release": [],
    "gprof": ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
}

# BENCHMARK.json measures gray_audit and ndp_imc10, which between them run
# every layer; the other two stay runnable by hand.
WORKLOADS = ("imc10_a2a", "dense_tm", "gray_audit", "ndp_imc10")
DEFAULT_SEED = 1
# Host time per cell varies with the traffic seed: on gray_audit, seeds 101
# to 105 took 15.1M to 18.2M events, and their fastest runs 3.3 to 4.1 s on
# a 4-vCPU Xeon (Sapphire Rapids) VM, a spread as wide as the host noise. A
# run therefore averages several draws; four draws halve that spread.
DRAWS = 4
DRAW_STRIDE = 2**32
# Runs of each draw per driver process however short --seconds is, so that
# each draw's digest is checked against a second run of it.
MIN_ROUNDS = 2
SETUPS_PER_RUN = 10

# Paper values for modelled metrics, where EXPERIMENTS.md has one. Every
# other modelled metric is printed as unvalidated. None feeds pass/fail.
PAPER = {("dense_tm", "steady_util"):
         "paper 0.935 (Fig 4c); EXPERIMENTS.md records 0.71"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def driver_timeout(seconds):
    """Seconds after which a driver process counts as hung: `seconds`, plus
    room for one more run and its set-ups, which a slow host can stretch to
    3x the ~15 s a run of these cells takes, or for the minimum runs (eight
    of ~9 s on dense_tm)."""
    return seconds + 100


def draw_seeds(seed):
    """The traffic seeds a run at `seed` measures, `seed` first. Two seeds
    below 2^32 share no draw."""
    return [(seed + i * DRAW_STRIDE) % 2**64 for i in range(DRAWS)]


def build():
    """Configures and builds both trees; a no-op when they are current."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for tree, flags in TREES.items():
            out = os.path.join(BUILD, tree)
            for cmd in (["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + flags,
                        ["cmake", "--build", out, "-j", jobs]):
                if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                    fail("build failed: %s (log: %s)" % (" ".join(cmd),
                                                         log_path))


def drive(tree, workload, seeds, seconds, setups, min_runs, cwd=None):
    """Runs the driver on the draws `seeds` of one workload; returns (exit
    code, records by kind, stderr)."""
    cmd = [os.path.join(BUILD, tree, "perfbench_driver"),
           "--spec", os.path.join(HERE, "workloads", workload + ".campaign"),
           "--setups", str(setups), "--min-runs", str(min_runs),
           "--seconds", str(seconds)]
    for seed in seeds:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                              timeout=driver_timeout(seconds))
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:
        code, stdout, stderr = -1, e.stdout or "", "timed out"
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    records = {"setup": [], "run": [], "process": []}
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # a line cut short by a crash or the timeout
        records[rec["kind"]].append(rec)
    if code == 0 and not records["process"]:
        code = -1
    return code, records, stderr


def pinned_digests(workload, seed):
    """The pinned outcome digest of each draw seed, or {} at a --seed
    without pins."""
    if seed != DEFAULT_SEED:
        return {}
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["digests"][workload]
    return dict(zip(draw_seeds(seed), pins))


def check_runs(workload, seed, code, runs):
    """Counts attempted and failed runs. A run fails on an audit violation,
    or when its digest differs from its draw's pin (default seed) or from
    the first run of its draw (other seeds). A crash fails the run it was
    in."""
    expect = pinned_digests(workload, seed)
    for r in runs:
        expect.setdefault(r["seed"], r["digest"])
    failed = sum(r["digest"] != expect[r["seed"]] or r["audit_violations"] > 0
                 for r in runs)
    attempted = len(runs)
    if code != 0:
        attempted += 1
        failed += 1
    return attempted, failed


def describe_digests(workload, seed, runs):
    pins = pinned_digests(workload, seed)
    lines = []
    for draw, rs in by_draw(runs).items():
        digests = sorted({r["digest"] for r in rs})
        if draw not in pins:
            state = "not pinned at this seed"
        elif digests == [pins[draw]]:
            state = "pinned, match"
        else:
            state = "pinned %s, MISMATCH" % pins[draw]
        lines.append("  draw seed %d: %d runs, digest %s (%s)" %
                     (draw, len(rs), ", ".join(digests), state))
    return "\n".join(lines)


def by_draw(runs):
    """The runs of each draw seed, in the order the draws first ran."""
    draws = {}
    for r in runs:
        draws.setdefault(r["seed"], []).append(r)
    return draws


def metric(metrics, name, value, unit, note=""):
    metrics[name] = {"value": value, "unit": unit}
    print("  %-32s %16.6g %-6s %s" % (name, value, unit, note))


def end_to_end(workload, seed, seconds):
    code, rec, stderr = drive("release", workload, draw_seeds(seed), seconds,
                              SETUPS_PER_RUN, MIN_ROUNDS * DRAWS)
    runs = rec["run"]
    attempted, failed = check_runs(workload, seed, code, runs)
    print("perfbench %s --seed %d: %d runs" % (workload, seed, len(runs)))
    print(describe_digests(workload, seed, runs))
    draws = by_draw(runs)
    if code != 0 or len(draws) != DRAWS or not rec["setup"]:
        print(stderr[-2000:], file=sys.stderr)
        return attempted, failed, {}

    # The runs of one draw simulate the same cell, so they differ only by
    # host noise, which on a shared host only ever adds time: a draw's
    # fastest run is the steadiest estimate of what the code costs on it.
    metrics = {}
    fastest = [min(r["wall_s"] for r in rs) for rs in draws.values()]
    metric(metrics, "wall_s", statistics.mean(fastest), "s",
           "mean of %d draws' fastest runs (%s)" %
           (DRAWS, ", ".join("%.3f" % w for w in fastest)))
    setups = [s["setup_s"] for s in rec["setup"]]
    metric(metrics, "setup_s", statistics.median(setups), "s",
           "median of %d set-ups (%.4g-%.4g), %d events run" %
           (len(setups), min(setups), max(setups),
            max(s["events"] for s in rec["setup"])))
    metric(metrics, "peak_rss_mb", rec["process"][0]["peak_rss_mb"], "MB",
           "ru_maxrss of the driver process")
    metric(metrics, "fail_ratio", failed / attempted, "ratio",
           "%d of %d runs failed" % (failed, attempted))

    # Outcomes repeat exactly within a draw: take each draw's first run.
    firsts = [rs[0] for rs in draws.values()]

    def mean(key):
        return statistics.mean(r[key] for r in firsts)

    def total(key):
        return sum(r[key] for r in firsts)

    def modelled(name, value, unit, how):
        metric(metrics, name, value, unit, "modelled, %s over %d draws; %s" %
               (how, DRAWS, PAPER.get((workload, name), "unvalidated")))

    unfinished = total("flows_total") - total("flows_done")
    modelled("short_p99_slowdown", mean("short_p99"), "x", "mean")
    modelled("mean_slowdown", mean("mean_slowdown"), "x", "mean")
    modelled("goodput_ratio", mean("goodput_ratio"), "ratio", "mean")
    modelled("flows_unfinished", unfinished, "count", "sum")
    if (workload, "steady_util") in PAPER:
        modelled("steady_util", mean("steady_util"), "ratio", "mean")
    drops = total("injected_drops")
    if drops:
        print("  faults, summed over %d draws: %d injected drops -> %d"
              " recovery actions (%.1f per drop), %d flows stalled, %d"
              " unfinished at the horizon" %
              (DRAWS, drops, total("recovery_actions"),
               total("recovery_actions") / drops, total("flows_stalled"),
               unfinished))
    return attempted, failed, metrics


def per_layer(workload, seed):
    code, rec, stderr = drive("release", workload, [seed], 0, SETUPS_PER_RUN,
                              1)
    trace_dir = os.path.join(BUILD, "trace", workload)
    os.makedirs(trace_dir, exist_ok=True)
    gmon = os.path.join(trace_dir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    tcode, trec, tstderr = drive("gprof", workload, [seed], 0, 1, 1,
                                 cwd=trace_dir)
    attempted, failed = check_runs(workload, seed, code, rec["run"])
    t_attempted, t_failed = check_runs(workload, seed, tcode, trec["run"])
    attempted += t_attempted
    failed += t_failed
    print("perfbench %s --seed %d: traced run of the first draw" %
          (workload, seed))
    print(describe_digests(workload, seed, rec["run"] + trec["run"]))
    if code != 0 or tcode != 0 or not rec["run"] or not trec["run"]:
        print((stderr + tstderr)[-2000:], file=sys.stderr)
        return attempted, failed, {}
    plain, traced = rec["run"][0], trec["run"][0]
    if plain["digest"] != traced["digest"]:
        failed = min(attempted, failed + 1)
        print("  traced run simulated a different outcome", file=sys.stderr)
    profile = subprocess.run(
        ["gprof", "-b", "-p",
         os.path.join(BUILD, "gprof", "perfbench_driver"), gmon],
        capture_output=True, text=True, timeout=driver_timeout(0))
    if profile.returncode != 0:
        fail("gprof failed: " + profile.stderr[-500:])
    self_s, calls, hot = layers.roll_up(
        layers.parse_flat_profile(profile.stdout))

    m = {}
    setups = rec["setup"]
    metric(m, "campaign.parse_s",
           statistics.median(s["parse_s"] for s in setups), "s")
    metric(m, "campaign.expand_s",
           statistics.median(s["expand_s"] for s in setups), "s")
    metric(m, "workload.flows", plain["flows_total"], "count")
    metric(m, "sim.events", plain["events"], "count")
    metric(m, "sim.ns_per_event", plain["wall_s"] / plain["events"] * 1e9,
           "ns", "untraced wall time per event")
    metric(m, "net.packets", plain["pool_acquired"], "count")
    metric(m, "net.pool_reuse_ratio",
           plain["pool_recycled"] / max(plain["pool_acquired"], 1), "ratio")
    metric(m, "net.trims", plain["trims"], "count")
    metric(m, "audit.checks", plain["audit_checks"], "count")
    metric(m, "audit.sweeps", plain["audit_sweeps"], "count")
    metric(m, "faults.injected_drops", plain["injected_drops"], "count")
    metric(m, "faults.recovery_per_drop",
           plain["recovery_actions"] / max(plain["injected_drops"], 1),
           "ratio", "recovery actions per injected drop")
    for layer in layers.LAYERS:
        metric(m, layer + ".self_s", round(self_s[layer], 2), "s",
               "gprof-sampled self time")
        metric(m, layer + ".calls", calls[layer], "count")
    for name, n in hot.items():
        metric(m, name, n, "count")
    sampled = sum(self_s.values())
    metric(m, "trace.sampled_s", round(sampled, 2), "s")
    metric(m, "trace.unattributed_s",
           trec["process"][0]["user_s"] - sampled, "s",
           "user CPU of the traced process that gprof did not sample")
    metric(m, "trace.overhead", traced["wall_s"] / plain["wall_s"] - 1,
           "ratio", "traced over untraced wall time, minus 1")
    return attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    t0 = time.monotonic()
    build()
    print("perfbench: build ready in %.1f s" % (time.monotonic() - t0))
    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed)
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed,
                                                args.seconds)
    # The result line carries exactly the metrics BENCHMARK.json lists;
    # the lines above it print the rest.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = [m["name"] for m in
                  json.load(f)["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in listed if name not in metrics]
    if missing:
        fail("%s produced no %s" % (args.workload, ", ".join(missing)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: metrics[name] for name in listed}}))


if __name__ == "__main__":
    main()
