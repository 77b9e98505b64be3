#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Spider simulator.

    python3 perfbench/run.py --workload drive|lab|fleet|model --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds two variants of the
driver (perfbench/driver.cc plus the simulator libraries from src/) under
.bench_build/perfbench: a plain Release build and a -pg build linked with the
allocation meter.

--trace 0 runs the workload's batch back to back on the Release build for
--seconds and reports the end-to-end metrics: run_s (wall seconds of a batch,
world construction excluded) and setup_s (wall seconds of generating and
constructing a batch's inputs), both from each operation's fastest repeat
(see fastest_sum), and peak_rss_mb.

--trace 1 does the same run, then runs a fixed number of batches on the -pg
build and reports the per-layer metrics: self seconds per src/ module from
the gprof flat profile (see gprof_layers.py), counters from the layers'
getters and the worlds' telemetry hubs, and call counts from the profile
(see PROFILED_CALLS). Per-layer numbers are per batch.

Every operation's output is checked (checks.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gprof_layers  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("drive", "lab", "fleet", "model")
# Batches the traced run executes: enough for a few hundred profile samples.
TRACE_BATCHES = {"drive": 1, "lab": 2, "fleet": 4, "model": 1}
# A driver run ends after the batch in progress when --seconds run out; this
# covers that batch (model's is the longest, ~7 s) even on a slowed host.
BATCH_MARGIN_S = 150


def _named(name):
    return lambda short: short == name


def _wired_link_spill(short):
    # SmallFn's destroy thunk for a spilled WiredLink::send closure: one call
    # per closure that took the heap path.
    return ("SmallFn::heap_ops<spider::backhaul::WiredLink::send" in short
            and short.endswith("{lambda#2}::_FUN"))


# Per-layer counts read from the profile's call counts, where no getter
# exists (FleetExperiment, for one, exposes no AP hosts): (metric, predicate
# on the function's short name, getter/Hub counter whose being nonzero means
# the counted function ran). A function that is inlined or renamed drops out
# of the flat profile and its count reads 0, which would look like a gain; so
# a zero count while its implying counter is nonzero fails the traced run.
# The WiredLink spill has no implying counter: its going to 0 is what fixing
# the spill looks like (alloc.per_event, from the meter, moves with it).
PROFILED_CALLS = (
    ("mac.beacons", _named("spider::mac::AccessPoint::beacon_tick"),
     "sim.events_fired"),
    ("phy.gather_calls", _named("spider::phy::RadioGrid::gather"),
     "phy.deliveries_grid"),
    ("backhaul.segments", _named("spider::backhaul::WiredLink::send"),
     "tcp.bytes_delivered"),
    ("backhaul.heap_spills", _wired_link_spill, None),
    ("mobility.move_batches", _named("spider::phy::Medium::move_radios"),
     "sim.events_fired"),
    ("model.expected_join_time_calls",
     _named("spider::model::expected_join_time"), "model.solves"),
    ("model.join_probability_calls", _named("spider::model::join_probability"),
     "model.solves"),
)


class BenchError(Exception):
    pass


def build(variant, gprof):
    """Configures (once) and builds one driver variant; returns its path."""
    tree = BUILD / variant
    log = BUILD / f"{variant}.log"
    tree.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPERFBENCH_GPROF={'ON' if gprof else 'OFF'}"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                raise BenchError(f"build of the {variant} driver failed; "
                                 f"see {log}")
    return tree / "spider_perfbench"


def run_driver(binary, workload, seed, extra, timeout, cwd=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    with open(HERE / "reference.json") as f:
        return json.load(f)["dividing_speed"]


def fastest_sum(rounds):
    """Each operation's fastest time over the rounds, summed over operations.

    `rounds` holds one list of per-operation seconds per round. Interference
    from other tenants of the host only ever slows an operation down, so the
    fastest repeat is the steadiest estimate of its cost; summing per
    operation keeps that true for workloads whose run fits only a few rounds.
    """
    return sum(min(times) for times in zip(*rounds))


def batch_seconds(result):
    """Run time of one batch, world construction excluded."""
    return fastest_sum(result["op_run_s"])


def end_to_end(result):
    return {
        "run_s": (batch_seconds(result), "s"),
        "setup_s": (fastest_sum(result["op_setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced, profile_text, batches):
    """Per-layer metrics of one traced run, per batch, and the problems found.

    A problem is a profiled count that reads 0 although the getters show
    that the function it counts ran (see PROFILED_CALLS).
    """
    rows = gprof_layers.parse_flat_profile(profile_text)
    selfs = gprof_layers.self_seconds_by_layer(rows)
    c = traced["counters"]
    m = {}
    problems = []
    for name, predicate, implied_by in PROFILED_CALLS:
        m[name] = (gprof_layers.calls_of(rows, predicate) // batches, "count")
        if m[name][0] == 0 and implied_by and c.get(implied_by, 0) > 0:
            problems.append(f"{name} reads 0 from the profile but "
                            f"{implied_by} is {c[implied_by]:g}: the counted "
                            "function is missing from the flat profile")

    for layer in gprof_layers.LAYERS + ("other",):
        m[f"{layer}.self_s"] = (selfs[layer] / batches, "s")
    profiled = sum(selfs.values()) / batches
    traced_cpu = sum(traced["batch_cpu_s"]) / batches
    m["trace.unprofiled_s"] = (max(0.0, traced_cpu - profiled), "s")
    m["trace.overhead_ratio"] = (
        batch_seconds(traced) / batch_seconds(untraced), "ratio")

    def count(name, unit="count"):
        m[name] = (c.get(name, 0), unit)

    for name in ("sim.events_fired", "sim.events_posted",
                 "sim.events_cancelled", "sim.cascades", "sim.queue_depth_hw"):
        count(name)
    events = c.get("sim.events_fired", 0)
    m["sim.cascades_per_event"] = (_ratio(c.get("sim.cascades", 0), events),
                                   "1/event")

    for name in ("phy.frames_sent", "phy.frames_delivered", "phy.frames_lost",
                 "phy.deliveries_grid", "phy.deliveries_scan"):
        count(name)
    delivered = c.get("phy.frames_delivered", 0)
    client_rx = c.get("phy.client_rx", 0)
    m["phy.rx_per_frame"] = (_ratio(delivered, c.get("phy.frames_sent", 0)),
                             "1/frame")
    m["phy.client_rx_ratio"] = (_ratio(client_rx, delivered), "ratio")

    # Every radio of a world is an AP's or a client's.
    m["mac.ap_rx"] = (delivered - client_rx, "count")
    for name in ("mac.auth_grants", "mac.assoc_grants", "mac.psm_enters",
                 "mac.frames_buffered", "mac.buffer_drops",
                 "mac.session_retries"):
        count(name)

    for name in ("dhcpd.discover_sent", "dhcpd.request_sent",
                 "dhcpd.message_timeouts", "dhcpd.bound"):
        count(name)
    m["dhcpd.bound_ratio"] = (
        _ratio(c.get("dhcpd.bound", 0), c.get("dhcpd.attempt_windows", 0)),
        "ratio")

    for name in ("core.join_attempts", "core.joins", "core.schedule_switches",
                 "core.channel_switches"):
        count(name)
    m["core.join_ratio"] = (
        _ratio(c.get("core.joins", 0), c.get("core.join_attempts", 0)), "ratio")

    count("tcp.bytes_delivered", "B")

    count("model.solves")
    m["model.calls_per_solve"] = (
        _ratio(m["model.join_probability_calls"][0], c.get("model.solves", 0)),
        "1/solve")

    m["alloc.per_event"] = (_ratio(traced["allocations"], events), "1/event")
    return m, problems


def traced_run(workload, seed, untraced, reference, timeout):
    """Runs the -pg driver; returns (metrics, attempted, failed, messages)."""
    binary = BUILD / "gprof" / "spider_perfbench"
    batches = TRACE_BATCHES[workload]
    scratch = BUILD / f"trace-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        traced = run_driver(binary, workload, seed,
                            ["--batches", str(batches)], timeout, cwd=scratch)
        proc = subprocess.run(["gprof", "-b", "-p", str(binary),
                               str(scratch / "gmon.out")],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"gprof failed: {proc.stderr[-2000:]}")
        profile = proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, messages = checks.check_run(traced, reference)
    if traced["digest"] != untraced["digest"]:
        messages.append(f"traced digest {traced['digest']} != untraced "
                        f"{untraced['digest']}")
        failed = attempted
    metrics, problems = per_layer(traced, untraced, profile, batches)
    if problems:
        messages += problems
        failed = attempted
    return metrics, attempted, failed, messages


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    timeout = args.seconds + BATCH_MARGIN_S
    try:
        release = build("release", gprof=False)
        build("gprof", gprof=True)
        reference = load_reference()
        untraced = run_driver(release, args.workload, args.seed,
                              ["--seconds", str(args.seconds)], timeout)
        attempted, failed, messages = checks.check_run(untraced, reference)
        metrics = end_to_end(untraced)
        if args.trace:
            metrics, t_attempted, t_failed, t_messages = traced_run(
                args.workload, args.seed, untraced, reference, timeout)
            attempted += t_attempted
            failed += t_failed
            messages += t_messages
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for message in messages:
        print(f"check failed: {message}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced['op_run_s'])} batches of "
          f"{untraced['ops_per_batch']} operations, combined digest "
          f"{untraced['digest']}")
    print(f"  failed_frac {_ratio(failed, attempted):.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
