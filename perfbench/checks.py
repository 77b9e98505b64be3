"""Output checks for the benchmark's operations.

An operation is one simulated world or one dividing-speed solve. The driver
prints one record per operation of a run's first batch; every later batch
must replay it exactly, which its combined digest shows.

A world fails when an invariant check fired during it (the driver runs under
check::Policy::kLogAndCount), when a result is not finite, or when its books
do not balance. A solve fails when its dividing speed is further from the
recorded reference than the solver's bisection tolerance.
"""

import math

# model::dividing_speed bisects to this tolerance (m/s).
SOLVE_TOLERANCE = 0.05

_WORLD_FIELDS = ("throughput_kBps", "connectivity", "bytes", "joins",
                 "join_attempts", "associations", "radios", "duration_s",
                 "events", "frames_sent", "frames_delivered", "frames_lost")


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def world_problems(rec):
    """Reasons a world record fails its checks (empty when it passes)."""
    problems = []
    for field in _WORLD_FIELDS:
        if not _finite(rec.get(field)):
            problems.append(f"{field} is not a finite number")
    if problems:
        return problems
    if rec.get("check_failures", 0) != 0:
        problems.append(f"{rec['check_failures']} invariant checks failed")
    if rec["events"] <= 0:
        problems.append("no events ran")
    if not 0.0 <= rec["connectivity"] <= 1.0:
        problems.append("connectivity outside [0, 1]")
    if rec["throughput_kBps"] < 0 or rec["bytes"] < 0:
        problems.append("negative traffic")
    if rec["duration_s"] > 0:
        expected = rec["bytes"] / rec["duration_s"] / 1e3
        if abs(rec["throughput_kBps"] - expected) > 1e-6 * max(1.0, expected):
            problems.append("throughput disagrees with bytes delivered")
    if not rec["joins"] <= rec["associations"] <= rec["join_attempts"]:
        problems.append("joins > associations or associations > attempts")
    receivers = rec["radios"] - 1
    if rec["frames_delivered"] + rec["frames_lost"] > rec["frames_sent"] * receivers:
        problems.append("more receptions than frames sent times receivers")
    return problems


def solve_problems(rec, reference):
    """Reasons a solve record fails against the reference speeds."""
    speed = rec.get("dividing_speed")
    if not _finite(speed):
        return ["dividing speed is not a finite number"]
    ref = reference.get(rec["label"])
    if ref is None:
        return [f"no reference dividing speed for {rec['label']}"]
    if abs(speed - ref) > SOLVE_TOLERANCE:
        return [f"dividing speed {speed:.4f} m/s is more than "
                f"{SOLVE_TOLERANCE} m/s from the reference {ref:.4f}"]
    return []


def record_problems(rec, reference):
    if "dividing_speed" in rec:
        return solve_problems(rec, reference)
    return world_problems(rec)


def check_run(result, reference):
    """Checks one driver run; returns (attempted, failed, messages).

    Every operation of every batch counts as attempted. The first batch's
    failed records count once each; a later batch whose digest differs from
    the first fails all of its operations.
    """
    ops = result["ops_per_batch"]
    digests = result["batch_digests"]
    records = result["records"]
    messages = []
    failed = 0
    if len(records) != ops:
        messages.append(f"expected {ops} records, got {len(records)}")
        failed += ops
    else:
        for rec in records:
            problems = record_problems(rec, reference)
            if problems:
                failed += 1
                messages.append(f"{rec['label']}: " + "; ".join(problems))
    for i, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            failed += ops
            messages.append(f"batch {i} digest {digest} != first {digests[0]}")
    return ops * len(digests), failed, messages
