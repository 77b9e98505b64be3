#!/usr/bin/env python3
"""CI perf gate over BENCH_perf.json.

Usage: check_perf.py <baseline.json> <measurement.json> [more measurements...]

Every numeric leaf in the baseline (bench/BENCH_perf_baseline.json), except
the "schema"/"note" annotations, is a floor: the corresponding metric in the
measurements must reach floor minus a 5% tolerance. A leaf whose name starts
with "max_" is a ceiling instead: it gates the measurement key without the
prefix (e.g. baseline "max_bytes_per_radio" gates measured "bytes_per_radio")
and the measurements must stay at or under it plus the same tolerance. Most
gated metrics are absolute throughputs, floored far below a quiet box so
they catch collapses rather than jitter; several measurement files may be
passed and the gate takes the best value per metric (highest for floors,
lowest for ceilings), since CI runners are noisy.

Exits 0 when every metric clears its bar, 1 otherwise.
"""
import json
import sys

TOLERANCE = 0.05

CEILING_PREFIX = "max_"


def numeric_leaves(doc, prefix=""):
    """Yields (dotted.path, value) for every numeric leaf of the baseline."""
    for key, value in doc.items():
        if key in ("schema", "note"):
            continue
        if isinstance(value, dict):
            yield from numeric_leaves(value, prefix + key + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key, float(value)


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        node = node[part]
    return float(node)


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    measurements = []
    for path in argv[2:]:
        with open(path) as f:
            measurements.append(json.load(f))

    ok = True
    for path, base in numeric_leaves(baseline):
        parts = path.split(".")
        is_ceiling = parts[-1].startswith(CEILING_PREFIX)
        if is_ceiling:
            measured_path = ".".join(
                parts[:-1] + [parts[-1][len(CEILING_PREFIX):]]
            )
            ceiling = base * (1.0 + TOLERANCE)
            best = min(lookup(m, measured_path) for m in measurements)
            passed = best <= ceiling
            print(
                f"{'PASS' if passed else 'FAIL'}: {measured_path} best "
                f"{best:.3f} vs ceiling {ceiling:.3f} "
                f"(baseline {base:.3f} + {TOLERANCE:.0%})"
            )
        else:
            floor = base * (1.0 - TOLERANCE)
            best = max(lookup(m, path) for m in measurements)
            passed = best >= floor
            print(
                f"{'PASS' if passed else 'FAIL'}: {path} best {best:.3f} vs "
                f"floor {floor:.3f} (baseline {base:.3f} - {TOLERANCE:.0%})"
            )
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
