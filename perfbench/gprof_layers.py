"""Groups a gprof flat profile into the simulator's layers.

A layer is a module under src/ (sim, phy, mac, ...). A function belongs to
the layer named by the first ``spider::<module>::`` namespace in its
demangled name once every parenthesised group (parameter lists, function
types, ``(anonymous namespace)``) is removed. Stripping the parentheses makes
a ``std::function`` thunk count for the functor it wraps rather than for the
types in its call signature:

    std::_Function_handler<void (spider::net::Frame const&),
                           spider::core::ClientDevice::...::{lambda(...)#1}>
        -> core

Everything else (libstdc++ templates with no simulator type, the benchmark
driver, ``_init``) is ``other``.
"""

import re

LAYERS = ("sim", "net", "phy", "mac", "dhcpd", "backhaul", "tcp", "mobility",
          "trace", "model", "core", "telemetry")
# Namespaces whose code lives in another module's directory.
ALIASES = {"check": "core"}

_NAMESPACE = re.compile(r"(?<![\w:])spider::([A-Za-z_]\w*)::")
_FLAT_LINE = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+(?P<self>[\d.]+)"
    r"(?:\s+(?P<calls>\d+)\s+[\d.]+\s+[\d.]+)?\s+(?P<name>\S.*?)\s*$")


def strip_parens(name):
    """Removes every balanced parenthesised group from a demangled name."""
    out = []
    depth = 0
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif depth == 0:
            out.append(ch)
    return "".join(out).strip()


def short_name(name):
    """The function's name without parameter lists or a trailing const."""
    stripped = strip_parens(name)
    if stripped.endswith(" const"):
        stripped = stripped[:-len(" const")].rstrip()
    return stripped


def layer_of(name):
    """The layer a demangled function name belongs to, or 'other'."""
    for match in _NAMESPACE.finditer(strip_parens(name)):
        module = ALIASES.get(match.group(1), match.group(1))
        if module in LAYERS:
            return module
    return "other"


def parse_flat_profile(text):
    """Parses `gprof -b -p` output into [(name, self_seconds, calls)].

    `calls` is None for functions that were sampled but not instrumented.
    """
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.lstrip().startswith("time   seconds"):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        m = _FLAT_LINE.match(line)
        if m is None:
            continue
        calls = m.group("calls")
        rows.append((m.group("name"), float(m.group("self")),
                     int(calls) if calls is not None else None))
    return rows


def self_seconds_by_layer(rows):
    """Self seconds summed per layer; every layer and 'other' are present."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals["other"] = 0.0
    for name, self_s, _ in rows:
        totals[layer_of(name)] += self_s
    return totals


def calls_of(rows, predicate):
    """Total calls of every function whose short name satisfies predicate."""
    return sum(calls or 0 for name, _, calls in rows
               if predicate(short_name(name)))
