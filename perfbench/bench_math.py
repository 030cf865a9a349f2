"""Arithmetic of the opconv benchmark.

Everything here works on plain data (the counters and report rows that
`opconv.cli.run_experiment` returns, and lists of wall-clock intervals), so
the tests can check it on a layer small enough to simulate in milliseconds.
"""

from __future__ import annotations

import hashlib
import json
import math

SCHEMES = ("baseline", "intra", "inter", "both")


def geomean(values):
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def split_key(key):
    """Counters keys are "<layer>/<scheme>"; layer names may not hold '/'."""
    layer, _, scheme = key.rpartition("/")
    return layer, scheme


def layers_of(counters):
    """Layer names in the order run_experiment simulated them."""
    seen = []
    for key in counters:
        layer, _ = split_key(key)
        if layer not in seen:
            seen.append(layer)
    return seen


def speedup(counters, scheme, failed=()):
    """Geometric mean over layers of baseline total_cycles / scheme total_cycles.

    Layers whose baseline or scheme run failed are left out; None when no
    layer is left."""
    ratios = []
    for layer in layers_of(counters):
        base, run = f"{layer}/baseline", f"{layer}/{scheme}"
        if base in failed or run in failed or run not in counters:
            continue
        ratios.append(counters[base]["total_cycles"] / counters[run]["total_cycles"])
    return geomean(ratios) if ratios else None


def energy_norm(rows, scheme, failed=()):
    """Geometric mean over layers of the report's energy_norm, which is
    `metrics.normalize()["energy_norm"]` against the layer's baseline run."""
    values = [row["energy_norm"] for row in rows
              if row["scheme"] == scheme
              and f"{row['layer']}/{scheme}" not in failed
              and f"{row['layer']}/baseline" not in failed]
    return geomean(values) if values else None


def fingerprint(record):
    """sha256 of one counters.json record, independent of key order."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints(counters):
    return {key: fingerprint(rec) for key, rec in counters.items()}


def fail_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no runs attempted")
    return failed / attempted


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def uncovered(window, intervals):
    """Length of `window` that none of `intervals` covers.

    This is a span's self time when its children ran on several threads at
    once: summing the children's durations would count the overlap twice."""
    lo, hi = window
    clipped = [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]
    return (hi - lo) - union_length(clipped)
