#!/usr/bin/env python3
"""Bench regression gate: diff a fresh BENCH_*.json against a baseline.

Usage::

    python benchmarks/compare.py FRESH BASELINE [--threshold 0.15]
        [--abs-floor 0.05] [--metric-threshold PATTERN=FRACTION ...]

Walks both documents and compares leaf values by dotted path, with
per-kind rules tuned for what each metric means:

* ``warnings`` counts gate **exactly**: the checkers are deterministic,
  so any drift is a correctness regression, not noise.
* ``reduction.*`` and ``scopes.*`` counters (branches folded, dead
  stores removed, ``scope_resolutions``, ``unresolved_refs``, ...) gate
  **exactly** for the same reason: the sa passes and the name
  resolver are deterministic functions of the subject.
* keys ending ``_s`` (seconds) gate **lower-is-better**: a regression is
  ``fresh > base * (1 + threshold)`` AND ``fresh - base > abs-floor``
  (the absolute floor keeps millisecond-scale metrics from tripping on
  scheduler noise).  Improvements always pass.
* paths containing ``speedup`` gate **higher-is-better**, mirrored.
* ``null`` on either side means *not applicable* (a counter a
  configuration does not produce) -- skipped, never a regression.
* lists (raw per-round samples) and everything else -- counters, flags,
  host facts like ``cpu_count`` -- are reported as drift but do not
  gate: they vary legitimately across hosts and workloads, and the
  metrics above already gate what they protect.

``--metric-threshold PATTERN=FRACTION`` overrides the relative threshold
for any path containing PATTERN (first match wins, in argument order) --
CI uses a looser wall threshold when the baseline was measured on
different hardware.  Exit status: 0 clean, 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD = 0.15
DEFAULT_ABS_FLOOR = 0.05


def walk(doc, prefix: str = "") -> dict:
    """Flatten a JSON document to {dotted.path: leaf value}."""
    leaves: dict = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(walk(value, path))
    else:
        leaves[prefix] = doc
    return leaves


def _threshold_for(path: str, default: float, overrides: list) -> float:
    for pattern, value in overrides:
        if pattern in path:
            return value
    return default


def _deterministic_section(path: str) -> bool:
    """Whether a path lives in an exactly-gated deterministic section
    (sa reduction counters, name resolution counters)."""
    parts = path.split(".")
    return "reduction" in parts or "scopes" in parts


def compare(
    fresh: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    overrides: list | None = None,
) -> tuple[list[str], list[str]]:
    """(regressions, notes) between two flattened-comparable documents."""
    overrides = overrides or []
    fresh_leaves = walk(fresh)
    base_leaves = walk(baseline)
    regressions: list[str] = []
    notes: list[str] = []

    for path in sorted(base_leaves):
        base = base_leaves[path]
        key = path.rsplit(".", 1)[-1]
        exact = key == "warnings" or _deterministic_section(path)
        gated = exact or key.endswith("_s") or "speedup" in path
        if path not in fresh_leaves:
            (regressions if gated else notes).append(
                f"{path}: missing from fresh results (baseline {base!r})"
            )
            continue
        new = fresh_leaves[path]
        if base is None or new is None:
            if (base is None) != (new is None):
                notes.append(f"{path}: n/a changed ({base!r} -> {new!r})")
            continue
        if isinstance(base, list) or isinstance(new, list):
            continue  # raw per-round samples; best_s gates these
        if isinstance(base, bool) or isinstance(new, bool):
            if new != base:
                notes.append(f"{path}: {base!r} -> {new!r}")
            continue
        if exact:
            if new != base:
                what = (
                    "deterministic warning count" if key == "warnings"
                    else "deterministic counter"
                )
                regressions.append(
                    f"{path}: {what} changed {base} -> {new}"
                    " (must be identical run to run)"
                )
            continue
        if not isinstance(base, (int, float)) or not isinstance(new, (int, float)):
            if new != base:
                notes.append(f"{path}: {base!r} -> {new!r}")
            continue
        limit = _threshold_for(path, threshold, overrides)
        if key.endswith("_s"):
            if new > base * (1 + limit) and new - base > abs_floor:
                regressions.append(
                    f"{path}: {base} -> {new}"
                    f" (+{(new - base) / base:.0%}, limit +{limit:.0%})"
                )
            elif new != base:
                notes.append(f"{path}: {base} -> {new}")
            continue
        if "speedup" in path:
            if new < base * (1 - limit) and base - new > abs_floor:
                regressions.append(
                    f"{path}: {base} -> {new}"
                    f" ({(new - base) / base:.0%}, limit -{limit:.0%})"
                )
            elif new != base:
                notes.append(f"{path}: {base} -> {new}")
            continue
        if new != base:
            notes.append(f"{path}: {base} -> {new}")

    for path in sorted(set(walk(fresh)) - set(base_leaves)):
        notes.append(f"{path}: new metric (no baseline)")
    return regressions, notes


def _parse_override(text: str) -> tuple[str, float]:
    pattern, _, value = text.partition("=")
    if not pattern or not value:
        raise argparse.ArgumentTypeError(
            f"expected PATTERN=FRACTION, got {text!r}"
        )
    return pattern, float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/compare.py",
        description="diff a fresh bench JSON against a committed baseline",
    )
    parser.add_argument("fresh", help="freshly measured BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"relative noise threshold (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--abs-floor", type=float, default=DEFAULT_ABS_FLOOR,
        help="absolute floor in seconds below which timing drift never"
             f" gates (default {DEFAULT_ABS_FLOOR})",
    )
    parser.add_argument(
        "--metric-threshold", action="append", default=[],
        type=_parse_override, metavar="PATTERN=FRACTION",
        help="override the threshold for paths containing PATTERN",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress non-gating drift notes"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare: cannot load inputs: {exc}", file=sys.stderr)
        return 2

    regressions, notes = compare(
        fresh, baseline,
        threshold=args.threshold,
        abs_floor=args.abs_floor,
        overrides=args.metric_threshold,
    )
    if notes and not args.quiet:
        print(f"-- {len(notes)} non-gating change(s):")
        for note in notes:
            print(f"   {note}")
    if regressions:
        print(f"REGRESSION: {len(regressions)} gated metric(s) failed:")
        for regression in regressions:
            print(f"   {regression}")
        return 1
    print(f"ok: no regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
