"""Per-stage attribution of an engine trace: where did the wall go?

The Figure-9 component breakdown says how much time went to I/O,
encoding, SMT and compute; it does not say how much of the closure's
wall was spent *outside* pair visits (checkpoint flushes, retries,
scheduling glue).  This module answers that from the Chrome trace the
engine already records.

The attribution model is a sweep over each ``closure`` window (the
engine emits one per phase).  Every instant inside a window gets exactly
one label, by precedence:

1. covered by a ``pair-compute`` span --> ``pair-compute``;
2. else covered by a stage span (``checkpoint``, ``repartition``,
   ``retry`` -- innermost wins when they nest) --> that stage;
3. else --> ``idle``: no span running (pair scheduling, arrival-log
   bookkeeping, prefetch hints, the heartbeat).

Labels partition the window, so per-stage attributions sum *exactly* to
the wall by construction.  Merged same-label runs, sorted by duration,
are the segments worth staring at.
"""

from __future__ import annotations

import time

BOTTLENECK_SCHEMA = "grapple/bottleneck-report"
#: Version 2 dropped what only a worker pool could make non-trivial (the
#: serialized fraction, concurrency, steal gaps, the Amdahl projection
#: and the report-only mode); ``overhead_*`` is the time outside pair
#: visits.
BOTTLENECK_VERSION = 2

#: Engine span names attributed when no pair visit is running.
STAGES = ("checkpoint", "repartition", "retry")

#: Longest segments kept in the report.
TOP_N_SEGMENTS = 10


def _spans(trace) -> list[dict]:
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else trace
    return [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]


def _interval(event: dict) -> tuple[float, float]:
    start = event["ts"] / 1e6
    return start, start + event.get("dur", 0) / 1e6


def _sweep(window: tuple[float, float], pair_ivs, stage_ivs) -> list[dict]:
    """Label every instant of one closure window (see module docstring).

    ``pair_ivs`` are (lo, hi) pair-compute intervals; ``stage_ivs`` are
    (lo, hi, stage) stage intervals.  Returns merged same-label
    segments covering the window exactly.
    """
    w_lo, w_hi = window
    bounds = {w_lo, w_hi}
    for lo, hi in pair_ivs:
        if hi > w_lo and lo < w_hi:
            bounds.add(max(lo, w_lo))
            bounds.add(min(hi, w_hi))
    for lo, hi, _stage in stage_ivs:
        if hi > w_lo and lo < w_hi:
            bounds.add(max(lo, w_lo))
            bounds.add(min(hi, w_hi))
    cuts = sorted(bounds)
    segments: list[dict] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2
        if any(p_lo <= mid < p_hi for p_lo, p_hi in pair_ivs):
            label = "pair-compute"
        else:
            # Innermost stage covering this instant: the one that
            # started latest (ties broken by earliest end).
            best = None
            for s_lo, s_hi, stage in stage_ivs:
                if s_lo <= mid < s_hi:
                    key = (s_lo, -s_hi)
                    if best is None or key > best[0]:
                        best = (key, stage)
            label = best[1] if best else "idle"
        if segments and segments[-1]["stage"] == label:
            segments[-1]["end_s"] = hi
        else:
            segments.append({"stage": label, "start_s": lo, "end_s": hi})
    return segments


def analyze_trace(trace, report: dict | None = None, top_n: int = TOP_N_SEGMENTS) -> dict:
    """Bottleneck report from a Chrome trace (plus optional run-report)."""
    spans = _spans(trace)
    if not spans:
        raise ValueError("trace contains no complete ('ph': 'X') spans")

    closures = [e for e in spans if e["name"] == "closure"]
    if closures:
        windows = sorted(_interval(e) for e in closures)
    else:
        # No closure span (a hand-cut trace): analyze its full extent
        # as one window.
        ivs = [_interval(e) for e in spans]
        windows = [(min(lo for lo, _ in ivs), max(hi for _, hi in ivs))]

    pair_ivs = [_interval(e) for e in spans if e["name"] == "pair-compute"]
    stage_ivs = [
        (*_interval(e), e["name"]) for e in spans if e["name"] in STAGES
    ]

    segments: list[dict] = []
    for window in windows:
        segments.extend(_sweep(window, pair_ivs, stage_ivs))

    wall = sum(hi - lo for lo, hi in windows)
    stages: dict[str, float] = {}
    for seg in segments:
        stages[seg["stage"]] = (
            stages.get(seg["stage"], 0.0) + seg["end_s"] - seg["start_s"]
        )
    overhead = wall - stages.get("pair-compute", 0.0)

    top = sorted(
        segments, key=lambda s: s["end_s"] - s["start_s"], reverse=True
    )[:top_n]

    outside = {k: v for k, v in stages.items() if k != "pair-compute"}
    top_stage = max(outside, key=outside.get) if outside else None

    report_doc = {
        "schema": BOTTLENECK_SCHEMA,
        "version": BOTTLENECK_VERSION,
        "generated_unix": round(time.time(), 3),
        "wall_s": round(wall, 6),
        "windows": len(windows),
        "stages_s": {k: round(v, 6) for k, v in sorted(stages.items())},
        "stage_fractions": {
            k: round(v / wall, 4) for k, v in sorted(stages.items())
        } if wall else {},
        "overhead_s": round(overhead, 6),
        "overhead_fraction": round(overhead / wall, 4) if wall else 0.0,
        "top_overhead_stage": top_stage,
        "critical_path": [
            {
                "stage": s["stage"],
                "start_s": round(s["start_s"], 6),
                "end_s": round(s["end_s"], 6),
                "dur_s": round(s["end_s"] - s["start_s"], 6),
            }
            for s in top
        ],
    }
    if report:
        report_doc["subject"] = report.get("subject")
        report_doc["run_wall_s"] = report.get("timing", {}).get("computation_s")
    return report_doc


def format_bottleneck(doc: dict) -> str:
    """Human-readable rendering of a bottleneck report."""
    lines = [
        "bottleneck report",
        f"  wall            {doc['wall_s']:.3f}s",
        f"  outside pairs   {doc['overhead_fraction']:.1%}"
        f" ({doc['overhead_s']:.3f}s)",
        f"  top stage       {doc['top_overhead_stage']}",
    ]
    for stage, secs in doc["stages_s"].items():
        frac = doc["stage_fractions"].get(stage, 0.0)
        lines.append(f"    {stage:<14} {secs:9.3f}s  {frac:6.1%}")
    return "\n".join(lines)
