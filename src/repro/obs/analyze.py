"""Per-stage attribution of an engine trace: where did the wall go?

The same arithmetic as the run's span table (:mod:`repro.obs.trace`),
done over an exported Chrome trace: within each ``closure`` window (the
engine emits one per phase), every span on the closure's thread that
starts inside the window is a stage, and its *self* time -- its
duration minus the spans directly inside it, innermost wins -- is what
the stage is charged.  The closure's own self time is the glue between
spans (pair scheduling, arrival-log bookkeeping, the heartbeat).  Spans
nest, so the stages sum to the windows' wall exactly; a span hanging
past its parent is clipped to it.

The time *outside pair visits* is the wall less the ``pair-compute``
spans; the stage with the most self time there is the top overhead
stage.
"""

from __future__ import annotations

import time

BOTTLENECK_SCHEMA = "grapple/bottleneck-report"
#: Version 3 charges each stage its spans' self time (the run report's
#: ``spans`` arithmetic); the closure's own self time replaced the
#: ``idle`` label, and the merged-segment ``critical_path`` is gone.
BOTTLENECK_VERSION = 3

#: A pair visit; time outside these spans is overhead.
PAIR = "pair-compute"


def _spans(trace) -> list[dict]:
    events = trace.get("traceEvents", []) if isinstance(trace, dict) else trace
    return [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]


def _interval(event: dict) -> tuple[float, float]:
    start = event["ts"] / 1e6
    return start, start + event.get("dur", 0) / 1e6


def _window(closure: dict, spans: list[dict], stages: dict,
            outside: dict) -> None:
    """Add one closure window's self times to ``stages``, and those of
    spans outside any pair visit to ``outside``."""
    lo, hi = _interval(closure)
    track = (closure["pid"], closure["tid"])
    # Parents first: earlier start, then the longer span, then the
    # closure itself.
    items = sorted(
        (_interval(e) + (e is not closure, e["name"]) for e in spans
         if (e["pid"], e["tid"]) == track and lo <= e["ts"] / 1e6 < hi),
        key=lambda item: (item[0], -item[1], item[2]),
    )
    stack: list = []  # [start, end, name, child seconds, in a pair visit]

    def close() -> None:
        start, end, name, child, in_pair = stack.pop()
        self_s = end - start - child
        stages[name] = stages.get(name, 0.0) + self_s
        if not in_pair:
            outside[name] = outside.get(name, 0.0) + self_s

    for start, end, _, name in items:
        while stack and stack[-1][1] <= start:
            close()
        end = min(end, stack[-1][1] if stack else hi)
        if stack:
            stack[-1][3] += end - start
        in_pair = name == PAIR or bool(stack and stack[-1][4])
        stack.append([start, end, name, 0.0, in_pair])
    while stack:
        close()


def analyze_trace(trace, report: dict | None = None) -> dict:
    """Bottleneck report from a Chrome trace (plus optional run-report)."""
    spans = _spans(trace)
    if not spans:
        raise ValueError("trace contains no complete ('ph': 'X') spans")
    closures = [e for e in spans if e["name"] == "closure"]
    if not closures:
        raise ValueError("trace contains no 'closure' span")

    stages: dict[str, float] = {}
    outside: dict[str, float] = {}
    for closure in closures:
        _window(closure, spans, stages, outside)
    wall = sum(hi - lo for lo, hi in map(_interval, closures))
    overhead = sum(outside.values())
    top_stage = max(outside, key=outside.get) if outside else None

    report_doc = {
        "schema": BOTTLENECK_SCHEMA,
        "version": BOTTLENECK_VERSION,
        "generated_unix": round(time.time(), 3),
        "wall_s": round(wall, 6),
        "windows": len(closures),
        "stages_s": {k: round(v, 6) for k, v in sorted(stages.items())},
        "stage_fractions": {
            k: round(v / wall, 4) for k, v in sorted(stages.items())
        } if wall else {},
        "overhead_s": round(overhead, 6),
        "overhead_fraction": round(overhead / wall, 4) if wall else 0.0,
        "top_overhead_stage": top_stage,
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
