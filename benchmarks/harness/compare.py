"""Compare two result sets under the per-metric bounds.

For each (workload, end-to-end metric) the verdict is

* ``regression`` -- the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` -- the run-to-run spread (max - min of the rounds, as a
  share of the median) of either side exceeds the bound and the two
  sides' ranges overlap, so the rounds cannot tell the sides apart;
* ``pass`` otherwise.

Every ratio is printed with its base.
"""

from __future__ import annotations

import json
import statistics

from . import spec


def spread(samples) -> float:
    mid = statistics.median(samples)
    return (max(samples) - min(samples)) / mid if mid else 0.0


def verdict(metric: spec.Metric, base, new) -> tuple[str, float]:
    """(``pass`` | ``regression`` | ``unresolved``, worsening share)."""
    a, b = statistics.median(base), statistics.median(new)
    if metric.better == "lower":
        worsening = (b - a) / a if a else 0.0
    else:
        worsening = (a - b) / a if a else 0.0
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if max(spread(base), spread(new)) > metric.bound and overlap:
        return "unresolved", worsening
    if worsening > metric.bound:
        return "regression", worsening
    return "pass", worsening


def compare_sets(base: dict, new: dict, symmetric: bool = False):
    """Rows ``(workload, metric, status, text)`` over two result sets.

    ``symmetric`` (used by ``--agree``) also fails a metric whose *base*
    is worse than *new* by more than the bound: the sides must agree.
    """
    rows = []
    for w in spec.WORKLOADS:
        a_set = base.get("workloads", {}).get(w.name, {}).get("end_to_end", {})
        b_set = new.get("workloads", {}).get(w.name, {}).get("end_to_end", {})
        for metric in spec.END_TO_END:
            a = a_set.get(metric.name, {}).get("samples")
            b = b_set.get(metric.name, {}).get("samples")
            if not a or not b:
                rows.append((w.name, metric.name, "missing", "no samples on one side"))
                continue
            status, worsening = verdict(metric, a, b)
            if symmetric and status == "pass":
                status, _ = verdict(metric, b, a)
            base_mid, new_mid = statistics.median(a), statistics.median(b)
            text = (
                f"{new_mid:.4g} vs base {base_mid:.4g} {metric.unit}"
                f" ({worsening:+.1%} of base, bound {metric.bound:.0%};"
                f" spread base {spread(a):.1%} n={len(a)},"
                f" new {spread(b):.1%} n={len(b)})"
            )
            rows.append((w.name, metric.name, status, text))
    return rows


def render(rows) -> str:
    return "\n".join(
        f"{status:<10} {workload:<14} {metric:<13} {text}"
        for workload, metric, status, text in rows
    )


def exit_code(rows, strict: bool = False) -> int:
    """1 on any regression (or, with ``strict``, anything but a pass)."""
    bad = {"regression", "missing"} | ({"unresolved"} if strict else set())
    return 1 if any(row[2] in bad for row in rows) else 0


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as f:
        base = json.load(f)
    with open(path_b) as f:
        new = json.load(f)
    rows = compare_sets(base, new)
    print(render(rows))
    return exit_code(rows)
