"""Shared infrastructure for the benchmark suite.

Every table/figure bench draws its subject programs and Grapple runs from
the memoised builders here, so one `pytest benchmarks/` session analyses
each (subject, configuration) pair exactly once no matter how many tables
consume it.  Results are printed to the real terminal (bypassing pytest's
capture) and appended to ``benchmarks/results/``.
"""

from __future__ import annotations

import functools
import os

from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
from repro.workloads import build_subject, classify_report

#: The four evaluation subjects, smallest first (paper Table 1 order).
SUBJECT_NAMES = ("zookeeper", "hadoop", "hdfs", "hbase")

#: The paper's 16 GB desktop, scaled by the ~1000x ratio between the
#: paper's program-graph sizes (tens of millions of edges) and our
#: synthetic subjects' (tens of thousands).
MEMORY_BUDGET = 16 << 20

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def fsms():
    return tuple(c.fsm for c in default_checkers())


@functools.lru_cache(maxsize=None)
def subject(name: str):
    return build_subject(name)


@functools.lru_cache(maxsize=None)
def grapple_run(
    name: str,
    enable_cache: bool = True,
    unroll: int = 2,
    path_sensitive: bool = True,
    memory_budget: int = MEMORY_BUDGET,
    tag: str = "",
    reduce: bool = True,
):
    """One full Grapple execution (all four checkers) on one subject.

    ``tag`` only differentiates memoisation keys: benches that compare
    timings pass a tag to get dedicated, same-process-warmth runs instead
    of reusing a run that may have executed cold at session start.
    """
    subj = subject(name)
    options = GrappleOptions(
        unroll=unroll,
        reduce=reduce,
        engine=EngineOptions(
            memory_budget=memory_budget,
            enable_cache=enable_cache,
            path_sensitive=path_sensitive,
        ),
    )
    run = Grapple(subj.source, list(fsms()), options).run()
    return subj, run


def classification(name: str):
    subj, run = grapple_run(name)
    return classify_report(subj.seeds, run.report)


def run_report(run, subject_name: str | None = None) -> dict:
    """The ``grapple/run-report`` JSON document for a memoised run --
    every bench gets the full counter/gauge/histogram breakdown from the
    same structured export the CLI's ``--metrics-json`` writes."""
    return run.run_report(subject=subject_name)


def format_duration(seconds: float) -> str:
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{seconds % 60:04.1f}s"
    return f"{seconds:.1f}s"


def emit(title: str, lines: list[str], capsys=None, payload=None) -> None:
    """Print a result table to the real terminal and persist it.

    When ``payload`` is given (any JSON-serialisable object, e.g. a
    run-report document), it is written alongside the text table as
    ``results/<slug>.json``.
    """
    text = "\n".join([f"\n=== {title} ==="] + lines + [""])
    if capsys is not None:
        with capsys.disabled():
            print(text)
    else:
        print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = "".join(
        ch if ch.isalnum() else "_" for ch in title.lower()
    ).strip("_")
    while "__" in slug:
        slug = slug.replace("__", "_")
    with open(os.path.join(RESULTS_DIR, slug + ".txt"), "w") as f:
        f.write(text + "\n")
    if payload is not None:
        import json

        with open(os.path.join(RESULTS_DIR, slug + ".json"), "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
