"""Capture / compare the engine's full fixpoint for oracle tests.

The columnar-store refactor must not change the engine's observable
output: the final edge sets (with witness encodings) of both phases and
the checker report.  This module canonicalises a :class:`GrappleRun`
into a JSON-able structure; ``tests/engine/golden/`` holds snapshots
taken from the pre-change engine, and ``test_oracle_equivalence.py``
asserts the current engine still reproduces them byte-for-byte.

Regenerate (only when an *intentional* output change lands)::

    PYTHONPATH=src:tests python -m engine.oracle_capture
"""

from __future__ import annotations

import json
import os

SUBJECTS = (("zookeeper", 0.4), ("hdfs", 0.4))
MEMORY_BUDGET = 4 << 20
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def canonical_run(run) -> dict:
    """JSON-able canonical form of a run's edges + report."""
    edges = []
    for phase_name, phase in (
        ("alias", run.alias_phase),
        ("dataflow", run.dataflow_phase),
    ):
        for src, dst, label, encoding in phase.engine_result.iter_edges():
            edges.append(
                [phase_name, src, dst, list(label),
                 [list(elem) for elem in encoding]]
            )
    edges.sort()
    warnings = sorted(
        [w.checker, w.kind, w.site, w.state, w.line]
        for w in run.report.warnings
    )
    return {"edges": edges, "warnings": warnings}


def run_subject(name: str, scale: float, reduce: bool = False):
    from repro import EngineOptions, Grapple, GrappleOptions, default_checkers
    from repro.workloads import build_subject

    source = build_subject(name, scale=scale).source
    fsms = [c.fsm for c in default_checkers()]
    # The golden snapshots pin the *engine's* full fixpoint, so the
    # pre-closure reductions stay off unless a test asks for them.
    options = GrappleOptions(
        reduce=reduce, engine=EngineOptions(memory_budget=MEMORY_BUDGET)
    )
    return Grapple(source, fsms, options).run()


def golden_path(name: str, scale: float) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}_{scale}.json")


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, scale in SUBJECTS:
        data = canonical_run(run_subject(name, scale))
        with open(golden_path(name, scale), "w") as f:
            json.dump(data, f)
            f.write("\n")
        print(
            f"{name}@{scale}: {len(data['edges'])} edges,"
            f" {len(data['warnings'])} warnings"
        )


if __name__ == "__main__":
    main()
