"""Figure 9: performance breakdown.

Per subject, the share of the closures' time spent on I/O, constraint
encoding/decoding (lookup), SMT solving, and in-memory edge computation
(the closure windows' span self times, ``repro.obs.report.breakdown``).
Paper shapes: SMT solving plus edge computation dominate everywhere; I/O
is a few percent; one subject (Hadoop) is computation-dominated while the
others are solver-dominated.
"""

from benchmarks.helpers import SUBJECT_NAMES, emit, grapple_run
from repro.obs.report import breakdown


def _ascii_bar(fraction: float, width: int = 32) -> str:
    return "#" * max(1, round(fraction * width)) if fraction > 0 else ""


def test_fig9_breakdown(benchmark, capsys):
    runs = benchmark.pedantic(
        lambda: {name: grapple_run(name) for name in SUBJECT_NAMES},
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'Subject':<11}{'I/O':>7}{'Encode':>8}{'SMT':>7}{'Compute':>9}"
    ]
    breakdowns = {}
    for name in SUBJECT_NAMES:
        _subj, run = runs[name]
        b = breakdown(run.closure_spans)
        breakdowns[name] = b
        lines.append(
            f"{name:<11}{b['io']:>6.1%}{b['encode']:>8.1%}"
            f"{b['smt']:>7.1%}{b['compute']:>9.1%}"
        )
    lines.append("")
    for name in SUBJECT_NAMES:
        b = breakdowns[name]
        lines.append(f"{name:<11} smt     |{_ascii_bar(b['smt'])}")
        lines.append(f"{'':<11} compute |{_ascii_bar(b['compute'])}")
    lines.append(
        "\nshape checks: SMT + edge computation dominate; I/O stays small"
        " (paper: 1-4.2%); encode/decode is the Python-side of the"
        " paper's 0.2-0.8% constraint lookup."
    )
    emit("Figure 9: performance breakdown", lines, capsys)

    for name, b in breakdowns.items():
        assert b["smt"] + b["compute"] >= 0.45, (name, b)
        assert b["io"] <= 0.35, (name, b)
        assert abs(sum(b.values()) - 1.0) < 1e-6
