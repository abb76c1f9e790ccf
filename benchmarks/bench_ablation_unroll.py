"""Ablation: loop-unroll bound K (paper §3.1 bounds loop iterations).

Larger K makes CFETs (and so the program graph and analysis time) grow,
without changing the verdicts on the seeded subjects -- their bugs do not
depend on iteration counts beyond 1.

The paper's pipeline has no pre-closure reduction, so the K rows run
with it off.  With it on, constant folding prunes the extra unrolled
iterations before the graph is built: the reduced rows fold more
branches as K grows, keep the graph the same size, and report the same
warnings at every K.
"""

from benchmarks.helpers import emit, format_duration, grapple_run, subject
from repro.workloads import classify_report

SUBJECT = "zookeeper"
BOUNDS = (1, 2, 3)


def _warnings(run) -> list:
    return sorted(
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
        for w in run.report.warnings
    )


def test_ablation_unroll_bound(benchmark, capsys):
    def collect():
        return {
            (k, reduce): grapple_run(SUBJECT, unroll=k, reduce=reduce)
            for reduce in (False, True) for k in BOUNDS
        }

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)
    subj = subject(SUBJECT)
    lines = [
        f"{'K':>3}{'reduce':>8}{'#V':>10}{'#EB':>10}{'#EA':>10}{'time':>10}"
        f"{'TP':>5}{'FP':>5}{'missed':>8}{'folded':>8}"
    ]
    edge_counts = {}
    folded = {}
    warnings = {}
    for reduce in (False, True):
        for k in BOUNDS:
            _s, run = runs[(k, reduce)]
            cls = classify_report(subj.seeds, run.report)
            tp, fp = cls.totals()
            stats = run.stats
            lines.append(
                f"{k:>3}{'on' if reduce else 'off':>8}{stats.vertices:>10}"
                f"{stats.edges_before:>10}{stats.edges_after:>10}"
                f"{format_duration(run.total_time):>10}"
                f"{tp:>5}{fp:>5}{sum(cls.missed.values()):>8}"
                f"{run.reduction.branches_folded if reduce else '-':>8}"
            )
            if reduce:
                folded[k] = run.reduction.branches_folded
                warnings[k] = _warnings(run)
                continue
            edge_counts[k] = stats.edges_before
            assert not cls.missed, (k, cls.missed)
            assert not cls.unexpected, (k, cls.unexpected)
    lines.append(
        "\nshape: without reduction the graph grows monotonically with K"
        " while the verdicts stay exactly the seeded ground truth; with"
        " it, constant folding erases the extra iterations."
    )
    emit("Ablation: loop unroll bound", lines, capsys)

    assert edge_counts[1] < edge_counts[2] <= edge_counts[3]
    assert warnings[1] == warnings[2] == warnings[3]
    assert folded[1] < folded[2] < folded[3]
