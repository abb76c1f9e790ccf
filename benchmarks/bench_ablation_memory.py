"""Ablation: memory budget vs partition count and I/O share.

The out-of-core design's tradeoff: a smaller in-memory budget means more,
smaller partitions, more loading/flushing per fixpoint, and a larger I/O
share -- but identical analysis results.
"""

from benchmarks.helpers import emit, format_duration, grapple_run
from repro.obs.report import breakdown

SUBJECT = "zookeeper"
BUDGETS = (2 << 20, 16 << 20, 64 << 20)


def test_ablation_memory_budget(benchmark, capsys):
    def collect():
        return {
            budget: grapple_run(SUBJECT, memory_budget=budget)
            for budget in BUDGETS
        }

    runs = benchmark.pedantic(collect, rounds=1, iterations=1)
    lines = [
        f"{'budget':>10}{'#partitions':>13}{'#pairs':>9}{'I/O share':>11}"
        f"{'time':>10}{'warnings':>10}"
    ]
    partitions = {}
    warnings = {}
    for budget in BUDGETS:
        _s, run = runs[budget]
        stats = run.stats
        partitions[budget] = stats.final_partitions
        warnings[budget] = {
            (w.checker, w.func, w.kind) for w in run.report.warnings
        }
        lines.append(
            f"{budget >> 20:>8}MB{stats.final_partitions:>13}"
            f"{stats.pairs_processed:>9}"
            f"{breakdown(run.closure_spans)['io']:>11.1%}"
            f"{format_duration(run.total_time):>10}{len(run.report):>10}"
        )
    lines.append(
        "\nshape: shrinking the budget multiplies partitions and pair"
        " iterations; the report is identical at every setting."
    )
    emit("Ablation: memory budget", lines, capsys)

    assert partitions[BUDGETS[0]] >= partitions[BUDGETS[-1]]
    first = warnings[BUDGETS[0]]
    assert all(w == first for w in warnings.values())
