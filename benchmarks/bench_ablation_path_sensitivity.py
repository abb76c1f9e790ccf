"""Ablation: path sensitivity on vs off.

The paper's §2 argument: without path sensitivity the checker either
over-approximates (warnings on infeasible paths -- false positives) or is
useless.  Disabling the constraint checks (a Graspan-style, purely
grammar-guided closure) must strictly increase reported warnings on the
seeded subjects while the path-sensitive run matches the ground truth.
"""

from benchmarks.helpers import emit, grapple_run, subject
from repro.workloads import classify_report

SUBJECT = "zookeeper"


def _smt_s(run) -> float:
    """Seconds in the solver: the closures' ``smt-solve`` spans."""
    return run.closure_spans.get("smt-solve", (0.0, 0.0, 0))[1]


def test_ablation_path_sensitivity(benchmark, capsys):
    def collect():
        _s, sensitive = grapple_run(SUBJECT, path_sensitive=True)
        _s, insensitive = grapple_run(SUBJECT, path_sensitive=False)
        return sensitive, insensitive

    sensitive, insensitive = benchmark.pedantic(collect, rounds=1,
                                                iterations=1)
    subj = subject(SUBJECT)
    cls_on = classify_report(subj.seeds, sensitive.report)
    cls_off = classify_report(subj.seeds, insensitive.report)

    tp_on, fp_on = cls_on.totals()
    tp_off, fp_off = cls_off.totals()
    spurious_off = fp_off + len(cls_off.unexpected)
    spurious_on = fp_on + len(cls_on.unexpected)

    lines = [
        f"{'configuration':<22}{'warnings':>10}{'TP':>6}{'FP+unexpected':>15}"
        f"{'SMT time':>10}",
        f"{'path-sensitive':<22}{len(sensitive.report):>10}{tp_on:>6}"
        f"{spurious_on:>15}{_smt_s(sensitive):>9.2f}s",
        f"{'path-insensitive':<22}{len(insensitive.report):>10}{tp_off:>6}"
        f"{spurious_off:>15}{_smt_s(insensitive):>9.2f}s",
        "\nshape: dropping path sensitivity keeps the true bugs but adds"
        " spurious warnings (the paper's motivation for constraints).",
    ]
    emit("Ablation: path sensitivity", lines, capsys)

    assert tp_off >= tp_on  # over-approximation never loses true bugs
    assert spurious_off > spurious_on  # ... but hallucinates extra ones
    assert _smt_s(insensitive) <= _smt_s(sensitive)
