"""Quickstart: check the paper's Figure 3b program with the I/O checker.

The program opens a FileWriter in one branch and closes it only when a
correlated condition holds.  Of the four static control-flow paths, one is
infeasible (the paper's path 3: x < 0 and then y > 0 with y == x + 1), and
one leaks the writer (path 2: x >= 0 but y <= 0).  Grapple's path-sensitive
analysis reports exactly the leak -- and nothing for the infeasible path.

Run:  python examples/quickstart.py
"""

from repro import Checker, Grapple

FIG3B = """
func main(arg0) {
    var out = null;
    var o = null;
    var x = arg0;
    var y = x;
    if (x >= 0) {
        out = new FileWriter();
        o = out;
        y = y - 1;
    } else {
        y = y + 1;
    }
    if (y > 0) {
        out.write(x);
        o.close();
    }
    return;
}
"""


def main() -> None:
    run = Grapple(FIG3B, [Checker.by_name("io").fsm]).run()

    print("== Figure 3b: FileWriter property check ==")
    print(run.report.summary())
    print()
    print("What happened under the hood:")
    stats = run.stats
    print(f"  program graph vertices : {stats.vertices}")
    print(f"  edges before closure   : {stats.edges_before}")
    print(f"  edges after closure    : {stats.edges_after}")
    print(f"  constraints solved     : {stats.constraints_solved}")
    print(f"  infeasible paths cut   : {stats.infeasible_dropped}")
    print(f"  total time             : {run.total_time:.3f}s")

    assert len(run.report) == 1, "expected exactly the path-2 leak"
    assert run.report.warnings[0].kind == "at-exit"
    print("\nOK: exactly one warning -- the leak on the feasible path.")


if __name__ == "__main__":
    main()
