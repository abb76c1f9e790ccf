"""The paper's Figure 1 bug: a ServerSocketChannel leak in ZooKeeper.

``NIOServerCnxnFactory.reconfigure`` saves the old channel, opens a new
one, and only closes the old one several statements later -- any exception
thrown in between leaks it.  This example models that code in the
mini-language and runs the socket checker: the leak is found on the
exception path, while the corrected version is clean.

Run:  python examples/zookeeper_socket_leak.py
"""

from repro import Checker, Grapple

# reconfigure(): the old channel's close() can be skipped by an exception
# thrown from the statements between the new bind and oldSS.close().
BUGGY = """
func wakeup_selector(x) {
    if (x > 3) {
        var e = new IOException();
        throw e;
    }
    return;
}

func reconfigure(addr) {
    var oldSS = new ServerSocketChannel();
    oldSS.bind(addr);
    oldSS.configureBlocking(0);
    try {
        var ss = new ServerSocketChannel();
        ss.bind(addr);
        ss.configureBlocking(0);
        wakeup_selector(addr);
        oldSS.close();
        ss.close();
    } catch (err) {
        ss.close();
    }
    return;
}

func main(addr) {
    reconfigure(addr);
    return;
}
"""

# The fix ZooKeeper applied: close the old channel *before* anything that
# can throw.
FIXED = """
func wakeup_selector(x) {
    if (x > 3) {
        var e = new IOException();
        throw e;
    }
    return;
}

func reconfigure(addr) {
    var oldSS = new ServerSocketChannel();
    oldSS.bind(addr);
    oldSS.configureBlocking(0);
    oldSS.close();
    try {
        var ss = new ServerSocketChannel();
        ss.bind(addr);
        ss.configureBlocking(0);
        wakeup_selector(addr);
        ss.close();
    } catch (err) {
        ss.close();
    }
    return;
}

func main(addr) {
    reconfigure(addr);
    return;
}
"""


def check(label: str, source: str) -> int:
    run = Grapple(source, [Checker.by_name("socket").fsm]).run()
    print(f"-- {label}: {len(run.report)} warning(s)")
    for warning in run.report.warnings:
        print(f"   {warning.describe()}")
    return len(run.report)


def main() -> None:
    print("== ZooKeeper 3.5.0 NIOServerCnxnFactory reconfigure() ==\n")
    buggy = check("buggy reconfigure (Figure 1)", BUGGY)
    print()
    fixed = check("fixed reconfigure", FIXED)
    assert buggy >= 1, "the Figure 1 leak should be reported"
    assert fixed == 0, "the fixed version should be clean"
    print("\nOK: leak found in the buggy version only.")


if __name__ == "__main__":
    main()
