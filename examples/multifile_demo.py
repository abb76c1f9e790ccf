"""Multi-file linting demo: cross-file name resolution plus the new rules.

``examples/multifile_demo/`` holds three files -- ``core.mini`` and
``util.mini`` declare modules, ``app.mini`` imports both from the root
namespace -- deliberately written so that every lint rule added with
multi-file support fires exactly once:

* ``unresolved-name`` -- ``core.missing(x)`` names a symbol ``core``
  does not define;
* ``ambiguous-import`` -- ``helper`` is imported from both ``core`` and
  ``util``;
* ``tainted-sink`` -- the ``UserInput`` request reaches ``exec`` with no
  sanitizer;
* ``lock-order`` -- the ``Monitor`` is acquired twice without release;
* ``dead-store`` -- ``w`` is assigned and never read;
* ``shadowed-variable`` -- an inner ``var x`` hides the outer one.

The same directory works with the CLI::

    python -m repro check examples/multifile_demo --lint \
        --checkers taint,order,iterator,lockdep
"""

import os

from repro.checkers.checker import pack_checkers
from repro.sa.lint import run_lint_files

DEMO_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "multifile_demo"
)

EXPECTED_KINDS = {
    "unresolved-name",
    "ambiguous-import",
    "tainted-sink",
    "lock-order",
    "dead-store",
    "shadowed-variable",
}


def main():
    sources = {}
    for name in sorted(os.listdir(DEMO_DIR)):
        if name.endswith(".mini"):
            with open(os.path.join(DEMO_DIR, name)) as f:
                sources[name] = f.read()

    report = run_lint_files(
        sources, fsms=[c.fsm for c in pack_checkers()]
    )
    print(report.summary())

    missing = EXPECTED_KINDS - report.kinds()
    assert not missing, f"demo should fire every new rule; missing: {missing}"

    # File discovery order must not matter: feed the files reversed and
    # expect byte-identical output.
    reversed_report = run_lint_files(
        list(sources.items())[::-1], fsms=[c.fsm for c in pack_checkers()]
    )
    assert reversed_report.summary() == report.summary()
    print(f"OK: all {len(EXPECTED_KINDS)} multi-file lint kinds fired,"
          " output independent of file order")


if __name__ == "__main__":
    main()
