"""A seeded corpus of programs that branch on compound conditions.

Every program writes and closes two FileWriters under ``&&``/``||``/``!``
conditions, nested, over int parameters, booleans assigned a compound
value and branched on later, ``w != null`` object operands, an int
parameter used as a boolean and ``while (i < 2 && ...)`` loops.  Each
program's io warnings, without their ``[e.g. ...]`` witness, are pinned
in ``golden/compound_corpus.json``, recorded while the solver still
decided disjunctions (DPLL(T)); ``PYTHONPATH=src python -m
tests.cfet.compound_corpus`` prints the same document for the code at
hand.  One statement between the allocations and the closes keeps each
program well under 0.3 s; ``program(seed, statements)`` makes larger ones.
"""

import json
import random
import re
import sys

from repro import Grapple
from repro.checkers.checker import Checker

SEEDS = range(96)
_WITNESS = re.compile(r" \[e\.g\. when .*\]$")
_EVENTS = ("w.write(a);", "w.close();", "v.write(r);", "v.close();", "")
HELPER = "func pick(x, y) {\n    if (x > y || y == 0) { return x; }\n    return y;\n}\n"


def _atom(rng, bools):
    kind = rng.randrange(6)
    if kind == 0 and bools:
        return rng.choice(bools)
    if kind == 1:
        return rng.choice(("w != null", "v != null"))
    if kind == 2:
        return "c"  # an int parameter used as a boolean
    op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
    return f"{rng.choice('abr')} {op} {rng.randint(-1, 2)}"


def _cond(rng, bools, depth=2):
    if depth == 0 or rng.random() < 0.3:
        text = _atom(rng, bools)
    else:
        op = rng.choice(("&&", "||"))
        text = f"({_cond(rng, bools, depth - 1)} {op} {_cond(rng, bools, depth - 1)})"
    return f"!({text})" if rng.random() < 0.25 else text


def program(seed: int, statements: int = 1) -> str:
    rng = random.Random(seed)
    bools = []
    body = ["var w = new FileWriter();", "var v = new FileWriter();",
            "var r = pick(a, b);", "var i = b;"]
    for n in range(statements):
        kind = rng.randrange(3)
        if kind == 0:
            bools.append(f"p{n}")
            body.append(f"var p{n} = {_cond(rng, bools[:-1])};")
        elif kind == 1:
            body.append(f"while (i < 2 && {_cond(rng, bools, 0)}) "
                        f"{{ {rng.choice(_EVENTS)} i = i + 1; }}")
        else:
            body.append(f"if ({_cond(rng, bools)}) {{ {rng.choice(_EVENTS)} }} "
                        f"else {{ {rng.choice(_EVENTS)} }}")
    guard = _cond(rng, bools, 1)
    body.append(f"if ({guard}) {{ w.close(); }}")
    # Either an unrelated guard or the complement, so that only an
    # infeasible path leaks or writes a closed stream.
    guard = f"!({guard})" if rng.random() < 0.5 else _cond(rng, bools, 1)
    body.append(f"if ({guard}) {{ {rng.choice(_EVENTS)} v.close(); w.close(); }}")
    lines = "".join(f"    {line}\n" for line in body)
    return f"{HELPER}func main(a, b, c) {{\n{lines}    return;\n}}\n"


def warning_lines(source: str) -> list[str]:
    """The io checker's warnings on one program, witnesses stripped."""
    report = Grapple(source, [Checker.by_name("io").fsm]).run().report
    return [_WITNESS.sub("", w.describe()) for w in report.warnings]


if __name__ == "__main__":
    golden = {str(seed): warning_lines(program(seed)) for seed in SEEDS}
    json.dump(golden, sys.stdout, indent=1)
    sys.stdout.write("\n")
