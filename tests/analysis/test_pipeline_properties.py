"""Property-based tests over the whole pipeline.

Random small programs are generated from structured strategies and fed
through the three-phase pipeline; the properties assert crash-freedom and
semantic invariants (warnings reference real allocation sites; a program
that closes every resource on every path is never flagged; adding dead
code never changes the verdict).
"""

from hypothesis import given, settings, strategies as st

from repro import Checker, Grapple
from repro.lang.parser import parse_program


@st.composite
def resource_blocks(draw, idx=0):
    """One function body fragment using a FileWriter.

    ``idx`` must be unique per block: reusing one variable name for two
    resources merges their block-level vertices (a documented granularity
    limit), which would make the expected verdict ambiguous.
    """
    close_mode = draw(st.sampled_from(["always", "branch", "never", "alias"]))
    threshold = draw(st.integers(-5, 5))
    name = f"r{idx}"
    lines = [
        f"    var {name} = new FileWriter();",
        f"    {name}.write(x);",
    ]
    if close_mode == "always":
        lines.append(f"    {name}.close();")
        leaks = False
    elif close_mode == "branch":
        lines += [
            f"    if (x > {threshold}) {{",
            f"        {name}.close();",
            "    }",
        ]
        leaks = True
    elif close_mode == "alias":
        lines += [
            f"    var a{idx} = {name};",
            f"    a{idx}.close();",
        ]
        leaks = False
    else:
        leaks = True
    return "\n".join(lines), leaks


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    blocks = [draw(resource_blocks(idx=i)) for i in range(n)]
    body = "\n".join(text for text, _ in blocks)
    expect_leak = any(leaks for _, leaks in blocks)
    noise = draw(st.integers(0, 2))
    noise_lines = "\n".join(
        f"    var n{i} = x * {i + 2};" for i in range(noise)
    )
    source = f"func main(x) {{\n{noise_lines}\n{body}\n    return;\n}}\n"
    return source, expect_leak


@settings(max_examples=25, deadline=None)
@given(programs())
def test_pipeline_never_crashes_and_verdict_matches(case):
    source, expect_leak = case
    run = Grapple(source, [Checker.by_name("io").fsm]).run()
    leaks_reported = any(w.kind == "at-exit" for w in run.report.warnings)
    assert leaks_reported == expect_leak, source


@settings(max_examples=25, deadline=None)
@given(programs())
def test_warnings_reference_real_sites(case):
    source, _ = case
    program = parse_program(source)
    run = Grapple(source, [Checker.by_name("io").fsm]).run()
    max_site = max(
        (s.value.site for s in program.entry.body
         if hasattr(s, "value") and hasattr(s.value, "site")),
        default=-1,
    )
    for warning in run.report.warnings:
        assert warning.func == "main"
        assert 0 <= warning.site
        assert warning.type_name == "FileWriter"


@settings(max_examples=15, deadline=None)
@given(programs(), st.integers(0, 3))
def test_dead_code_does_not_change_verdict(case, extra):
    source, _ = case
    run1 = Grapple(source, [Checker.by_name("io").fsm]).run()
    # Append an uncalled function: verdict on main must be unchanged.
    dead = "\n".join(
        f"func dead{i}(v) {{ var d = v + {i}; return d; }}"
        for i in range(extra)
    )
    run2 = Grapple(source + "\n" + dead, [Checker.by_name("io").fsm]).run()
    key = lambda r: {(w.checker, w.func, w.kind, w.state) for w in r.warnings}
    assert key(run1.report) == key(run2.report)
