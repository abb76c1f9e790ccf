"""Root clone trees as the unit of re-analysis (DESIGN.md §16).

Full cloning makes the program graph a forest, so ``Grapple.run`` can be
handed the root-result table of an earlier run and build only the trees
whose key moved.  Three things are pinned here: a partial run says
exactly what the whole run says (decomposition), a warning two trees
share is merged by one rule, and a root's key moves whenever -- and only
when -- something the graph builders read about a function it reaches
has moved (key completeness).
"""

import pytest

from repro.analysis.frontend import compile_source
from repro.analysis.pipeline import Grapple, GrappleOptions
from repro.checkers.checker import default_checkers, pack_checkers
from repro.workloads.multifile import build_multifile_subject
from repro.workloads.subjects import build_subject


def _fsms():
    return [c.fsm for c in default_checkers()]


def _run(source, fsms=None, table=None):
    options = GrappleOptions(root_table={} if table is None else table)
    return Grapple(source, fsms or _fsms(), options).run()


def _verdict(run):
    return [(w, w.witness) for w in run.report.warnings]


# -- decomposition ---------------------------------------------------------------


def _assert_partial_runs_add_up(source, fsms, groups):
    """Every group of roots, re-analysed alone against a table holding
    the others, reproduces the whole run: same table, same report --
    witnesses and order included."""
    whole = _run(source, fsms)
    table = whole.root_table
    assert whole.rechecked == sorted(table)
    assert sorted(r for group in groups(sorted(table)) for r in group) \
        == sorted(table)  # each root is re-analysed exactly once
    for group in groups(sorted(table)):
        seed = {r: e for r, e in table.items() if r not in group}
        part = _run(source, fsms, seed)
        assert part.rechecked == sorted(group)
        assert len(part.compiled.forest.roots) == len(group)
        assert part.root_table == table
        assert list(part.root_table) == list(table)
        assert _verdict(part) == _verdict(whole)
    return whole


def _singly(roots):
    return [[root] for root in roots]


def _eighths(roots):
    return [roots[i::8] for i in range(8)]


def test_one_root_at_a_time_equals_the_whole_run_zookeeper():
    source = build_subject("zookeeper", scale=1).source
    whole = _assert_partial_runs_add_up(source, _fsms(), _singly)
    assert len(whole.report) == 65


@pytest.mark.parametrize("name,fsms,warnings", [
    ("hadoop", default_checkers, 56),
    ("gateway", pack_checkers, 176),
])
def test_partial_runs_equal_the_whole_run(name, fsms, warnings):
    """The larger subjects pay a whole frontend per partial run, so
    their roots go an eighth at a time (hadoop 1: 88 roots; gateway 16:
    208 roots in 16 strata)."""
    if name == "gateway":
        source = build_multifile_subject("gateway", scale=16).sources
    else:
        source = build_subject(name, scale=1).source
    whole = _assert_partial_runs_add_up(
        source, [c.fsm for c in fsms()], _eighths
    )
    assert len(whole.report) == warnings


def test_no_table_builds_every_tree_and_says_the_same():
    source = build_multifile_subject("gateway", scale=1).sources
    fsms = [c.fsm for c in pack_checkers()]
    plain = Grapple(source, fsms).run()
    keyed = _run(source, fsms)
    assert plain.rechecked == keyed.rechecked == sorted(keyed.root_table)
    assert _verdict(plain) == _verdict(keyed)
    assert len(plain.compiled.forest) == len(keyed.compiled.forest)


# -- the merge rule --------------------------------------------------------------

SHARED = {
    "core.mini": """module core;
func make(x) {
    var f = new FileWriter();
    if (x > 2) {
        f.write(x);
    }
    return f;
}
""",
    "app.mini": """module app;
import core;
func alpha(a) {
    var p = core.make(a + 1);
    return;
}
func omega(b) {
    var q = core.make(b - 1);
    return;
}
""",
}


def test_shared_allocation_site_is_reported_once_with_the_first_trees_witness():
    """``core.make``'s one allocation leaks under both roots, and each
    root's entry holds the warning, so either can be re-analysed alone.
    A whole run builds ``app.omega``'s tree first (roots come off a
    stack), so the merged report carries omega's witness -- shown by
    handing in a table whose two witnesses were made to differ."""
    whole = _run(SHARED)
    table = whole.root_table
    assert list(table) == ["app.omega", "app.alpha"]
    (of_omega,), (of_alpha,) = (table[r][1] for r in table)
    assert of_omega == of_alpha
    assert (of_omega["file"], of_omega["offset"]) == ("core.mini", 0)
    assert of_omega["witness"] == ["core.make::x = 3"]
    assert len(whole.report) == 1

    marked = {
        root: [key, [{**w, "witness": [root]} for w in warnings]]
        for root, (key, warnings) in table.items()
    }
    reused = _run(SHARED, table=marked)
    assert reused.rechecked == [] and len(reused.compiled.forest) == 0
    assert reused.root_table == marked
    assert _verdict(reused) == [(whole.report.warnings[0], ("app.omega",))]

    del marked["app.alpha"]  # the later tree re-analysed: omega's still wins
    part = _run(SHARED, table=marked)
    assert part.rechecked == ["app.alpha"]
    assert part.root_table["app.alpha"] == table["app.alpha"]
    assert _verdict(part) == [(whole.report.warnings[0], ("app.omega",))]

    part = _run(SHARED, table={"app.alpha": part.root_table["app.alpha"]})
    assert part.rechecked == ["app.omega"]
    assert part.root_table == table
    assert _verdict(part) == _verdict(whole)


# -- key completeness ------------------------------------------------------------

BASE = {
    "lib.mini": """module lib;
func make(x) {
    var f = new FileWriter();
    return f;
}
func pass(p) {
    return p;
}
func touch(q) {
    q.write(1);
    return;
}
""",
    "app.mini": """module app;
import lib;
func first(a) {
    var n = a + 1;
    return n;
}
func uses_make(a) {
    var f = lib.make(a);
    f.close();
    return;
}
func uses_pass(a) {
    var n = lib.pass(a);
    return;
}
func uses_touch(a) {
    var p = new Plain();
    lib.touch(p);
    return;
}
""",
    "far.mini": """module far;
import lib;
func feeds_touch(a) {
    var g = new Plain();
    lib.touch(g);
    return;
}
func solo(a) {
    var s = new FileWriter();
    s.close();
    return;
}
""",
}


def _edit(path, old, new):
    assert old in BASE[path]
    return {**BASE, path: BASE[path].replace(old, new, 1)}


def _moved_roots(after, fsms=None, before=BASE, fsms_before=None):
    """Roots of ``after`` whose key differs from ``before``'s (new roots
    included) -- having checked that a run seeded with ``before``'s
    table re-analyses exactly those and equals a from-scratch run."""
    old = _run(before, fsms_before or fsms)
    scratch = _run(after, fsms)
    seeded = _run(after, fsms, old.root_table)
    assert seeded.root_table == scratch.root_table
    assert _verdict(seeded) == _verdict(scratch)
    moved = {
        root for root, (key, _) in scratch.root_table.items()
        if root not in old.root_table or old.root_table[root][0] != key
    }
    assert set(seeded.rechecked) == moved
    return moved, scratch


def _frontend(sources):
    """What ``Grapple`` compiles of ``sources``; a batch run lets the
    frontend go after the alias graph, so tests read it from here."""
    return compile_source(sources, reduce=True, roots=())


def _reaching(sources, run, *funcs):
    """Roots of ``run`` over ``sources`` whose call-graph reach includes
    one of ``funcs``."""
    edges = _frontend(sources).callgraph.edges
    out = set()
    for root in run.root_table:
        seen, stack = {root}, [root]
        while stack:
            for callee in edges.get(stack.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        if seen & set(funcs):
            out.add(root)
    return out


def test_an_unchanged_program_moves_no_key():
    moved, run = _moved_roots(dict(BASE))
    assert moved == set()
    assert set(run.root_table) == {
        "app.first", "app.uses_make", "app.uses_pass", "app.uses_touch",
        "far.feeds_touch", "far.solo",
    }


def test_body_statement_of_a_shared_callee():
    after = _edit(
        "lib.mini", "var f = new FileWriter();\n    return f;",
        "var f = new FileWriter();\n    f.write(x);\n    return f;",
    )
    moved, run = _moved_roots(after)
    # The new line also shifts lib.pass and lib.touch down the file.
    assert moved == _reaching(after, run, "lib.make", "lib.pass", "lib.touch")
    assert "app.first" not in moved and "far.solo" not in moved


def test_body_statement_of_the_last_function_in_its_file():
    after = _edit("lib.mini", "q.write(1);", "q.write(2);")
    moved, run = _moved_roots(after)
    assert moved == _reaching(after, run, "lib.touch") \
        == {"app.uses_touch", "far.feeds_touch"}


def test_inserted_comment_line_shifts_every_function_below_it():
    moved, run = _moved_roots(_edit(
        "app.mini", "func uses_pass(a)", "// a note\nfunc uses_pass(a)",
    ))
    assert moved == {"app.uses_pass", "app.uses_touch"}  # not first, uses_make


def test_earlier_allocation_shifts_site_offsets_below_it():
    moved, run = _moved_roots(_edit(
        "app.mini", "var n = a + 1;", "var n = a + 1; var z = new Plain();",
    ))
    # Same lines everywhere; every later site in app.mini is one higher.
    assert moved == {"app.first", "app.uses_make", "app.uses_pass",
                     "app.uses_touch"}
    # ...and a *neighbour file's* sites moving moves nothing: far.mini
    # sorts before lib.mini, whose global site ids all shift.
    moved, run = _moved_roots(_edit(
        "far.mini", "var s = new FileWriter();",
        "var s = new FileWriter(); var t = new Plain();",
    ))
    assert moved == {"far.solo"}


def test_object_classification_changed_only_by_a_caller_in_another_root():
    """``lib.pass``'s parameter holds an object once *some* caller hands
    it one; ``app.uses_pass`` reaches ``lib.pass`` and must be
    re-analysed although no function it reaches changed a token."""
    after = _edit(
        "far.mini", "func solo(a) {",
        "func hands_object(a) {\n    var o = new Plain();\n"
        "    var r = lib.pass(o);\n    return;\n}\nfunc solo(a) {",
    )
    moved, run = _moved_roots(after)
    assert "p" in _frontend(after).info.object_vars["lib.pass"]
    # far.solo moved down five lines; far.feeds_touch sits above.
    assert moved == {"app.uses_pass", "far.hands_object", "far.solo"}


def test_relevance_bit_changed_only_by_a_caller_in_another_root():
    """``lib.touch``'s ``q`` is an object variable either way; it turns
    FSM-relevant when ``far.feeds_touch`` starts passing a tracked
    type, which un-slices ``touch`` under ``app.uses_touch`` too."""
    after = _edit(
        "far.mini", "var g = new Plain();", "var g = new FileWriter();",
    )
    moved, run = _moved_roots(after)
    assert moved == _reaching(after, run, "lib.touch") \
        == {"app.uses_touch", "far.feeds_touch"}


def test_a_file_joining_ahead_of_a_wrapper_moves_no_other_key():
    """Lowering numbers its temporaries (``__t_N``, ``__caught_N`` ...)
    per function, so a file that sorts ahead of a ``return f(x)``
    wrapper and a ``try`` -- with temporaries of its own -- renames
    nothing of theirs and moves no key but its own root's."""
    wrapped = {**BASE, "app.mini": BASE["app.mini"] + (
        "func wraps(a) {\n    return lib.pass(a);\n}\n"
        "func guards(a) {\n    try {\n        lib.touch(a);\n"
        "    } catch (e) {\n        return;\n    }\n    return;\n}\n"
    )}
    ahead = {**wrapped, "aa.mini": (
        "module aa;\nfunc lead(x) {\n    try {\n        var r = lead2(x);\n"
        "    } catch (e) {\n        return 0;\n    }\n"
        "    return lead2(x);\n}\nfunc lead2(y) {\n    return y;\n}\n"
    )}
    moved, run = _moved_roots(ahead, before=wrapped)
    assert moved == {"aa.lead"}
    assert {"app.wraps", "app.guards"} <= set(run.root_table)


def test_new_caller_makes_a_root_a_non_root():
    after = {**BASE, "top.mini": (
        "module top;\nimport far;\nfunc drives(a) {\n    far.solo(a);\n"
        "    return;\n}\n"
    )}
    moved, run = _moved_roots(after)
    assert "far.solo" not in run.root_table
    assert moved == {"top.drives"}


def test_fsm_set_change_moves_every_key():
    more = _fsms()
    fewer = [fsm for fsm in more if fsm.name != "socket"]
    moved, run = _moved_roots(dict(BASE), fsms=fewer, fsms_before=more)
    assert moved == set(run.root_table)
