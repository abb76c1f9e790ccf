"""The incremental serve daemon (repro.serve, DESIGN.md §16).

The acceptance bar: after a sequence of scripted edits, the daemon's
accumulated state is byte-identical (warnings and TP/FP accounting)
to a from-scratch run over the final sources, while each edit only
re-derives its own stratum.
"""

import contextlib
import json
import os
import pickle
import random
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import serve as serve_mod
from repro.analysis.frontend import compile_source
from repro.analysis.pipeline import Grapple, GrappleOptions
from repro.lang import parser as parser_mod
from repro.checkers.checker import pack_checkers
from repro.graph.cloning import _canonical, root_functions
from repro.lang.parser import parse_module
from repro.obs.report import validate_run_report
from repro.sa import scopes
from repro.serve import Server, ServeEngine, request
from repro.workloads.bugs import classify_report
from repro.workloads.multifile import build_multifile_subject

SCALE = 2.0  # two clusters, 16 files -- plenty of strata, quick tests


def _fsms():
    return [c.fsm for c in pack_checkers()]


def _write_workspace(directory, scale=SCALE):
    subject = build_multifile_subject("gateway", scale=scale)
    os.makedirs(directory, exist_ok=True)
    for path, text in subject.sources.items():
        with open(os.path.join(directory, path), "w") as f:
            f.write(text)
    return subject


def _engine(tmp_path, scale=SCALE, **kw):
    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    _write_workspace(ws, scale=scale)
    return ServeEngine(ws, wd, _fsms(), **kw)


def _workspace_sources(workspace):
    return {
        name: open(os.path.join(workspace, name)).read()
        for name in sorted(os.listdir(workspace))
        if name.endswith(".mini")
    }


def _scratch_warnings(workspace):
    run = Grapple(_workspace_sources(workspace), _fsms()).run()
    return run, sorted(
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line)
        for w in run.report.warnings
    )


def _accumulated(engine):
    return sorted(
        (w["checker"], w["kind"], w["site"], w["type_name"], w["state"],
         w["func"], w["line"])
        for w in engine.warnings()
    )


def _read(engine, path):
    with open(os.path.join(engine.workspace, path)) as f:
        return f.read()


def _changed_functions(before, after):
    """Global symbols of the functions of one file whose parsed form --
    statements, their lines, their file-relative site ids -- differs
    between two texts of the file (new functions included)."""
    old = parse_module(before).functions if before is not None else {}
    new = parse_module(after)
    prefix = f"{new.module}." if new.module else ""
    return {
        prefix + name for name, fn in new.functions.items()
        if name not in old
        or repr((fn.params, fn.body))
        != repr((old[name].params, old[name].body))
    }


def _compiled_shape(compiled):
    """What the analyses read of a compile: every function, the ICFET's
    ids, records and trees, the object variables and the forest."""
    icfet = compiled.icfet
    return (
        [(name, _canonical(fn, 0))
         for name, fn in compiled.program.functions.items()],
        [(cid, r.rid, r.caller, r.callee, r.node_id, r.stmt_index, r.lhs,
          repr(r.equations), r.result_symbol, r.thrown_symbol)
         for cid, r in sorted(icfet.by_cid.items())],
        sorted(icfet.by_rid),
        {name: [(n.node_id, repr(n.condition), len(n.statements),
                 repr(n.return_value), repr(n.thrown_value))
                for n in cfet.nodes.values()]
         for name, cfet in icfet.cfets.items()},
        {f: sorted(v) for f, v in compiled.info.object_vars.items()},
        sorted(compiled.info.returns_object),
        [(key, clone.root, [(r.cid, child) for r, child in clone.calls])
         for key, clone in compiled.forest.clones.items()],
    )


def _assert_compiled_as_cold(engine, runs):
    """Each stratum run, compiled partly from the scope cache's
    fragments, equals a cold compile of its sources handed the same
    root table: functions, ICFET, forest, the summaries and what the
    whole-program passes stitched from them, root keys and report."""
    for membership, table, run in runs:
        sources = {p: _read(engine, p) for p in membership}
        cold = Grapple(
            sources, engine.fsms,
            GrappleOptions(unroll=engine.unroll, reduce=engine.reduce,
                           root_table=table),
        ).run()
        # A batch run drops its summaries after relevance and its
        # program, object facts and call graph after the alias graph:
        # read a cold compile's off the frontend itself, with the cold
        # run's forest (the trees its table left to build).
        frontend = compile_source(
            sources, unroll=engine.unroll, reduce=engine.reduce, roots=(),
        )
        frontend.forest = cold.compiled.forest
        assert _compiled_shape(run.compiled) == _compiled_shape(frontend)
        summaries = frontend.summaries
        assert run.compiled.summaries == summaries
        assert list(run.compiled.summaries) == list(summaries)
        assert run.compiled.info == frontend.info
        assert run.relevance == cold.relevance
        for graph in (run.compiled.callgraph, frontend.callgraph):
            assert list(graph.edges) == list(run.compiled.program.functions)
        assert run.compiled.callgraph == frontend.callgraph
        assert {root: entry[0] for root, entry in run.root_table.items()} \
            == {root: entry[0] for root, entry in cold.root_table.items()}
        assert run.root_table == cold.root_table
        assert run.rechecked == cold.rechecked
        assert [(w, w.witness) for w in run.report.warnings] \
            == [(w, w.witness) for w in cold.report.warnings]
        assert run.reduction == cold.reduction


def _edit_checked(engine, path, text, also=()):
    """Apply one edit and hold the daemon to both halves of the
    contract: its accumulated state is byte-identical (witnesses
    included) to a from-scratch run over the workspace, and it rebuilt
    exactly the root clone trees that reach a function the edit changed
    -- ``also`` names functions of *other* files whose whole-program
    facts (object variables, relevance) the edit moved.  Each stratum
    it re-ran must also have compiled what a cold compile does."""
    full = os.path.join(engine.workspace, path)
    before = _read(engine, path) if os.path.exists(full) else None
    runs = []
    run_stratum = engine._run_stratum
    engine._run_stratum = lambda membership, table: runs.append(
        (membership, table, run_stratum(membership, table))) or runs[-1][2]
    try:
        fragment = engine.edit(path, text)
    finally:
        del engine._run_stratum
    assert validate_run_report(fragment) == []
    _assert_compiled_as_cold(engine, runs)
    run, _ = _scratch_warnings(engine.workspace)
    assert sorted(
        (w["checker"], w["kind"], w["site"], w["type_name"], w["state"],
         w["func"], w["line"], tuple(w["witness"]))
        for w in engine.warnings()
    ) == sorted(
        (w.checker, w.kind, w.site, w.type_name, w.state, w.func, w.line,
         w.witness)
        for w in run.report.warnings
    )
    changed = _changed_functions(before, text) | set(also)
    frontend = compile_source(_workspace_sources(engine.workspace),
                              reduce=True, roots=())
    edges = frontend.callgraph.edges
    reaching = set()
    for root in root_functions(frontend.program, frontend.callgraph):
        seen, stack = {root}, [root]
        while stack:
            for callee in edges.get(stack.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        if seen & changed:
            reaching.add(root)
    assert fragment["edit"]["roots"]["rechecked"] == len(reaching), (
        fragment["edit"]["roots"], sorted(reaching), sorted(changed)
    )
    return fragment


def test_cold_scan_matches_scratch_and_validates(tmp_path):
    engine = _engine(tmp_path)
    fragment = engine.scan()
    assert validate_run_report(fragment) == []
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch
    assert fragment["warnings"] == len(scratch)
    assert fragment["counters"]["edits_served"] == 1
    assert fragment["edit"]["strata_total"] == 2  # one per cluster


def test_content_edit_rechecks_exactly_one_stratum(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    path = os.path.join(engine.workspace, "g0svc.mini")
    text = open(path).read() + "func g0_pad(v) {\n    return v + 7;\n}\n"
    fragment = engine.edit("g0svc.mini", text)
    assert fragment["edit"]["changed"] == ["g0svc.mini"]
    assert fragment["edit"]["strata_rechecked"] == 1
    assert validate_run_report(fragment) == []
    # The scope cache re-derived exactly the edited file's artifact; the
    # stratum re-run then hit the cache for every member.
    assert fragment["edit"]["artifacts_rederived"] == 1
    assert fragment["scopes"]["artifact_cache_misses"] == 0
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_pad_edit_rebuilds_one_root_tree_also_after_a_restart(tmp_path):
    engine = _engine(tmp_path)
    cold = engine.scan()
    assert cold["edit"]["roots"] == {"total": 26, "rechecked": 26}
    pad = "func g0_pad(v) {\n    return v + %d;\n}\n"
    text = _read(engine, "g0svc.mini")
    daemon = engine
    for serial in (1, 2, 3):
        if serial == 3:  # restart: the tables come back from the state file
            daemon = ServeEngine(engine.workspace, engine.workdir, _fsms())
            assert daemon.scan()["edit"]["roots"] == \
                {"total": 0, "rechecked": 0}
        fragment = _edit_checked(daemon, "g0svc.mini", text + pad % serial)
        assert fragment["edit"]["strata_rechecked"] == 1
        assert fragment["edit"]["roots"] == {"total": 14, "rechecked": 1}
        assert fragment["edit"]["warnings_added"] == []
        assert fragment["edit"]["warnings_retracted"] == []


def test_warning_two_root_trees_share_is_served_once(tmp_path):
    """One allocation site in a shared callee, reached from two roots:
    each root's table entry holds the warning (either tree can be rebuilt
    alone), the daemon reports it once -- before and after a restart,
    which reloads the tables through key-sorted JSON."""
    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    os.makedirs(ws)
    files = {
        "core.mini": "module core;\nfunc make(x) {\n"
                     "    var t = new UserInput();\n    return t;\n}\n",
        "app.mini": "module app;\nimport core;\n"
                    "func alpha(a) {\n    var p = core.make(a);\n"
                    "    p.exec();\n    return;\n}\n"
                    "func omega(b) {\n    var q = core.make(b);\n"
                    "    q.exec();\n    return;\n}\n",
    }
    for path, text in files.items():
        with open(os.path.join(ws, path), "w") as f:
            f.write(text)
    engine = ServeEngine(ws, wd, _fsms())
    cold = engine.scan()
    (entry,) = engine.strata.values()
    assert [len(ws_) for _key, ws_ in entry["roots"].values()] == [1, 1]
    assert cold["warnings"] == entry["count"] == len(engine.warnings()) == 1
    again = ServeEngine(ws, wd, _fsms())
    assert again.scan()["warnings"] == 1
    assert again.report()["warnings"] == engine.report()["warnings"]
    # Rebuilding one of the two trees leaves the warning where it was.
    fragment = _edit_checked(
        again, "app.mini", files["app.mini"].replace("make(b)", "make(b + 1)"))
    assert fragment["edit"]["roots"] == {"total": 2, "rechecked": 1}
    assert fragment["edit"]["warnings_added"] == []
    assert fragment["edit"]["warnings_retracted"] == []
    assert fragment["warnings"] == 1


def test_state_file_stays_close_to_its_size_without_root_tables(tmp_path):
    """Per-root tables replace each stratum's flat warning list: what
    they add is a key per root and the few warnings two roots share."""
    engine = _engine(tmp_path, scale=16.0)
    engine.scan()
    (line,) = _state_lines(engine)
    state = json.loads(line)
    flat = dict(state, strata={
        digest: {"files": entry["files"],
                 "warnings": serve_mod._warnings(entry)}
        for digest, entry in state["strata"].items()
    })
    assert sum(len(e["warnings"]) for e in flat["strata"].values()) == 176
    assert all(entry["count"] == len(flat["strata"][digest]["warnings"])
               for digest, entry in state["strata"].items())
    assert len(line) <= 1.25 * len(json.dumps(flat, sort_keys=True))


def test_edit_retracts_superseded_warnings(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    path = os.path.join(engine.workspace, "g1core.mini")
    text = open(path).read().replace("new UserInput()", "new CleanBuf()", 1)
    fragment = engine.edit("g1core.mini", text)
    assert fragment["edit"]["warnings_retracted"], "taint source removed"
    assert fragment["counters"]["warnings_retracted"] >= 1
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_file_removal_splits_and_retracts(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    before = len(engine.warnings())
    fragment = engine.remove("g1app.mini")
    assert fragment["edit"]["removed"] == ["g1app.mini"]
    # Removing the cluster app drops every warning whose entry point
    # lived there (all of the cluster's seeded flows sink in app).
    assert len(engine.warnings()) < before
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_random_edit_sequence_byte_identical_to_scratch(tmp_path):
    """Acceptance: N scripted edits; accumulated state == from-scratch
    on the final sources, including the TP/FP accounting."""
    engine = _engine(tmp_path)
    engine.scan()
    rng = random.Random(7)
    paths = sorted(
        n for n in os.listdir(engine.workspace) if n.endswith(".mini")
    )
    for step in range(12):
        kind = step % 6  # every kind twice, on seeded victims
        victim = rng.choice(
            [p for p in paths if "core" in p] if kind == 1 else paths
        )
        text = open(os.path.join(engine.workspace, victim)).read()
        if kind == 0:  # append a clean function
            text += (f"func pad{step}_x(v) {{\n"
                     f"    return v + {step};\n}}\n")
        elif kind == 1:  # defuse a taint TP
            assert "new UserInput()" in text
            text = text.replace("new UserInput()", "new Plain()", 1)
        elif kind == 2:  # a body statement (no line or site moves)
            text = re.sub(r"\((\w+)\) \{", r"(\1) { \1.note();", text, 1)
        elif kind == 3:  # a comment line: every function below moves down
            head, func, tail = text.rpartition("\nfunc ")
            text = f"{head}\n// step {step}{func}{tail}"
        elif kind == 4:  # an earlier allocation: site offsets below shift
            text = text.replace(
                ") {", f") {{ var z{step} = new Plain();", 1)
        else:  # whitespace-only churn: digest changes, semantics don't
            text += "\n\n"
        fragment = _edit_checked(engine, victim, text)
        assert fragment["edit"]["strata_rechecked"] == 1
        assert fragment["edit"]["roots"]["total"] >= 13
    run, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch
    # TP/FP accounting agrees too: rebuild Warning-like tuples and
    # classify against the generator's (unedited) seed list filtered to
    # functions that still warn identically.
    subject = build_multifile_subject("gateway", scale=SCALE)
    outcome_scratch = classify_report(subject.seeds, run.report)
    by_func_scratch = sorted(
        (w.checker, w.func) for w in run.report.warnings
    )
    by_func_serve = sorted(
        (w["checker"], w["func"]) for w in engine.warnings()
    )
    assert by_func_serve == by_func_scratch
    assert not outcome_scratch.unexpected or all(
        w.func.startswith(("g0", "g1")) for w in outcome_scratch.unexpected
    )


def test_pad_and_toggle_edits_stitch_what_a_cold_compile_infers(tmp_path):
    """Seeded pads (a clean function appended) and toggles (a leaking
    one appended, later taken out: new sites, so the files after it in
    its stratum move base): after each edit the stratum's ObjectInfo,
    relevance, call graph and root keys, solved over kept and fresh
    summaries, equal a cold compile's (``_assert_compiled_as_cold``)."""
    engine = _engine(tmp_path)
    engine.scan()
    rng = random.Random(11)
    texts = {path: _read(engine, path) for path in sorted(engine.files)}
    pad = "func pad(v) {{\n    return v + {0};\n}}\n"
    leak = ("func leak(x) {\n    var f = new FileWriter();\n"
            "    f.write(x);\n    return;\n}\n")
    pads, leaking = {}, set()
    for step in range(12):
        path = rng.choice(sorted(texts))
        if step % 3 == 2:
            leaking ^= {path}
        else:
            pads[path] = step
        text = texts[path] + (leak if path in leaking else "") + (
            pad.format(pads[path]) if path in pads else "")
        fragment = _edit_checked(engine, path, text)
        assert fragment["edit"]["errors"] == {}
    assert leaking  # a toggle left a leak in: its warning is served
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def _assert_equals_scratch(engine, tmp_path, tag):
    """Accumulated state == a from-scratch batch run *and* a daemon
    started cold on the same workspace (strata, digests, errors)."""
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch
    cold = ServeEngine(engine.workspace, str(tmp_path / f"cold-{tag}"), _fsms())
    cold.scan()
    got, want = engine.report(), cold.report()
    del got["counters"], want["counters"]
    assert got == want


def _rewrite(engine, path, old, new, also=()):
    text = _read(engine, path)
    assert old in text
    return _edit_checked(engine, path, text.replace(old, new, 1), also)


def test_import_edits_merge_cycle_and_split_strata(tmp_path):
    """Edits that change *imports*: the dependency relation moves, so
    strata merge and split; every step equals from-scratch."""
    engine = _engine(tmp_path)
    cold = engine.scan()
    assert cold["edit"]["strata_total"] == 2
    assert cold["edit"]["dependencies"] == {
        "edges_added": len(engine.closure.edges), "edges_removed": 0,
    }
    rederived = engine.stats.edges_rederived

    # g0left imports g1core: the two clusters become one stratum.  g1's
    # `return f(x)` wrappers now follow g0's files, and keep their
    # temporaries: those are numbered per function.
    fragment = _rewrite(engine, "g0left.mini", "module g0left;\n",
                        "module g0left;\nimport g1core;\n")
    assert validate_run_report(fragment) == []
    assert fragment["edit"]["dependencies"] == {
        "edges_added": 1, "edges_removed": 0,
    }
    assert "closure" not in fragment["edit"]
    assert fragment["edit"]["strata_total"] == 1
    assert fragment["edit"]["strata_rechecked"] == 1
    # Both clusters' tables seed the merged stratum: only g0_diamond,
    # which reaches g0_lwrap (one line lower now), is rebuilt.
    assert fragment["edit"]["roots"] == {"total": 26, "rechecked": 1}
    assert ("g0left.mini", "g1core.mini") in engine.closure.edges
    _assert_equals_scratch(engine, tmp_path, "merged")

    # g1core imports g0left back: a cycle, still one stratum.
    fragment = _rewrite(engine, "g1core.mini", "module g1core;\n",
                        "module g1core;\nimport g0left;\n")
    assert fragment["edit"]["dependencies"] == {
        "edges_added": 1, "edges_removed": 0,
    }
    assert fragment["edit"]["strata_total"] == 1
    assert fragment["edit"]["strata_rechecked"] == 1
    # Every function of g1core moved down a line: all 13 g1 roots.
    assert fragment["edit"]["roots"] == {"total": 26, "rechecked": 13}
    _assert_equals_scratch(engine, tmp_path, "cycle")

    # One direction goes: the other edge still holds the stratum.
    fragment = _rewrite(engine, "g0left.mini", "import g1core;\n", "")
    assert fragment["edit"]["dependencies"] == {
        "edges_added": 0, "edges_removed": 1,
    }
    assert fragment["edit"]["strata_total"] == 1
    _assert_equals_scratch(engine, tmp_path, "half")

    # The last cross-cluster import goes: split back into two.
    fragment = _rewrite(engine, "g1core.mini", "import g0left;\n", "")
    assert fragment["edit"]["dependencies"] == {
        "edges_added": 0, "edges_removed": 1,
    }
    assert fragment["edit"]["strata_total"] == 2
    assert fragment["edit"]["strata_rechecked"] == 2
    # Two runs; the g0 half finds all 13 of its roots in the table.
    assert fragment["edit"]["roots"] == {"total": 26, "rechecked": 13}
    _assert_equals_scratch(engine, tmp_path, "split")
    assert engine.stats.edges_rederived == rederived + 4

    # A new file whose root calls into the cluster: g0_shared is now
    # reached from two trees, g0app.g0_diamond and this one.
    extra = ("module g0zextra;\nimport g0core;\n"
             "func extra_entry(x) {\n    return g0core.g0_shared(x);\n}\n")
    fragment = _edit_checked(engine, "g0zextra.mini", extra)
    assert fragment["edit"]["strata_total"] == 2
    assert fragment["edit"]["roots"] == {"total": 14, "rechecked": 1}
    # The shared callee's body: both trees, nothing else.
    fragment = _rewrite(engine, "g0core.mini", "return v * 2;", "return v * 3;")
    assert fragment["edit"]["roots"] == {"total": 14, "rechecked": 2}
    # A caller in a third tree hands g0_shared an object: its parameter
    # changes classification, so every tree reaching it is rebuilt
    # though g0core.mini did not change.
    extra += ("func feeds(x) {\n    var o = new Plain();\n"
              "    var r = g0core.g0_shared(o);\n    return;\n}\n")
    fragment = _edit_checked(engine, "g0zextra.mini", extra,
                             also={"g0core.g0_shared"})
    assert fragment["edit"]["roots"] == {"total": 15, "rechecked": 3}
    # ...and then a tracked one: the parameter turns FSM-relevant.
    extra = extra.replace("new Plain()", "new UserInput()")
    fragment = _edit_checked(engine, "g0zextra.mini", extra,
                             also={"g0core.g0_shared"})
    assert fragment["edit"]["roots"] == {"total": 15, "rechecked": 3}
    # A new caller turns a root into a callee: one new tree, one fewer
    # root, and the old root's warnings now come from the new tree.
    extra = extra.replace("import g0core;\n", "import g0core;\nimport g0app;\n")
    extra += ("func drives(x) {\n    g0app.gateway0_p6_entry(x);\n"
              "    return;\n}\n")
    fragment = _edit_checked(engine, "g0zextra.mini", extra)
    assert fragment["edit"]["dependencies"] == {
        "edges_added": 1, "edges_removed": 0,
    }
    _assert_equals_scratch(engine, tmp_path, "extra")

    # A no-op poll reports no dependency delta at all.
    assert engine.scan()["edit"]["dependencies"] is None


def test_link_error_outlives_polls_and_restarts(tmp_path):
    """A stratum that fails to link keeps saying so -- in fragments, in
    the report and across a restart -- until an edit changes it."""
    engine = _engine(tmp_path, scale=1.0)
    engine.scan()
    clean = engine.report()
    app = open(os.path.join(engine.workspace, "app.mini")).read()
    fragment = engine.edit("dup.mini", app)  # redefines app's symbols
    assert "duplicate symbol" in fragment["edit"]["errors"]["app.mini"]
    assert fragment["warnings"] == 0
    errors = fragment["edit"]["errors"]
    served = engine.stats.edits_served

    for daemon in (engine,
                   ServeEngine(engine.workspace, engine.workdir, _fsms())):
        fragment = daemon.scan()
        assert fragment["edit"]["changed"] == []
        assert fragment["edit"]["strata_rechecked"] == 0
        assert fragment["edit"]["errors"] == errors
        assert fragment["warnings"] == 0
        assert daemon.stats.edits_served == served
        assert daemon.report()["errors"] == errors

    fragment = engine.remove("dup.mini")
    assert fragment["edit"]["errors"] == {}
    assert engine.report()["errors"] == {}
    after = engine.report()
    for doc in (after, clean):
        del doc["counters"]
    assert after == clean
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_restart_resumes_without_recompute(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    warnings_before = _accumulated(engine)
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    fragment = again.scan()
    assert fragment["edit"]["strata_rechecked"] == 0
    assert fragment["edit"]["changed"] == []
    assert _accumulated(again) == warnings_before


def test_restart_with_stale_workspace_rechecks_only_dirty(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    # Edit behind the daemon's back (it is "down").
    path = os.path.join(engine.workspace, "g0app.mini")
    with open(path, "a") as f:
        f.write("func g0_offline(v) {\n    return v;\n}\n")
    os.utime(path, (1e9, 1e9))  # make sure mtime moves
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    fragment = again.scan()
    assert fragment["edit"]["changed"] == ["g0app.mini"]
    assert fragment["edit"]["strata_rechecked"] == 1
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(again) == scratch


def test_workdir_holds_only_the_snapshot_and_the_journal(tmp_path):
    """Scope artifacts and compiled functions live in memory: a served
    session, a restart and an edit after it leave the workdir with one
    file, whose line 1 is the snapshot and whose edit lines the
    journal."""
    engine = _engine(tmp_path)
    engine.scan()
    text = _read(engine, "g0svc.mini")
    pad = "func g0_pad(v) {\n    return v + %d;\n}\n"
    engine.edit("g0svc.mini", text + pad % 1)
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    again.scan()
    again.edit("g0svc.mini", text + pad % 2)
    assert os.listdir(engine.workdir) == ["serve-state.jsonl"]


def test_edit_recompiles_only_the_functions_of_the_edited_file(tmp_path):
    """``edit.functions``: the functions of the re-run strata, and those
    a pass ran over again -- the rest came compiled out of the cache."""
    engine = _engine(tmp_path)
    cold = engine.scan()["edit"]["functions"]
    assert cold["recompiled"] == cold["total"] > 0
    text = _read(engine, "g0svc.mini")
    pad = "func g0_pad(v) {\n    return v + %d;\n}\n"
    own = len(parse_module(text + pad % 1).functions)
    for serial in (1, 2):
        functions = _edit_checked(
            engine, "g0svc.mini", text + pad % serial)["edit"]["functions"]
        assert functions["recompiled"] == own < functions["total"]
    assert engine.scan()["edit"]["functions"] == {"total": 0, "recompiled": 0}
    # A restarted daemon holds no fragment: its first edit compiles the
    # stratum whole, the next one file again.
    engine = ServeEngine(engine.workspace, engine.workdir, _fsms())
    for serial, whole in ((3, True), (4, False)):
        functions = engine.edit("g0svc.mini", text + pad % serial)[
            "edit"]["functions"]
        assert (functions["recompiled"] == functions["total"]) is whole
        assert functions["recompiled"] >= own


def test_fragments_are_never_mutated(tmp_path):
    """Compiled fragments are live objects every later compile shares:
    after a whole edit sequence -- pads, new sites, moved lines, import
    edits that merge and split strata, a callee that starts throwing
    and one whose parameter turns into an object variable, which send
    kept functions back to a fresh parse -- each fragment the cache
    ever held still pickles to the bytes it had when first seen."""
    engine = _engine(tmp_path)
    engine.scan()
    seen = {}

    def snapshot():
        for entry in engine.cache._entries._data.values():
            for fragment in entry.fragments.values():
                seen.setdefault(id(fragment),
                                (fragment, pickle.dumps(fragment)))

    snapshot()
    pad = "func pad_{0}(v) {{\n    return v + {0};\n}}\n"
    for step, (path, old, new) in enumerate([
        ("g0svc.mini", None, pad),
        ("g0core.mini", ") {", ") { var z = new Plain();"),
        ("g0left.mini", "module g0left;\n", "module g0left;\nimport g1core;\n"),
        ("g1core.mini", "return v * 2;", "return v * 3;"),
        ("g0core.mini", ") { var z = new Plain();", ") {"),
        ("g0left.mini", "import g1core;\n", ""),
        ("g1left.mini", "\nfunc ", "\n// a note\nfunc "),
        ("g0svc.mini", None, pad),
        ("g0core.mini", "return v * 2;",
         "if (v > 100) {\n        var e = new Exc();\n        throw e;\n"
         "    }\n    return v * 2;"),
        ("g0zextra.mini", None, "module g0zextra;\nimport g0core;\n"
         "func feeds(x) {{\n    var o = new Plain();\n"
         "    var r = g0core.g0_shared(o);\n    return;\n}}\n"),
    ]):
        text = _read(engine, path) if os.path.exists(
            os.path.join(engine.workspace, path)) else ""
        text = text + new.format(step) if old is None \
            else text.replace(old, new, 1)
        fragment = engine.edit(path, text)
        assert fragment["edit"]["errors"] == {}
        snapshot()
    # The last edit also sent g0core.g0_shared, of an unedited file at
    # an unmoved base, back to a fresh parse.
    assert fragment["edit"]["functions"]["recompiled"] > 1
    assert len(seen) > 16
    for fragment, blob in seen.values():
        assert pickle.dumps(fragment) == blob


def test_config_change_invalidates_persisted_state(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    other = ServeEngine(engine.workspace, engine.workdir, _fsms(), unroll=3)
    fragment = other.scan()
    assert fragment["edit"]["strata_rechecked"] == 2  # full recompute


def _set(key, value):
    return lambda doc: {**doc, key: value}


def _break_first_file(doc, **fields):
    files = dict(doc["files"])
    first = sorted(files)[0]
    # FileMeta needs six keys, each of its type.
    files[first] = {**files[first], **fields} if fields else {"digest": "d"}
    return {**doc, "files": files}


def _break_first_stratum(doc, entry=None, **fields):
    strata = dict(doc["strata"])
    first = sorted(strata)[0]
    strata[first] = entry if entry is not None else {**strata[first], **fields}
    return {**doc, "strata": strata}


@pytest.mark.parametrize("damage", [
    lambda doc: [],
    lambda doc: None,
    lambda doc: 7,
    _set("files", []),
    _set("files", {"g0app.mini": None}),
    _set("strata", 7),
    _set("counters", "many"),
    _break_first_file,
    lambda doc: b"[" * 200_000 + b"\n",  # RecursionError, not ValueError
    # Right keys and containers, a value of the wrong type: each of these
    # used to be adopted and raise TypeError on load, edit or report.
    _set("counters", {"edits_served": "x"}),
    lambda doc: _break_first_file(doc, sites="7"),
    lambda doc: _break_first_stratum(doc, entry=[1, 2]),
    lambda doc: _break_first_stratum(doc, roots="zz"),
    lambda doc: _break_first_stratum(doc, count="zz"),
    # The whole state, but not a complete line: nothing follows it.
    lambda doc: json.dumps(doc).encode(),
], ids=["list", "null", "number", "files-list", "file-entry-null",
        "strata-number", "counters-string", "file-entry-short",
        "deep-nesting", "edits-served-string", "sites-string",
        "stratum-list", "roots-string", "count-string", "no-newline"])
def test_wrong_shaped_state_file_is_an_absent_one(tmp_path, damage):
    """A line 1 the engine cannot use loads nothing -- not the edit lines
    after it either, which continue that snapshot -- and the next write
    compacts the file to one line of the live state."""
    engine = _engine(tmp_path)
    cold = engine.scan()
    engine.edit("g0svc.mini", _read(engine, "g0svc.mini") + "\n")
    report = engine.report()
    head, *journal = _state_lines(engine)
    assert journal  # the edit appended its line
    good = json.loads(head)
    damaged = damage(good)  # valid JSON of the wrong shape, or raw bytes
    if not isinstance(damaged, bytes):
        damaged = json.dumps(damaged).encode() + b"\n"
    with open(os.path.join(engine.workdir, serve_mod.STATE_FILE), "wb") as f:
        f.write(damaged + b"".join(journal) if damaged.endswith(b"\n")
                else damaged)
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    assert again.files == {} and again.strata == {}  # nothing half-loaded
    assert again.stats.edits_served == 0
    fragment = again.scan()
    assert fragment["edit"]["strata_rechecked"] == cold["edit"]["strata_total"]
    assert sorted(fragment["edit"]["changed"]) == sorted(good["files"])
    assert again.report()["warnings"] == report["warnings"]
    assert _accumulated(again) == _accumulated(engine)
    (line,) = _state_lines(again)
    rewritten = json.loads(line)
    assert rewritten["files"].keys() == engine.files.keys()
    assert rewritten["strata"].keys() == engine.strata.keys()


def _lexed_and_parsed(monkeypatch):
    """Every text tokenised and every path parsed from here on."""
    lexed, parsed = [], []
    for module in (serve_mod, scopes, parser_mod):
        tokenize = module.tokenize
        monkeypatch.setattr(
            module, "tokenize",
            lambda text, _t=tokenize: lexed.append(text) or _t(text))
    for module in (serve_mod, scopes):
        parse = module.parse_module
        monkeypatch.setattr(
            module, "parse_module",
            lambda text, path, _p=parse, **kw: parsed.append(path)
            or _p(text, path, **kw))
    return lexed, parsed


def test_pad_edit_lexes_and_parses_only_the_edited_file(tmp_path, monkeypatch):
    engine = _engine(tmp_path)
    engine.scan()
    lexed, parsed = _lexed_and_parsed(monkeypatch)
    for path in ("g0svc.mini", "g0app.mini"):  # last and first of a stratum
        text = _read(engine, path) + "func g0_pad(v) {\n    return v + 7;\n}\n"
        fragment = engine.edit(path, text)
        assert fragment["edit"]["strata_rechecked"] == 1
        # Once: the stratum run rebases the scan's parse.
        assert lexed == [text] and parsed == [path]
        lexed.clear(), parsed.clear()
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_site_adding_edit_reparses_the_files_whose_base_moved(tmp_path,
                                                             monkeypatch):
    engine = _engine(tmp_path)
    engine.scan()
    (stratum,) = [e["files"] for e in engine.strata.values()
                  if "g0core.mini" in e["files"]]
    order = sorted(stratum, key=lambda p: (engine.files[p].module, p))
    after = order[order.index("g0core.mini") + 1:]
    assert len(after) == 6
    lexed, parsed = _lexed_and_parsed(monkeypatch)
    clean = _read(engine, "g0core.mini")
    leak = ("func g0_leak(x) {\n    var f = new FileWriter();\n"
            "    f.write(x);\n    return;\n}\n")
    leaky = clean.replace("\nfunc ", "\n" + leak + "func ", 1)
    fragment = engine.edit("g0core.mini", leaky)  # one more site, up front
    assert fragment["edit"]["errors"] == {}
    assert sorted(set(parsed)) == ["g0core.mini", *after]
    assert set(lexed) == {leaky} | {_read(engine, p) for p in after}
    # Back to the old bases: only the edited file is new to the memo.
    lexed.clear(), parsed.clear()
    engine.edit("g0core.mini", clean + "\n")
    assert set(parsed) == {"g0core.mini"}
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def _state(engine):
    return engine.files, engine.strata, engine._counters()


def _snapshot_of(state):
    """A deep copy, through JSON as the state file holds it."""
    files, strata, counters = state
    return ({p: m.to_json() for p, m in files.items()},
            json.loads(json.dumps(strata)), dict(counters))


def _state_lines(engine):
    """The state file's lines: line 1, the snapshot, then the journal,
    one line per edit served since."""
    with open(os.path.join(engine.workdir, serve_mod.STATE_FILE), "rb") as f:
        return f.read().splitlines(keepends=True)


def _journal_bytes(engine):
    return sum(map(len, _state_lines(engine)[1:]))


def test_reload_from_snapshot_and_journal_equals_the_live_engine(tmp_path):
    engine = _engine(tmp_path, scale=4.0)
    engine.scan()
    rng = random.Random(11)
    paths = sorted(engine.files)
    replayed = 0
    for step in range(12):
        victim = rng.choice(paths)
        text = _read(engine, victim)
        if step % 3 == 2:  # a new allocation site: bases move
            text = text.replace(") {", f") {{ var z{step} = new Plain();", 1)
        else:
            text += f"func pad{step}_x(v) {{\n    return v + {step};\n}}\n"
        assert engine.edit(victim, text)["edit"]["strata_rechecked"] == 1
        replayed += _journal_bytes(engine) > 0
        again = ServeEngine(engine.workspace, engine.workdir, _fsms())
        assert _state(again) == _state(engine)
    assert replayed >= 6  # most reloads replayed at least one line
    # An engine's first write compacts; the next ones append.
    engine = again
    engine.edit(paths[3], _read(engine, paths[3]) + "\n")
    assert len(_state_lines(engine)) == 1
    # A file touched but not changed: its refreshed entry rides along
    # with the next edit's line.
    os.utime(os.path.join(engine.workspace, paths[1]), (1e9, 1e9))
    assert engine.scan()["edit"]["changed"] == []
    engine.edit(paths[2], _read(engine, paths[2]) + "\n")
    assert engine.files[paths[1]].mtime == 1e9
    size = _journal_bytes(engine)
    assert size > 0
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    assert _state(again) == _state(engine)
    # A removal travels through the journal too.
    engine.remove(paths[0])
    assert _journal_bytes(engine) > size
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    assert _state(again) == _state(engine)
    assert again.scan()["edit"]["strata_rechecked"] == 0


def _four_strata(tmp_path):
    """Four independent files: a journal line is a quarter snapshot."""
    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    os.makedirs(ws)
    for name in "abcd":
        with open(os.path.join(ws, f"{name}.mini"), "w") as f:
            f.write(f"module {name};\nfunc {name}_main(x) {{\n"
                    "    var t = new UserInput();\n    t.exec();\n"
                    "    return;\n}\n")
    engine = ServeEngine(ws, wd, _fsms())
    engine.scan()
    return engine


def test_torn_journal_line_loads_the_state_before_it(tmp_path):
    engine = _four_strata(tmp_path)
    engine.edit("a.mini", _read(engine, "a.mini") + "func pad(v) {\n"
                "    return v;\n}\n")
    before = _snapshot_of(_state(engine))
    engine.edit("b.mini", _read(engine, "b.mini").replace("x)", "y)"))
    after = _snapshot_of(_state(engine))
    assert before != after
    state_path = os.path.join(engine.workdir, serve_mod.STATE_FILE)
    with open(state_path, "rb") as f:
        data = f.read()
    *complete, last, tail = data.split(b"\n")
    # The snapshot and two journal lines: this edit's is the last.
    assert len(complete) == 2 and tail == b""
    start = len(data) - len(last) - 1
    for cut in range(start, len(data) + 1):
        with open(state_path, "wb") as f:
            f.write(data[:cut])
        again = ServeEngine(engine.workspace, engine.workdir, _fsms())
        want = after if cut == len(data) else before
        assert _snapshot_of(_state(again)) == want, cut


@pytest.mark.parametrize("damage", [
    lambda line: {**line, "counters": {**line["counters"], "edits_served": "x"}},
    lambda line: {**line, "removed": "a.mini"},
    lambda line: {**line, "strata": {"d": {"files": ["b.mini"], "roots": {},
                                           "count": "zz"}}},
    lambda line: {**line, "counters": {**line["counters"], "edits_served": 1}},
], ids=["counter-string", "removed-string", "count-string", "stale-line"])
def test_bad_journal_line_ends_the_replay(tmp_path, damage):
    engine = _four_strata(tmp_path)
    engine.edit("a.mini", _read(engine, "a.mini") + "\n")
    before = _snapshot_of(_state(engine))
    engine.edit("b.mini", _read(engine, "b.mini") + "\n")
    head, first, last = _state_lines(engine)
    with open(os.path.join(engine.workdir, serve_mod.STATE_FILE), "wb") as f:
        f.write(head + first
                + json.dumps(damage(json.loads(last))).encode() + b"\n")
    again = ServeEngine(engine.workspace, engine.workdir, _fsms())
    assert _snapshot_of(_state(again)) == before
    # The next write compacts: the file is one line again.
    fragment = again.scan()
    assert fragment["edit"]["changed"] == ["b.mini"]
    assert len(_state_lines(again)) == 1
    assert _state(ServeEngine(engine.workspace, engine.workdir, _fsms())) \
        == _state(again)


def test_journal_stays_within_the_snapshot_size(tmp_path):
    engine = _engine(tmp_path, scale=4.0)
    engine.scan()
    pad = "func g0_pad(v) {\n    return v + %d;\n}\n"
    text = _read(engine, "g0svc.mini")
    compactions = lines = 0
    for serial in range(60):
        size = _journal_bytes(engine)
        engine.edit("g0svc.mini", text + pad % serial)
        head, *journal = _state_lines(engine)
        grown = _journal_bytes(engine) - size
        if grown > 0:
            lines += 1
        else:
            compactions += 1
            assert journal == []
        assert _journal_bytes(engine) <= len(head) + max(grown, 0)
    assert lines > 2 * compactions > 0


def test_parse_error_keeps_serving_and_recovers(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    good = _accumulated(engine)
    broken_path = os.path.join(engine.workspace, "g0svc.mini")
    original = open(broken_path).read()
    fragment = engine.edit("g0svc.mini", original + "func broken( {\n")
    assert "g0svc.mini" in fragment["edit"]["errors"]
    # Last good analysis survives the broken edit.
    assert _accumulated(engine) == good
    fragment = engine.edit("g0svc.mini", original)
    assert fragment["edit"]["errors"] == {}
    assert _accumulated(engine) == good


def test_parse_error_of_a_file_that_never_parsed_goes_with_the_file(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    fragment = engine.edit("fresh.mini", "func broken( {\n")
    assert list(fragment["edit"]["errors"]) == ["fresh.mini"]
    assert "fresh.mini" not in engine.files
    fragment = engine.remove("fresh.mini")
    assert fragment["edit"]["errors"] == {}
    assert engine.report()["errors"] == {}


def test_stray_character_is_a_parse_error_of_its_file(tmp_path):
    """A character the lexer does not know is a syntax error like any
    other: the edit answers with it, the file keeps its last good
    analysis, and the next good edit clears it."""
    engine = _engine(tmp_path)
    engine.scan()
    good = _accumulated(engine)
    original = _read(engine, "g0svc.mini")
    fragment = engine.edit(
        "g0svc.mini", original + "func stray() {\n    var x = 1 @ 2;\n}\n")
    assert "'@'" in fragment["edit"]["errors"]["g0svc.mini"]
    assert fragment["edit"]["strata_rechecked"] == 0
    assert _accumulated(engine) == good
    fragment = engine.edit("g0svc.mini", original + "\n")
    assert fragment["edit"]["errors"] == {}
    assert _accumulated(engine) == good


def test_serve_once_on_a_workspace_with_a_stray_character(tmp_path, capsys):
    """The edit is on disk before it is analysed, so a restarted daemon
    meets it in its cold scan: that must answer too, not die."""
    from repro.cli import main

    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    _write_workspace(ws, scale=1.0)
    with open(os.path.join(ws, "app.mini"), "a") as f:
        f.write("func stray() {\n    var x = 1 @ 2;\n}\n")
    assert main(["serve", ws, "--workdir", wd, "--checkers",
                 "taint,order,iterator,lockdep", "--once"]) == 0
    fragment = json.loads(capsys.readouterr().out)
    assert list(fragment["edit"]["errors"]) == ["app.mini"]
    assert "'@'" in fragment["edit"]["errors"]["app.mini"]


def _branchy(count):
    """A function with ``count`` sequential ifs: its CFET doubles with
    each (ROADMAP item 11)."""
    ifs = "".join(
        f"    if (a > {i}) {{\n        c = c + 1;\n    }}\n"
        for i in range(count)
    )
    return (f"func branchy(a) {{\n    var w = new FileWriter();\n"
            f"    var c = 0;\n{ifs}    if (c > 100) {{\n"
            f"        w.close();\n    }}\n    return;\n}}\n")


def test_too_branchy_function_is_its_strata_error(tmp_path, monkeypatch):
    """A CFET that outgrows its bound fails the stratum the way a link
    error does: the answer names the function, the rest of the
    workspace keeps its warnings, the socket keeps answering, and an
    edit that removes the function clears the error."""
    from repro.cfet.cfet import _CfetBuilder

    monkeypatch.setattr(_CfetBuilder, "MAX_NODES", 1 << 8)
    engine = _engine(tmp_path)
    before = engine.scan()["warnings"]
    original = _read(engine, "g0svc.mini")
    (stratum,) = [e["files"] for e in engine.strata.values()
                  if "g0svc.mini" in e["files"]]
    with _serving(engine, tmp_path) as sock_path:
        fragment = request(sock_path, {
            "op": "edit", "path": "g0svc.mini",
            "text": original + _branchy(16)})
        error = fragment["edit"]["errors"][stratum[0]]
        assert error.startswith("function g0svc.branchy is too branchy (")
        assert "256 nodes" in error
        assert 0 < fragment["warnings"] < before
        assert request(sock_path, {"op": "ping"})["ok"] is True
        fragment = request(sock_path, {
            "op": "edit", "path": "g0svc.mini", "text": original})
        assert fragment["edit"]["errors"] == {}
        assert request(sock_path, {"op": "shutdown"})["ok"] is True
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def _unreadable(workspace, name, kind):
    """Put at ``name`` an entry the daemon cannot read as text."""
    path = os.path.join(workspace, name)
    if kind == "directory":
        os.mkdir(path)
    else:
        with open(path, "wb") as f:
            f.write(b"func f() {\n    return 0;\n}\n\xff\xfe\n")


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_workspace_entry_is_an_error_not_a_crash(tmp_path, kind):
    engine = _engine(tmp_path)
    engine.scan()
    good = _accumulated(engine)
    _unreadable(engine.workspace, "sub.mini", kind)
    for _ in range(2):  # listed on every poll while it is there
        fragment = engine.scan()
        assert list(fragment["edit"]["errors"]) == ["sub.mini"]
        assert "cannot read sub.mini" in fragment["edit"]["errors"]["sub.mini"]
    assert _accumulated(engine) == good
    fragment = engine.remove("sub.mini")
    if kind == "directory":
        os.rmdir(os.path.join(engine.workspace, "sub.mini"))
        fragment = engine.scan()
    assert fragment["edit"]["errors"] == {}
    assert _accumulated(engine) == good


def test_file_turned_non_utf8_keeps_its_last_good_analysis(tmp_path):
    engine = _engine(tmp_path)
    engine.scan()
    good = _accumulated(engine)
    original = _read(engine, "g0svc.mini")
    _unreadable(engine.workspace, "g0svc.mini", "non-utf8")
    fragment = engine.scan()
    assert list(fragment["edit"]["errors"]) == ["g0svc.mini"]
    assert _accumulated(engine) == good
    # A restart has no last good text: the stratum the file belongs to
    # fails with the error when a neighbour's edit makes it re-run.
    again = ServeEngine(engine.workspace, str(tmp_path / "wd"), _fsms())
    assert list(again.scan()["edit"]["errors"]) == ["g0svc.mini"]
    fragment = again.edit("g0left.mini", _read(again, "g0left.mini") + "\n"
                          "func g0_pad(v) {\n    return v;\n}\n")
    assert [e for e in fragment["edit"]["errors"].values()
            if e.startswith("cannot read g0svc.mini")]
    fragment = again.edit("g0svc.mini", original)
    assert fragment["edit"]["errors"] == {}
    scratch = _scratch_warnings(again.workspace)[1]
    assert _accumulated(again) == scratch
    # The recovered stratum entered the state: its warnings are this
    # edit's delta, and the state file carries it past another restart.
    (members,) = [entry["files"] for entry in again.strata.values()
                  if "g0svc.mini" in entry["files"]]
    recovered = sorted(serve_mod._identity(w) for w in again.warnings()
                       if w["file"] in members)
    assert recovered
    assert sorted(serve_mod._identity(w)
                  for w in fragment["edit"]["warnings_added"]) == recovered
    third = ServeEngine(engine.workspace, str(tmp_path / "wd"), _fsms())
    assert third.scan()["edit"]["errors"] == {}
    assert _accumulated(third) == scratch


def test_incr_spans_are_recorded(tmp_path):
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder()
    engine = _engine(tmp_path, trace=recorder)
    engine.scan()
    path = os.path.join(engine.workspace, "g1svc.mini")
    fragment = engine.edit("g1svc.mini", open(path).read() + "\n")
    names = {e["name"] for e in recorder.events if e.get("ph") == "X"}
    assert {"incr-diff", "incr-join", "incr-retract"} <= names
    # The recorder saw both scans; the fragment reports its own.
    assert fragment["spans"]["serve-scan"]["calls"] == 1
    assert fragment["spans"]["incr-diff"]["calls"] == 1
    timing = fragment["timing"]
    assert timing["preprocess_s"] + timing["computation_s"] == pytest.approx(
        timing["total_s"], abs=2e-6
    )


@contextlib.contextmanager
def _serving(engine, tmp_path):
    """A real daemon on a unix socket; yields the socket path, and on
    exit shuts the daemon down if the test has not and joins its thread."""
    sock_path = str(tmp_path / "serve.sock")
    with open(os.devnull, "w") as out:
        server = Server(engine, socket_path=sock_path, poll=0.05, out=out)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            # The socket file exists from bind(), before listen(): wait
            # for an answer, not for the file.
            for _ in range(200):
                with contextlib.suppress(OSError):
                    if request(sock_path, {"op": "ping"})["ok"]:
                        break
                time.sleep(0.01)
            yield sock_path
        finally:
            if thread.is_alive():
                with contextlib.suppress(OSError, ValueError):
                    request(sock_path, {"op": "shutdown"})
            thread.join(timeout=10)
    assert not thread.is_alive()


def test_unix_socket_roundtrip(tmp_path):
    engine = _engine(tmp_path)
    with _serving(engine, tmp_path) as sock_path:
        assert request(sock_path, {"op": "ping"})["ok"] is True
        path = os.path.join(engine.workspace, "g0left.mini")
        text = open(path).read() + "func g0_sock(v) {\n    return v;\n}\n"
        fragment = request(
            sock_path, {"op": "edit", "path": "g0left.mini", "text": text}
        )
        assert fragment["edit"]["changed"] == ["g0left.mini"]
        assert fragment["edit"]["strata_rechecked"] == 1
        report = request(sock_path, {"op": "report"})
        assert report["schema"] == "grapple/serve-report"
        assert report["counters"]["edits_served"] >= 2
        assert request(sock_path, {"op": "shutdown"})["ok"] is True
    _, scratch = _scratch_warnings(engine.workspace)
    assert _accumulated(engine) == scratch


def test_socket_daemon_polls_past_an_unreadable_entry(tmp_path):
    engine = _engine(tmp_path)
    with _serving(engine, tmp_path) as sock_path:
        _unreadable(engine.workspace, "sub.mini", "directory")
        _unreadable(engine.workspace, "bin.mini", "non-utf8")
        time.sleep(0.3)  # several polls
        assert request(sock_path, {"op": "ping"})["ok"] is True
        report = request(sock_path, {"op": "report"})
        assert sorted(report["errors"]) == ["bin.mini", "sub.mini"]
        answer = request(sock_path, {"op": "edit", "path": "sub.mini",
                                     "text": ""})
        assert "directory" in answer["error"]
        # Any failed write is refused, e.g. one whose temp name is taken.
        os.mkdir(os.path.join(engine.workspace, "new.mini.tmp"))
        answer = request(sock_path, {"op": "edit", "path": "new.mini",
                                     "text": ""})
        assert answer["error"].startswith("cannot write new.mini")
        assert request(sock_path, {"op": "ping"})["ok"] is True
        assert request(sock_path, {"op": "shutdown"})["ok"] is True
    assert not os.path.exists(os.path.join(engine.workspace, "sub.mini.tmp"))
    assert os.path.isdir(os.path.join(engine.workspace, "new.mini.tmp"))
    assert not os.path.exists(os.path.join(engine.workspace, "new.mini"))


def _tree(root):
    """Every file under ``root`` with its size (sockets excluded)."""
    return {
        os.path.join(base, name): os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(root)
        for name in names
        if not name.endswith(".sock")
    }


def _send(sock_path, data: bytes):
    """A connected client that has sent ``data`` and nothing else; its
    own timeout turns a wedged daemon into a failure, not a hang."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(sock_path)
    sock.sendall(data)
    return sock


def _ping(sock_path) -> bool:
    with _send(sock_path, b'{"op": "ping"}\n') as sock:
        return json.loads(sock.makefile().readline())["ok"]


@pytest.mark.parametrize("payload", [
    {"op": "edit", "path": "../escaped.mini", "text": "func f() {\n}\n"},
    {"op": "remove", "path": "../victim.mini"},
    [1],
    {"op": "edit", "path": "g0left.mini", "text": 5},
    {"op": "edit", "path": 7, "text": ""},
    b"[" * 200_000,
    b"\xff\xfe{",
], ids=["edit-escapes", "remove-escapes", "not-an-object", "text-not-str",
        "path-not-str", "deep-nesting", "not-utf8"])
def test_hostile_socket_request_is_refused_and_daemon_survives(
    tmp_path, payload
):
    engine = _engine(tmp_path)
    (tmp_path / "victim.mini").write_text("func victim() {\n}\n")
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode()
    with _serving(engine, tmp_path) as sock_path:
        before = _tree(tmp_path)
        with _send(sock_path, payload + b"\n") as sock:
            assert "error" in json.loads(sock.makefile().readline())
        assert _tree(tmp_path) == before
        assert _ping(sock_path)


def test_client_that_hangs_up_before_the_answer_costs_only_itself(tmp_path):
    """``sendall`` to a closed peer raises BrokenPipeError; that used to
    leave ``Server.run`` and take the daemon with it."""
    engine = _engine(tmp_path)
    with _serving(engine, tmp_path) as sock_path:
        _send(sock_path, b'{"op": "report"}\n').close()
        assert _ping(sock_path)


def test_stalled_client_is_dropped_and_the_next_one_served(
    tmp_path, monkeypatch
):
    """A request line that never ends used to block ``recv`` forever:
    no poll, no other client, no shutdown."""
    monkeypatch.setattr(serve_mod, "CLIENT_TIMEOUT_S", 0.2)
    engine = _engine(tmp_path)
    with _serving(engine, tmp_path) as sock_path:
        with _send(sock_path, b'{"op":'):  # no newline, held open
            assert _ping(sock_path)


def test_cli_serve_once_emits_valid_fragment(tmp_path):
    ws, wd = str(tmp_path / "ws"), str(tmp_path / "wd")
    _write_workspace(ws, scale=SCALE)
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", ws, "--workdir", wd,
         "--checkers", "taint,order,iterator,lockdep", "--once"],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fragment = json.loads(proc.stdout)
    assert validate_run_report(fragment) == []
    assert fragment["warnings"] > 0
    # Second --once run resumes from serve-state.jsonl: no recompute.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", ws, "--workdir", wd,
         "--checkers", "taint,order,iterator,lockdep", "--once",
         "--report"],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == "grapple/serve-report"
    assert len(report["warnings"]) == fragment["warnings"]
    # What a workspace can hold is an error in the answer, not a crash.
    _unreadable(ws, "sub.mini", "directory")
    _unreadable(ws, "bin.mini", "non-utf8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", ws, "--workdir", wd,
         "--checkers", "taint,order,iterator,lockdep", "--once"],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout)
    assert sorted(again["edit"]["errors"]) == ["bin.mini", "sub.mini"]
    assert again["warnings"] == fragment["warnings"]
