"""Tests for the command-line interface."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys

import pytest

from repro import EngineOptions
from repro.analysis import pipeline
from repro.cli import build_parser, main

BUGGY = """
func main(x) {
    var f = new FileWriter();
    f.write(x);
    return;
}
"""

CLEAN = """
func main(x) {
    var f = new FileWriter();
    f.write(x);
    f.close();
    return;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    def write(text):
        path = tmp_path / "prog.mini"
        path.write_text(text)
        return str(path)

    return write


def test_check_reports_bug_exit_code(source_file, capsys):
    code = main(["check", source_file(BUGGY), "--checkers", "io"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FileWriter" in out


def test_check_clean_exit_zero(source_file, capsys):
    code = main(["check", source_file(CLEAN), "--checkers", "io"])
    assert code == 0
    assert "0 warning(s)" in capsys.readouterr().out


@pytest.mark.parametrize("guard", ["var q = !p;", "var q = p && n > 0;"])
def test_check_int_parameter_used_as_boolean(source_file, capsys, guard):
    """An ill-sorted boolean over an int parameter is an opaque branch,
    not a traceback that exits 1 like a verdict."""
    text = ("func main(p, n) { var w = new FileWriter(); %s "
            "if (q) { w.close(); } return; }" % guard)
    code = main(["check", source_file(text), "--checkers", "io"])
    captured = capsys.readouterr()
    assert code == 1
    assert "1 warning(s)" in captured.out.splitlines()
    assert "Traceback" not in captured.err


def test_check_too_branchy_function_is_a_usage_error(
    source_file, capsys, monkeypatch
):
    """A function whose CFET outgrows its bound is named on one line
    with status 2 -- exit 1 would claim warnings were found."""
    from repro.cfet.cfet import _CfetBuilder

    monkeypatch.setattr(_CfetBuilder, "MAX_NODES", 1 << 8)
    ifs = "".join(f"if (a > {i}) {{ c = c + 1; }}\n" for i in range(16))
    text = ("func main(a) {\nvar w = new FileWriter();\nvar c = 0;\n"
            f"{ifs}if (c > 100) {{ w.close(); }}\nreturn;\n}}\n")
    assert main(["check", source_file(text), "--checkers", "io"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "repro: function main is too branchy (its CFET passes 256 nodes;"
        " reduce its branching or the unroll factor)"
    ]


def test_check_stats_flag(source_file, capsys):
    main(["check", source_file(CLEAN), "--checkers", "io", "--stats"])
    out = capsys.readouterr().out
    assert "constraints solved" in out
    assert "constraint queries" in out
    assert "cache hit rate" in out
    assert "pairs processed/skipped" in out
    assert "compositions tried" in out


def test_check_survives_a_closed_stdout(source_file):
    """``repro check ... | head``: the reader goes away before the
    report is written.  That is not a crash -- no traceback, and the exit
    status a shell gives a SIGPIPE death."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "check", source_file(BUGGY),
         "--checkers", "io", "--stats"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    child.stdout.close()  # the child has not got as far as printing yet
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_check_unknown_checker_fails(source_file, capsys):
    assert main(["check", source_file(CLEAN), "--checkers", "nope"]) == 2
    assert "unknown checker 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--memory-budget", "nan"],
    ["--memory-budget", "inf"],
    ["--memory-budget", "0"],
    ["--memory-budget", "-1"],
    ["--unroll", "-1"],
    ["--unroll", "0"],
    ["--heartbeat", "nan"],
    ["--heartbeat", "inf"],
    ["--heartbeat", "0"],
    ["--heartbeat", "-1"],
    ["--sample-interval", "0"],
    ["--sample-interval", "-1"],
    ["--profile", "--sample-interval", "nan"],
    ["--profile", "--sample-interval", "inf"],
    ["--max-retries", "-1"],
    ["--checkers", "io,nosuch"],
    ["serve", "--poll", "0"],
    ["serve", "--poll", "-1"],
    ["serve", "--poll", "nan"],
    ["generate", "gateway", "--scale", "nan"],
    ["generate", "gateway", "--scale", "inf"],
    ["generate", "gateway", "--scale", "0"],
    ["generate", "hadoop", "--scale", "-2"],
], ids=" ".join)
def test_check_bad_flag_value_is_a_usage_error_not_a_verdict(
    source_file, tmp_path, capsys, flags
):
    """A crash must not look like a verdict: exit status 1 means
    "warnings found", so a value the run cannot start with is refused up
    front with one ``repro: ...`` line and the status ``--resume``
    without ``--workdir`` already uses.  (A zero or negative budget used
    to be accepted and never finish: one partition per vertex; ``serve
    --poll 0`` made the listening socket non-blocking and crashed after
    the cold scan.)"""
    workdir = tmp_path / "wd"
    if flags[0] == "serve":
        argv = ["serve", str(tmp_path), "--workdir", str(workdir),
                "--socket", str(tmp_path / "serve.sock"), *flags[1:]]
    elif flags[0] == "generate":
        argv = [*flags, "-o", str(workdir)]
    else:
        argv = ["check", source_file(BUGGY), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro: ")
    assert flags[-1].split(",")[-1] in line  # names the offending value
    assert not workdir.exists()  # refused before any state was made


@pytest.mark.parametrize("caller_collects", [True, False],
                         ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("path", [
    "exit-0", "exit-1", "usage-error", "checkpoint-mismatch", "crash",
])
def test_check_leaves_the_collector_as_it_found_it(
    source_file, tmp_path, capsys, monkeypatch, collector_state, path,
    caller_collects,
):
    """``cmd_check`` runs the pipeline with automatic cycle collection
    off (DESIGN §17); that is its own business on every way out, and it
    never turns on a collector its caller had turned off."""
    workdir = str(tmp_path / "wd")
    if path == "checkpoint-mismatch":
        assert main(["check", source_file(BUGGY), "--checkers", "io",
                     "--workdir", workdir]) == 1
    io = ["--checkers", "io"]
    text, flags, expected = {
        "exit-0": (CLEAN, io, 0),
        "exit-1": (BUGGY, io, 1),
        "usage-error": (BUGGY, ["--unroll", "0"], 2),
        "checkpoint-mismatch": (
            BUGGY, [*io, "--workdir", workdir, "--resume",
                    "--memory-budget", "1"], 2),
        "crash": (BUGGY, io, None),
    }[path]
    argv = ["check", source_file(text), *flags]
    if path == "crash":
        def crash(*_args, **_kwargs):
            raise RuntimeError("frontend fell over")

        monkeypatch.setattr(pipeline, "compile_source", crash)
    (gc.enable if caller_collects else gc.disable)()
    if expected is None:
        with pytest.raises(RuntimeError, match="fell over"):
            main(argv)
    else:
        assert main(argv) == expected
    assert gc.isenabled() is caller_collects
    if path == "checkpoint-mismatch":
        assert "cannot resume" in capsys.readouterr().err


def test_check_runs_the_pipeline_with_the_collector_off(
    source_file, capsys, monkeypatch, collector_state
):
    seen = []
    compile_source = pipeline.compile_source

    def watching(*args, **kwargs):
        seen.append(gc.isenabled())
        return compile_source(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compile_source", watching)
    gc.enable()
    assert main(["check", source_file(BUGGY), "--checkers", "io"]) == 1
    assert seen == [False]
    assert gc.isenabled()


def test_the_collector_comes_back_with_an_empty_young_generation(
    source_file, capsys, monkeypatch, collector_state
):
    """Handing the collector back costs no pass over the run's
    survivors: they leave generation 0 before ``gc.enable()``, and no
    permanent generation is left behind."""
    from repro import cli

    threshold = gc.get_threshold()[0]
    young_at_enable = []

    class Watched:
        def __getattr__(self, name):
            return getattr(gc, name)

        def enable(self):
            young_at_enable.append(gc.get_count()[0])
            gc.enable()

    monkeypatch.setattr(cli, "gc", Watched())
    gc.enable()
    assert main(["check", source_file(BUGGY), "--checkers", "io"]) == 1
    assert young_at_enable and young_at_enable[0] < threshold
    assert gc.get_count()[0] < threshold
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


README = os.path.join(os.path.dirname(__file__), "..", "README.md")

ENGINE_OPTION_FIELDS = {
    "workdir", "memory_budget", "witness_cap", "enable_cache",
    "path_sensitive", "trace", "heartbeat",
    "sampler", "resume", "max_retries", "fault_plan",
}


def _parser_flags(command):
    [subparsers] = build_parser()._subparsers._group_actions
    return {
        option
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--")
    } - {"--help"}


def _readme_flags(command):
    """Flags named in the first column of README's ``command`` table."""
    with open(README) as f:
        after = f.read().split(f"`{command}` flags:\n\n", 1)[1]
    rows = after.split("\n\n", 1)[0].splitlines()[2:]  # header + rule
    return {
        flag
        for row in rows
        for flag in re.findall(r"--[a-z][a-z-]*", row.split(" | ")[0])
    }


def test_knob_census():
    """Every knob is a deliberate edit in two places: the engine's
    option set is pinned by name, and a ``check``/``serve`` flag exists
    if and only if README's table documents it.  (The five worker-pool
    options and their flags went with the pool, and the string
    baseline's three options became ``StringConstraintEngine``
    arguments; one of them coming back on either side alone fails
    here.  ``metrics`` went when histograms became always-on span
    observations.)"""
    fields = {f.name for f in dataclasses.fields(EngineOptions)}
    assert fields == ENGINE_OPTION_FIELDS
    assert len(fields) == 11
    for command in ("check", "serve"):
        documented, parsed = _readme_flags(command), _parser_flags(command)
        assert parsed - documented == set(), f"{command}: undocumented"
        assert documented - parsed == set(), f"{command}: documented only"


@pytest.mark.parametrize("case", [
    "empty-directory", "missing-file", "parse-error", "link-error",
    "lex-error", "missing-spec", "bad-spec", "unknown-subject",
    "serve-missing-workspace", "serve-workdir-is-a-file", "non-utf8-file",
    "check-workdir-is-a-file",
])
def test_unreadable_input_is_a_usage_error_not_a_verdict(
    source_file, tmp_path, capsys, case
):
    """Exit 1 always means "warnings found": input the run cannot read,
    parse or link is one ``repro: ...`` line and status 2, never a
    traceback."""
    if case == "empty-directory":
        (tmp_path / "empty").mkdir()
        argv = ["check", str(tmp_path / "empty")]
        names = "no .mini files"
    elif case == "missing-file":
        argv = ["check", str(tmp_path / "nosuch.mini")]
        names = "nosuch.mini"
    elif case == "parse-error":
        argv = ["check", source_file("func main( {")]
        names = "expected"
    elif case == "link-error":
        for name in ("a.mini", "b.mini"):
            (tmp_path / name).write_text("func f() { return; }\n")
        argv = ["check", str(tmp_path / "a.mini"), str(tmp_path / "b.mini")]
        names = "duplicate symbol 'f'"
    elif case == "lex-error":
        argv = ["check", source_file("func main() { x = @; }")]
        names = "'@'"
    elif case == "missing-spec":
        argv = ["check", source_file(CLEAN), "--spec",
                str(tmp_path / "nosuch.spec")]
        names = "nosuch.spec"
    elif case == "bad-spec":
        (tmp_path / "bad.spec").write_text("garbage\n")
        argv = ["check", source_file(CLEAN), "--spec",
                str(tmp_path / "bad.spec")]
        names = "bad --spec"
    elif case == "serve-missing-workspace":
        argv = ["serve", str(tmp_path / "nosuch"), "--workdir",
                str(tmp_path / "wd"), "--once"]
        names = "nosuch"
    elif case == "serve-workdir-is-a-file":
        (tmp_path / "wd").write_text("")
        argv = ["serve", str(tmp_path), "--workdir", str(tmp_path / "wd"),
                "--once"]
        names = "--workdir"
    elif case == "check-workdir-is-a-file":
        # Refused up front: it used to fail only after the whole frontend
        # had run, with a NotADirectoryError traceback.
        (tmp_path / "wd").write_text("")
        argv = ["check", source_file(BUGGY), "--workdir",
                str(tmp_path / "wd")]
        names = "--workdir"
    elif case == "non-utf8-file":
        (tmp_path / "ws").mkdir()
        (tmp_path / "ws" / "ok.mini").write_text(CLEAN)
        (tmp_path / "ws" / "bin.mini").write_bytes(b"func \xff\xfe() {}\n")
        argv = ["check", str(tmp_path / "ws")]
        names = "bin.mini"
    else:
        argv = ["generate", "nosuch"]
        names = "unknown subject 'nosuch'"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro: ") and names in line


def test_subjects_lists_four(capsys):
    assert main(["subjects"]) == 0
    out = capsys.readouterr().out
    for name in ("zookeeper", "hadoop", "hdfs", "hbase"):
        assert name in out


def test_generate_to_stdout(capsys):
    assert main(["generate", "zookeeper", "--scale", "0.05"]) == 0
    captured = capsys.readouterr()
    assert "func" in captured.out
    assert "seeded:" in captured.err


def test_generate_to_file(tmp_path, capsys):
    out_path = tmp_path / "subject.mini"
    main(["generate", "hdfs", "--scale", "0.05", "-o", str(out_path)])
    assert out_path.exists()
    assert "func" in out_path.read_text()


NET_MINI = """
module net;

func open_conn(x) {
    var s = new Socket();
    s.connect(x);
    return s;
}
"""

APP_MINI = """
import net;

func main(x) {
    var a = net.open_conn(x);
    return a;
}
"""


@pytest.fixture()
def multi_file_dir(tmp_path):
    (tmp_path / "net.mini").write_text(NET_MINI)
    (tmp_path / "app.mini").write_text(APP_MINI)
    return tmp_path


def test_check_directory_of_mini_files(multi_file_dir, capsys):
    code = main(["check", str(multi_file_dir), "--checkers", "socket"])
    out = capsys.readouterr().out
    assert code == 1
    assert "net.open_conn" in out  # warning names the global symbol id


def test_check_multiple_files_with_stats(multi_file_dir, capsys):
    files = [str(multi_file_dir / "app.mini"), str(multi_file_dir / "net.mini")]
    code = main(["check", *files, "--checkers", "socket", "--stats"])
    out = capsys.readouterr().out
    assert code == 1
    assert "scope resolution" in out
    assert "2 files" in out


def test_check_one_moduled_file_as_its_directory(tmp_path, capsys):
    """A lone file that declares ``module net;`` checks exactly as the
    directory holding it does."""
    (tmp_path / "net.mini").write_text(NET_MINI)
    assert main(["check", str(tmp_path), "--checkers", "socket"]) == 1
    as_directory = capsys.readouterr().out
    assert "warning(s)" in as_directory
    code = main(["check", str(tmp_path / "net.mini"), "--checkers", "socket"])
    assert code == 1
    assert capsys.readouterr().out == as_directory


def test_stats_text_is_a_view_of_the_run_report(tmp_path, capsys):
    """Every number ``--stats`` prints is the same run's report value."""
    demo = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "multifile_demo")
    report_path = tmp_path / "report.json"
    main(["check", demo, "--checkers", "taint,order,iterator,lockdep",
          "--stats", "--metrics-json", str(report_path)])
    text = capsys.readouterr().out.split("\n\n")[-1]
    report = json.loads(report_path.read_text())
    c, g = report["counters"], report["gauges"]
    rates = {"cache hit rate": g["cache_hit_rate"]}
    expected = {
        "vertices": [g["vertices"]],
        "edges before/after": [g["edges_before"], g["edges_after"]],
        "partitions": [g["final_partitions"]],
        "pairs processed/skipped": [
            c["pairs_processed"], c["pairs_skipped"], c["pairs_delta_seeded"]],
        "compositions tried": [c["compositions_tried"]],
        "constraints solved": [c["constraints_solved"]],
        "constraint queries": [c["constraint_queries"], c["cache_hits"]],
        "cache hit rate": [],
        "pending rows": [c["pending_rows"]],
        "partition files written": [
            c["partition_writes"], c["partition_bytes_written"]],
        "join batches/probes": [c["join_batches"], c["join_probes"]],
        "feasibility groups": [c["feasibility_groups"], c["group_hits"]],
        "reduction": list(report["reduction"].values()),
        "scope resolution": [report["scopes"][k] for k in (
            "scope_resolutions", "files", "unresolved_refs", "ambiguous_refs")],
    }
    timing, breakdown = report["timing"], report["breakdown"]
    slowest = sorted(report["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    timed = {
        "preprocess/closure": f"{timing['preprocess_s']:.2f}s"
                              f" / {timing['computation_s']:.2f}s",
        "closure breakdown": " · ".join(
            f"{key} {share:.0%}" for key, share in breakdown.items()),
        "slowest spans (self)": " · ".join(
            f"{name} {row['self_s']:.2f}s" for name, row in slowest[:5]),
        "total time": f"{timing['total_s']:.2f}s",
        "peak rss": f"{g['peak_rss_mb']:.1f} MiB",
    }
    seen = []
    for line in text.strip().splitlines():
        label, _, value = (part.strip() for part in line.partition(":"))
        seen.append(label)
        if label in timed:
            assert value == timed[label], line
            continue
        numbers = [int(n) for n in re.findall(r"\d+", value)]
        if label in rates:
            assert abs(numbers.pop(0) - 100 * rates[label]) <= 0.5, line
        assert numbers == expected[label], line
    assert seen == [*expected, *timed]
    assert report["scopes"]["files"] == 3 and report["reduction"]


def test_check_pack_checkers_opt_in(multi_file_dir, capsys):
    code = main([
        "check", str(multi_file_dir),
        "--checkers", "taint,order,iterator,lockdep",
    ])
    capsys.readouterr()
    assert code == 0  # a leaked socket is not a pack violation


def test_subjects_lists_multifile_profiles(capsys):
    main(["subjects"])
    assert "gateway" in capsys.readouterr().out


def test_generate_multifile_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "gateway_src"
    assert main(["generate", "gateway", "-o", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.glob("*.mini"))
    assert written == ["app.mini", "core.mini", "svc.mini"]
    assert "module core;" in (out_dir / "core.mini").read_text()
    # The generated tree round-trips through check with the packs.
    code = main([
        "check", str(out_dir), "--checkers", "taint,order,iterator,lockdep",
    ])
    capsys.readouterr()
    assert code == 1


def test_generate_multifile_to_stdout(capsys):
    assert main(["generate", "gateway"]) == 0
    captured = capsys.readouterr()
    assert "// ---- core.mini ----" in captured.out
    assert "seeded:" in captured.err


def test_lint_multifile_directory(multi_file_dir, capsys):
    (multi_file_dir / "app.mini").write_text(APP_MINI.replace(
        "    return a;", "    var w = x + 1;\n    return a;"
    ))
    code = main(["check", str(multi_file_dir), "--checkers", "socket",
                 "--lint"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[dead-store]" in captured.err
    assert "app.mini:" in captured.err


@pytest.mark.parametrize("case", ["state-file-is-a-directory",
                                  "unbindable-socket"])
def test_serve_io_error_is_a_usage_error_not_a_traceback(tmp_path, capsys,
                                                         case):
    """The daemon's own files failing it -- its state file, its socket --
    is one ``repro:`` line naming the path, and status 2."""
    ws, wd = tmp_path / "ws", tmp_path / "wd"
    ws.mkdir()
    (ws / "net.mini").write_text(NET_MINI)
    argv = ["serve", str(ws), "--workdir", str(wd)]
    if case == "state-file-is-a-directory":
        (wd / "serve-state.jsonl").mkdir(parents=True)
        argv.append("--once")
        names = "serve-state.jsonl: Is a directory"
    else:
        argv += ["--socket", str(tmp_path / "nosuch" / "s.sock")]
        names = "s.sock: No such file or directory"
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("repro: ") and names in line


def test_serve_on_a_missing_workspace_keeps_the_state(tmp_path, capsys):
    """A mistyped workspace used to read as every known file removed:
    the run exited 0 having persisted the removals, and the next start
    on the right path re-checked every stratum."""
    ws, wd = tmp_path / "ws", tmp_path / "wd"
    ws.mkdir()
    (ws / "net.mini").write_text(NET_MINI)
    (ws / "app.mini").write_text(APP_MINI)
    assert main(["serve", str(ws), "--workdir", str(wd), "--once"]) == 0
    state = {name: (wd / name).read_bytes() for name in os.listdir(wd)}
    typo = str(tmp_path / "wss")
    assert main(["serve", typo, "--workdir", str(wd), "--once"]) == 2
    assert {name: (wd / name).read_bytes() for name in os.listdir(wd)} \
        == state
    capsys.readouterr()
    assert main(["serve", str(ws), "--workdir", str(wd), "--once"]) == 0
    assert json.loads(capsys.readouterr().out)["edit"]["changed"] == []
