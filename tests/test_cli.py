"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main

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


def test_check_stats_flag(source_file, capsys):
    main(["check", source_file(CLEAN), "--checkers", "io", "--stats"])
    out = capsys.readouterr().out
    assert "constraints solved" in out
    assert "constraints decoded/solved" in out
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


def test_check_unknown_checker_fails(source_file):
    with pytest.raises(KeyError):
        main(["check", source_file(CLEAN), "--checkers", "nope"])


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
