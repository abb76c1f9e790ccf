"""Untraced measurement through the real user entry points.

``repro check`` runs as a child process (wall from spawn to exit, peak
RSS from ``os.wait4``); ``repro serve`` runs as a real daemon on a unix
socket, driven by one closed-loop client (the next request is sent only
after the previous answer arrived).  Every child runs with
``PYTHONHASHSEED=0`` and the program's ``workers=1`` defaults.  Times
are reported at reference host speed (see :mod:`.speed`); the raw walls
are kept beside them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import inputs as inp
from . import spec
from .layers import percentile
from .speed import Normalizer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: Scratch files, traces and set results (git-ignored), relative to ROOT.
RESULTS = os.path.join("benchmarks", "results", "harness")
CHILD_TIMEOUT = 150.0
#: A running child is paused this often for a host-speed slice.
PAUSE_EVERY = 0.25
#: Serve ops between two host-speed slices.
TICK_EVERY = 8


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    wall_s: float  # spawn -> exit as measured, pauses excluded
    norm_s: float  # the same at reference host speed
    rss_mb: float
    returncode: int
    stdout: str = ""

    @property
    def factor(self) -> float:
        return self.wall_s / self.norm_s if self.norm_s else 1.0


def run_child(argv, stdout_path: str, timeout: float = CHILD_TIMEOUT) -> Child:
    """Run ``python <argv>`` to completion; time spawn -> exit."""
    norm = Normalizer()
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL,
            cwd=ROOT, env=child_env(),
        )
        child = watch(proc, start, norm, timeout)
    with open(stdout_path) as f:
        child.stdout = f.read()
    return child


def watch(proc, start: float, norm: Normalizer, timeout: float, ready=None):
    """Time a child in segments until it exits (returns a :class:`Child`)
    or, with ``ready``, until ``ready()`` is true (returns None and leaves
    the child running).  Between segments the child is stopped for one
    host-speed slice; stopped time is not part of the wall."""
    seg_start = start
    while True:
        exited, is_ready = _poll(proc.pid, seg_start + PAUSE_EVERY, ready)
        if exited is None and not is_ready:
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                exited = (status, usage)
        norm.segment(time.perf_counter() - seg_start)
        if exited is not None:
            status, usage = exited
            proc.returncode = os.waitstatus_to_exitcode(status)
            return Child(norm.wall_s, norm.norm_s, usage.ru_maxrss / 1024.0,
                         proc.returncode)
        if is_ready:
            return None
        if norm.wall_s > timeout:
            proc.kill()
        os.kill(proc.pid, signal.SIGCONT)
        seg_start = time.perf_counter()


def _poll(pid: int, deadline: float, ready):
    """Wait for exit / readiness until ``deadline``: (exit info, ready)."""
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return (status, usage), False
        if ready is not None and ready():
            return None, True
        if time.perf_counter() >= deadline:
            return None, False
        time.sleep(0.002)


def check_argv(workload: spec.Workload, path: str) -> list[str]:
    return ["-m", "repro", "check", os.path.relpath(path, ROOT), *workload.check_args]


# -- serve ------------------------------------------------------------------------


def rpc(sock_path: str, payload: bytes, timeout: float = 60.0) -> bytes:
    """One newline-framed request/response on the daemon's unix socket."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(sock_path)
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return b"".join(chunks)


def _ping(sock_path: str) -> bool:
    try:
        return b'"ok"' in rpc(sock_path, b'{"op": "ping"}\n', timeout=5.0)
    except OSError:
        return False


def _request(op: inp.Op) -> bytes:
    if op.kind == "scan":
        doc = {"op": "scan"}
    else:
        doc = {"op": "edit", "path": op.path, "text": op.text}
    return json.dumps(doc).encode() + b"\n"


@dataclass
class Session:
    """One daemon session: cold scan, the op sequence, report, restart.
    Times are at reference host speed; ``factors`` says how far off it."""

    cold_scan_s: float = 0.0
    rtt_ms: dict = field(default_factory=dict)  # kind -> [ms]
    rss_mb: float = 0.0
    restart_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    report: list = field(default_factory=list)  # warning identities
    factors: dict = field(default_factory=dict)  # phase -> host factor

    def edits_ms(self) -> list:
        return self.rtt_ms.get("pad", []) + self.rtt_ms.get("toggle", [])

    def fail(self, problems) -> None:
        """Count one failed operation if it had any problem."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def serve_session(workload: spec.Workload, pristine: inp.Inputs, ops, rundir: str) -> Session:
    """Run one full daemon session in ``rundir`` (a fresh directory).

    The caller's working directory must be :data:`ROOT` (``main`` sets
    it): client and daemon share one relative socket path.
    """
    session = Session()
    ws = os.path.join(rundir, "ws")
    wd = os.path.join(rundir, "wd")
    shutil.copytree(pristine.path, ws)
    # A relative socket path: AF_UNIX caps sun_path at 108 bytes.
    sock = os.path.relpath(os.path.join(rundir, "s.sock"), ROOT)
    argv = ["-m", "repro", "serve", os.path.relpath(ws, ROOT),
            "--workdir", os.path.relpath(wd, ROOT), *workload.check_args]
    requests = [_request(op) for op in ops]
    cold = Normalizer()
    with open(os.path.join(rundir, "daemon.err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv, "--socket", sock],
            stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=child_env(),
        )
        # Daemon spawn -> first ping answered: the cold scan.
        session.attempted += 1
        died = watch(proc, start, cold, CHILD_TIMEOUT, ready=lambda: _ping(sock))
        if died is None:
            session.cold_scan_s = cold.norm_s
            session.factors["cold"] = cold.factor
            _drive(session, sock, ops, requests)
            died = watch(proc, time.perf_counter(), Normalizer(), 30.0)
        else:
            session.fail(["daemon exited before answering a ping"])
        session.rss_mb = died.rss_mb
        if died.returncode != 0:
            session.fail([f"daemon exit {died.returncode}"])
    # Restart on the persisted workdir: nothing moved, so nothing re-runs.
    session.attempted += 1
    restart = run_child([*argv, "--once"], os.path.join(rundir, "restart.out"))
    session.restart_s = restart.norm_s
    rechecked = _json(restart.stdout.encode()).get("edit", {}).get("strata_rechecked")
    if restart.returncode != 0 or rechecked != 0:
        session.fail([f"restart exit {restart.returncode}, strata_rechecked {rechecked}"])
    return session


def _drive(session: Session, sock: str, ops, requests) -> None:
    """The closed loop: ops back to back, then report and shutdown."""
    norm = Normalizer()
    pending: list = []  # (kind, raw ms) since the last slice

    def flush() -> None:
        factor = norm.segment(sum(ms for _, ms in pending) / 1e3)
        for kind, ms in pending:
            session.rtt_ms.setdefault(kind, []).append(ms / factor)
        pending.clear()

    for op, payload in zip(ops, requests):
        session.attempted += 1
        if len(pending) >= TICK_EVERY:
            flush()
        t0 = time.perf_counter()
        try:
            raw = rpc(sock, payload)
        except OSError as exc:
            session.fail([f"{op.kind}: socket {exc}"])
            continue
        pending.append((op.kind, (time.perf_counter() - t0) * 1e3))
        session.fail(inp.check_fragment(op, _json(raw)))
    flush()
    session.factors["ops"] = norm.factor
    session.attempted += 1
    try:
        report = _json(rpc(sock, b'{"op": "report"}\n'))
        session.report = sorted(inp.warning_identity(w) for w in report["warnings"])
        session.fail([f"report errors {report['errors']}"] if report.get("errors") else [])
    except (OSError, KeyError, TypeError) as exc:
        session.fail([f"report: {exc!r}"])
    try:
        rpc(sock, b'{"op": "shutdown"}\n')
    except OSError as exc:
        session.fail([f"shutdown: {exc}"])


def _json(raw: bytes) -> dict:
    try:
        doc = json.loads(raw)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def summarize_rtts(sessions) -> dict:
    """Per-session latency statistics (ms) of the serve sessions."""
    out = {"p50": [], "p90": [], "pad_p50": [], "toggle_p50": [], "scan_p50": []}
    for s in sessions:
        edits = s.edits_ms()
        if edits:
            out["p50"].append(percentile(edits, 50))
            out["p90"].append(percentile(edits, 90))
        for kind in ("pad", "toggle", "scan"):
            if s.rtt_ms.get(kind):
                out[f"{kind}_p50"].append(percentile(s.rtt_ms[kind], 50))
    return out
