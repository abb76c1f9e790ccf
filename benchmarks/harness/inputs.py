"""Seeded inputs and their ground truth.

Everything the program under test sees is a generated file: ``--seed``
reaches the repo's generators through ``dataclasses.replace(profile,
seed=...)`` and seeds the serve op sequence.  The generators also return
the :class:`~repro.workloads.bugs.SeededBug` list, which is the oracle
the verdicts are checked against -- never the checker against itself.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field, replace

from . import spec

WARNING_RE = re.compile(
    r"^\[(?P<checker>[\w-]+)\] (?P<type>\S+) allocated in (?P<func>\S+)"
    r" \(line (?P<line>\d+), site (?P<site>\d+)\)"
)

LEAK_FUNC = "bench_leak"
LEAK = (
    f"func {LEAK_FUNC}(x) {{\n"
    "    var f = new FileWriter();\n"
    "    f.write(x);\n"
    "    return;\n"
    "}\n"
)


@dataclass
class Inputs:
    """One workload's generated input and its ground truth."""

    path: str  # a .mini file, or a workspace directory
    sources: dict  # file name -> text
    #: {(checker, func): "tp" | "fp"}
    truth: dict
    loc: int


def generate(workload: spec.Workload, seed: int, smoke: bool) -> tuple[dict, dict, int]:
    """(sources, truth, loc) for a workload -- pure, no file I/O."""
    scale = workload.smoke_scale if smoke else workload.scale
    if workload.subject == "hadoop":
        from repro.workloads.generator import generate_subject
        from repro.workloads.subjects import SUBJECT_PROFILES

        base = SUBJECT_PROFILES["hadoop"]
        subject = generate_subject(replace(
            base, seed=seed, target_loc=max(200, int(base.target_loc * scale)),
        ))
        sources = {"hadoop.mini": subject.source}
    else:
        from repro.workloads.multifile import (
            MULTIFILE_PROFILES,
            generate_multifile_subject,
        )

        subject = generate_multifile_subject(
            replace(MULTIFILE_PROFILES["gateway"], seed=seed), scale=scale
        )
        sources = dict(subject.sources)
    truth = {(s.checker, s.func): s.expectation for s in subject.seeds}
    return sources, truth, subject.loc


def write_inputs(workload: spec.Workload, seed: int, smoke: bool, dest: str) -> Inputs:
    """Generate and write a workload's input under ``dest`` (rewriting the
    same files when the same seed was written there before)."""
    sources, truth, loc = generate(workload, seed, smoke)
    os.makedirs(dest, exist_ok=True)
    for name, text in sources.items():
        with open(os.path.join(dest, name), "w") as f:
            f.write(text)
    path = dest if workload.subject == "gateway" else os.path.join(dest, "hadoop.mini")
    return Inputs(path=path, sources=sources, truth=truth, loc=loc)


# -- verdict oracle -------------------------------------------------------------


def parse_warnings(stdout: str) -> list[tuple]:
    """``(checker, func, type, line, site)`` per warning line of a
    ``repro check`` summary."""
    found = []
    for line in stdout.splitlines():
        m = WARNING_RE.match(line)
        if m:
            found.append((m["checker"], m["func"], m["type"],
                          int(m["line"]), int(m["site"])))
    return found


def judge(truth: dict, reported) -> tuple[list, list]:
    """(missed seeds, unexpected warnings) of reported ``(checker, func)``
    pairs; a verdict is right when both are empty -- every TP and FP seed
    reported, nothing else."""
    reported = set(reported)
    return (sorted(k for k in truth if k not in reported),
            sorted(k for k in reported if k not in truth))


def check_verdict(truth: dict, stdout: str, returncode: int) -> list[str]:
    """Reasons the ``repro check`` verdict is wrong ([] = correct)."""
    problems = []
    warnings = parse_warnings(stdout)
    missed, unexpected = judge(truth, [(w[0], w[1]) for w in warnings])
    if missed:
        problems.append(f"missed seeds: {missed[:3]}")
    if unexpected:
        problems.append(f"unexpected warnings: {unexpected[:3]}")
    head = stdout.split("\n", 1)[0]
    if head != f"{len(warnings)} warning(s)":
        problems.append(f"summary line {head!r} != {len(warnings)} parsed warnings")
    if returncode != (1 if truth else 0):
        problems.append(f"exit status {returncode}")
    return problems


def warning_identity(w: dict) -> tuple:
    """A serve-report warning in the shape :func:`parse_warnings` gives."""
    return (w["checker"], w["func"], w["type_name"], w["line"], w["site"])


# -- serve op sequence ------------------------------------------------------------


@dataclass
class Op:
    kind: str  # "pad" | "toggle" | "scan"
    path: str = ""
    text: str = ""
    #: Expected warning delta as (file, checker, func) tuples.
    added: list = field(default_factory=list)
    retracted: list = field(default_factory=list)


def op_mix(n: int) -> tuple[int, int, int]:
    """(pad, toggle, scan) counts for an ``n``-op session: 5:1:1, with an
    even toggle count so every inserted leak is later removed."""
    toggle = 2 * round(n / 14)
    scan = n // 7
    return n - toggle - scan, toggle, scan


def plan_ops(sources: dict, seed: int, n: int) -> list[Op]:
    """The seeded op sequence; the workspace ends with no leak left."""
    rng = random.Random(seed)
    pad, toggle, scan = op_mix(n)
    kinds = ["pad"] * pad + ["toggle"] * toggle + ["scan"] * scan
    rng.shuffle(kinds)
    files = sorted(sources)
    leaking: list[str] = []
    pads: dict[str, int] = {}
    toggles_left = toggle
    ops = []

    def text_of(path: str) -> str:
        body = sources[path] + (LEAK if path in leaking else "")
        if path in pads:
            body += f"func bench_pad(v) {{\n    return v + {pads[path]};\n}}\n"
        return body

    for serial, kind in enumerate(kinds):
        if kind == "scan":
            ops.append(Op("scan"))
            continue
        if kind == "pad":
            path = rng.choice(files)
            pads[path] = serial
            ops.append(Op("pad", path, text_of(path)))
            continue
        must_remove = toggles_left <= len(leaking)
        if leaking and (must_remove or rng.random() < 0.5):
            path = leaking.pop(rng.randrange(len(leaking)))
            module = _module_of(sources[path])
            op = Op("toggle", path, text_of(path),
                    retracted=[(path, "io", _qualified(module))])
        else:
            path = rng.choice([f for f in files if f not in leaking])
            leaking.append(path)
            module = _module_of(sources[path])
            op = Op("toggle", path, text_of(path),
                    added=[(path, "io", _qualified(module))])
        toggles_left -= 1
        ops.append(op)
    if leaking:
        raise RuntimeError("op plan left a leak in the workspace")
    return ops


def _module_of(text: str) -> str:
    m = re.match(r"\s*module\s+(\w+)\s*;", text)
    return m.group(1) if m else ""


def _qualified(module: str) -> str:
    return f"{module}.{LEAK_FUNC}" if module else LEAK_FUNC


def check_fragment(op: Op, fragment: dict) -> list[str]:
    """Reasons an edit's run-report fragment is wrong ([] = correct)."""
    edit = fragment.get("edit")
    if not isinstance(edit, dict):
        return [f"no edit section: {str(fragment)[:80]}"]
    problems = []
    want_strata = 0 if op.kind == "scan" else 1
    if edit.get("strata_rechecked") != want_strata:
        problems.append(
            f"{op.kind}: strata_rechecked {edit.get('strata_rechecked')}"
            f" != {want_strata}"
        )
    for key, want in (("warnings_added", op.added),
                      ("warnings_retracted", op.retracted)):
        got = sorted((w["file"], w["checker"], w["func"]) for w in edit.get(key, []))
        if got != sorted(tuple(w) for w in want):
            problems.append(f"{op.kind} {op.path}: {key} {got} != {want}")
    if edit.get("errors"):
        problems.append(f"{op.kind}: errors {edit['errors']}")
    return problems


def final_sources(sources: dict, ops: list[Op]) -> dict:
    """The workspace text after the whole op sequence."""
    out = dict(sources)
    for op in ops:
        if op.kind != "scan":
            out[op.path] = op.text
    return out
