"""Deterministic synthetic-subject generator.

A subject is a collection of *modules*; each module has an entry function
(a root in the call graph, like a service's request handler) that invokes
a handful of pattern functions and a module-local helper (called several
times, exercising context-sensitive cloning).  The generator seeds exactly
the requested number of true-positive and false-positive bug patterns per
checker, then pads with clean patterns until the target line count is
reached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workloads import patterns as P
from repro.workloads.bugs import SeededBug


@dataclass
class SubjectProfile:
    """Shape parameters for one synthetic subject."""

    name: str
    version: str
    description: str
    target_loc: int
    # checker -> (tp_count, fp_count)
    bugs: dict = field(default_factory=dict)
    patterns_per_module: int = 5
    seed: int = 0


@dataclass
class GeneratedSubject:
    name: str
    source: str
    seeds: list[SeededBug]
    loc: int
    module_count: int


def generate_subject(profile: SubjectProfile) -> GeneratedSubject:
    rng = random.Random(profile.seed)
    pieces: list[tuple[str, list[SeededBug]]] = []
    index = 0

    def next_name() -> str:
        nonlocal index
        index += 1
        return f"{profile.name}_p{index}"

    # Seeded bug patterns first (cycling through each checker's templates).
    for checker, (tp_count, fp_count) in sorted(profile.bugs.items()):
        templates = P.TP_PATTERNS.get(checker, [])
        for i in range(tp_count):
            template = templates[i % len(templates)]
            pieces.append(template(next_name(), rng))
        fp_templates = P.FP_PATTERNS.get(checker, [])
        for i in range(fp_count):
            template = fp_templates[i % len(fp_templates)]
            pieces.append(template(next_name(), rng))

    # Clean padding until the target size is reached (a running total:
    # re-counting every piece per padding piece is quadratic).
    loc = sum(_loc(text) for text, _ in pieces)
    while loc < profile.target_loc:
        template = rng.choice(P.CLEAN_PATTERNS)
        pieces.append(template(next_name(), rng))
        loc += _loc(pieces[-1][0])

    rng.shuffle(pieces)

    # Group into modules with entry functions and a shared helper.
    sources: list[str] = []
    seeds: list[SeededBug] = []
    module_count = 0
    for start in range(0, len(pieces), profile.patterns_per_module):
        chunk = pieces[start : start + profile.patterns_per_module]
        module_count += 1
        module = f"{profile.name}_m{module_count}"
        entry_names = []
        for text, piece_seeds in chunk:
            sources.append(text)
            seeds.extend(piece_seeds)
            entry_names.append(_entry_function(text))
        sources.append(_module_glue(module, entry_names, rng))

    source = "\n".join(sources)
    return GeneratedSubject(
        name=profile.name,
        source=source,
        seeds=seeds,
        loc=_loc(source),
        module_count=module_count,
    )


def _entry_function(pattern_source: str) -> str:
    """The last function defined by a pattern is its public entry."""
    name = None
    for line in pattern_source.splitlines():
        stripped = line.strip()
        if stripped.startswith("func "):
            name = stripped[len("func ") :].split("(")[0]
    if name is None:
        raise ValueError("pattern source defines no function")
    return name


def _module_glue(module: str, entry_names: list[str], rng: random.Random) -> str:
    """Module entry + a shared helper invoked from several call sites."""
    helper = f"{module}_util"
    threshold = rng.randint(2, 7)
    calls = []
    for i, name in enumerate(entry_names):
        calls.append(f"    var a{i} = {helper}(x + {i});")
        calls.append(f"    {name}(a{i});")
    body = "\n".join(calls)
    return f"""
func {helper}(v) {{
    if (v > {threshold}) {{
        return v - 1;
    }}
    return v + 1;
}}
func {module}_entry(x) {{
{body}
    return;
}}
"""


def _loc(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())
