"""Multi-file synthetic subjects with cross-module property-pack bugs.

The single-file generator (:mod:`repro.workloads.generator`) seeds the
paper's four checkers inside one translation unit.  This generator seeds
the *interprocedural* property packs -- taint, API ordering, iterator
invalidation, lock discipline -- with every pattern deliberately split
across three files:

* ``core.mini`` (``module core;``) -- factories that allocate the
  tracked object and return it;
* ``svc.mini`` (``module svc;``) -- middle-layer helpers that advance
  the object's protocol (sanitize, init, invalidate, acquire, ...);
* ``app.mini`` (root namespace, no ``module`` header) -- entry points
  that import both modules and drive the object to the sink / exit.

A warning's allocation function is therefore always a *qualified* core
symbol (``core.<pattern>_make``), which only exists if name
resolution (:mod:`repro.sa.scopes`) linked the qualified calls
correctly -- the TP/FP accounting doubles as an end-to-end resolution
oracle.  FP patterns route the object through an extern function (no
definition anywhere), mirroring the paper's FP causes.

``python -m repro.workloads.multifile --report`` prints the exact
accounting as JSON (the CI property-pack smoke diffs it against a
committed golden).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.workloads.bugs import SeededBug

MODULES = ("core", "svc", "app")


@dataclass
class MultiFileProfile:
    """Shape parameters for one multi-file subject."""

    name: str
    description: str
    target_loc: int
    # checker -> (tp_count, fp_count)
    packs: dict = field(default_factory=dict)
    seed: int = 0


@dataclass
class MultiFileSubject:
    name: str
    #: path -> source text (``core.mini``, ``svc.mini``, ``app.mini``).
    sources: dict
    seeds: list[SeededBug]
    loc: int


# -- cross-module pattern templates ----------------------------------------
# Each returns ({module: fragment}, seeds); the allocation always lives in
# ``core`` so warnings point at a qualified symbol.


def taint_tp(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_make(x) {{
    var t = new UserInput();
    return t;
}}
""",
        "svc": f"""
func {n}_route(t) {{
    return t;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var t = core.{n}_make(x);
    var u = svc.{n}_route(t);
    u.exec();
    return;
}}
""",
    }
    return parts, [SeededBug("taint", f"core.{n}_make", "tp", "taint_tp")]


def taint_fp(n: str, rng: random.Random):
    """externScrub sanitizes at run time; the checker cannot see it."""
    parts = {
        "core": f"""
func {n}_make(x) {{
    var t = new NetPacket();
    return t;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var t = core.{n}_make(x);
    externScrub(t);
    t.query();
    return;
}}
""",
    }
    return parts, [SeededBug("taint", f"core.{n}_make", "fp", "taint_fp_extern")]


def taint_clean(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_make(x) {{
    var t = new UserInput();
    return t;
}}
""",
        "svc": f"""
func {n}_scrub(t) {{
    t.sanitize();
    return t;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var t = core.{n}_make(x);
    var u = svc.{n}_scrub(t);
    u.exec();
    return;
}}
""",
    }
    return parts, []


def order_tp_use_before_init(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_open(x) {{
    var h = new Handle();
    return h;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var h = core.{n}_open(x);
    h.use();
    h.dispose();
    return;
}}
""",
    }
    return parts, [
        SeededBug("order", f"core.{n}_open", "tp", "order_use_before_init")
    ]


def order_tp_undisposed(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_open(x) {{
    var h = new Codec();
    return h;
}}
""",
        "svc": f"""
func {n}_setup(h) {{
    h.init();
    return h;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var h = core.{n}_open(x);
    var r = svc.{n}_setup(h);
    r.use();
    return;
}}
""",
    }
    return parts, [SeededBug("order", f"core.{n}_open", "tp", "order_undisposed")]


def order_fp_extern_recycle(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_open(x) {{
    var h = new Handle();
    return h;
}}
""",
        "svc": f"""
func {n}_setup(h) {{
    h.init();
    return h;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var h = core.{n}_open(x);
    var r = svc.{n}_setup(h);
    r.use();
    externRecycle(r);
    return;
}}
""",
    }
    return parts, [SeededBug("order", f"core.{n}_open", "fp", "order_fp_extern")]


def order_clean(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_open(x) {{
    var h = new Parser();
    return h;
}}
""",
        "svc": f"""
func {n}_setup(h) {{
    h.init();
    return h;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var h = core.{n}_open(x);
    var r = svc.{n}_setup(h);
    r.process();
    r.dispose();
    return;
}}
""",
    }
    return parts, []


def iterator_tp(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_cursor(x) {{
    var it = new Cursor();
    return it;
}}
""",
        "svc": f"""
func {n}_mutate(it) {{
    it.invalidate();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var it = core.{n}_cursor(x);
    it.next();
    svc.{n}_mutate(it);
    it.next();
    return;
}}
""",
    }
    return parts, [
        SeededBug("iterator", f"core.{n}_cursor", "tp", "iterator_invalidated")
    ]


def iterator_clean(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_cursor(x) {{
    var it = new Iterator();
    return it;
}}
""",
        "svc": f"""
func {n}_mutate(it) {{
    it.invalidate();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var it = core.{n}_cursor(x);
    it.next();
    svc.{n}_mutate(it);
    it.refresh();
    it.next();
    return;
}}
""",
    }
    return parts, []


def lockdep_tp_wait(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_make(x) {{
    var m = new Monitor();
    return m;
}}
""",
        "svc": f"""
func {n}_enter(m) {{
    m.acquire();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var m = core.{n}_make(x);
    svc.{n}_enter(m);
    m.wait();
    m.release();
    return;
}}
""",
    }
    return parts, [
        SeededBug("lockdep", f"core.{n}_make", "tp", "lockdep_wait_holding")
    ]


def lockdep_tp_held_at_exit(n: str, rng: random.Random):
    threshold = rng.randint(1, 9)
    parts = {
        "core": f"""
func {n}_make(x) {{
    var m = new Semaphore();
    return m;
}}
""",
        "svc": f"""
func {n}_enter(m) {{
    m.acquire();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var m = core.{n}_make(x);
    svc.{n}_enter(m);
    if (x > {threshold}) {{
        return;
    }}
    m.release();
    return;
}}
""",
    }
    return parts, [
        SeededBug("lockdep", f"core.{n}_make", "tp", "lockdep_held_at_exit")
    ]


def lockdep_fp_extern_unlock(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_make(x) {{
    var m = new Monitor();
    return m;
}}
""",
        "svc": f"""
func {n}_enter(m) {{
    m.acquire();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var m = core.{n}_make(x);
    svc.{n}_enter(m);
    externUnlock(m);
    return;
}}
""",
    }
    return parts, [
        SeededBug("lockdep", f"core.{n}_make", "fp", "lockdep_fp_extern")
    ]


def lockdep_clean(n: str, rng: random.Random):
    parts = {
        "core": f"""
func {n}_make(x) {{
    var m = new Monitor();
    return m;
}}
""",
        "svc": f"""
func {n}_enter(m) {{
    m.acquire();
    return;
}}
func {n}_leave(m) {{
    m.release();
    return;
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var m = core.{n}_make(x);
    svc.{n}_enter(m);
    svc.{n}_leave(m);
    return;
}}
""",
    }
    return parts, []


def clean_compute_pipeline(n: str, rng: random.Random):
    """Cross-module scalar padding: no tracked objects at all."""
    a, b = rng.randint(2, 7), rng.randint(1, 5)
    parts = {
        "core": f"""
func {n}_base(v) {{
    if (v > {a}) {{
        return v - {a};
    }}
    return v + {b};
}}
""",
        "svc": f"""
func {n}_scale(v) {{
    return core.{n}_base(v) * {b};
}}
""",
        "app": f"""
func {n}_entry(x) {{
    var v = svc.{n}_scale(x + {a});
    if (v > {a * b}) {{
        return v;
    }}
    return 0;
}}
""",
    }
    return parts, []


TP_PACK_PATTERNS = {
    "taint": [taint_tp],
    "order": [order_tp_use_before_init, order_tp_undisposed],
    "iterator": [iterator_tp],
    "lockdep": [lockdep_tp_wait, lockdep_tp_held_at_exit],
}

FP_PACK_PATTERNS = {
    "taint": [taint_fp],
    "order": [order_fp_extern_recycle],
    "lockdep": [lockdep_fp_extern_unlock],
}

CLEAN_PACK_PATTERNS = [
    taint_clean,
    order_clean,
    iterator_clean,
    lockdep_clean,
    clean_compute_pipeline,
]


def _seeded_pieces(profile: MultiFileProfile, rng: random.Random,
                   name_prefix: str, pad_to: int = 0):
    """The profile's seeded (and padding) pieces, shuffled, as
    ``(fragments-per-module, seeds)``."""
    pieces: list[tuple[dict, list[SeededBug]]] = []
    index = 0

    def next_name() -> str:
        nonlocal index
        index += 1
        return f"{name_prefix}_p{index}"

    for checker, (tp_count, fp_count) in sorted(profile.packs.items()):
        templates = TP_PACK_PATTERNS.get(checker, [])
        for i in range(tp_count):
            pieces.append(templates[i % len(templates)](next_name(), rng))
        fp_templates = FP_PACK_PATTERNS.get(checker, [])
        for i in range(fp_count):
            pieces.append(fp_templates[i % len(fp_templates)](next_name(), rng))

    def piece_loc(parts: dict) -> int:
        return sum(_loc(text) for text in parts.values())

    loc = sum(piece_loc(parts) for parts, _ in pieces)
    while loc < pad_to:
        template = rng.choice(CLEAN_PACK_PATTERNS)
        pieces.append(template(next_name(), rng))
        loc += piece_loc(pieces[-1][0])

    rng.shuffle(pieces)

    fragments: dict[str, list[str]] = {m: [] for m in MODULES}
    seeds: list[SeededBug] = []
    for parts, piece_seeds in pieces:
        for module, text in parts.items():
            fragments[module].append(text)
        seeds.extend(piece_seeds)
    return fragments, seeds


#: Deep-import-chain length inside each scaled cluster.
CLUSTER_CHAIN_DEPTH = 3


def _generate_cluster(profile: MultiFileProfile, k: int):
    """One independent module cluster of a scaled subject.

    Cluster ``k`` owns the namespaces ``g{k}core`` / ``g{k}svc`` /
    ``g{k}app`` plus a deep import chain (``g{k}mid0`` .. importing each
    other in sequence) and a re-export diamond (``g{k}left`` and
    ``g{k}right`` both single-symbol-importing the same core function,
    with the app converging on both).  Every cluster gets the profile's
    full pack set, retargeted by rewriting the templates' ``core.`` /
    ``svc.`` qualifiers -- so cluster warnings stay byte-predictable and
    clusters never share a name (or, downstream, a dependency stratum).
    """
    p = f"g{k}"
    rng = random.Random(profile.seed * 1000003 + k)
    fragments, seeds = _seeded_pieces(profile, rng, f"{profile.name}{k}")

    def retarget(text: str) -> str:
        return text.replace("core.", f"{p}core.").replace("svc.", f"{p}svc.")

    seeds = [replace(s, func=f"{p}{s.func}") for s in seeds]
    core_extra = (
        f"func {p}_depth(v) {{\n    return v + 1;\n}}\n"
        f"func {p}_shared(v) {{\n    return v * 2;\n}}\n"
    )
    sources = {
        f"{p}core.mini": f"module {p}core;\n"
        + "".join(retarget(t) for t in fragments["core"]) + core_extra,
        f"{p}svc.mini": f"module {p}svc;\nimport {p}core;\n"
        + "".join(retarget(t) for t in fragments["svc"]),
    }
    prev_mod, prev_func = f"{p}core", f"{p}_depth"
    for j in range(CLUSTER_CHAIN_DEPTH):
        mod, fn = f"{p}mid{j}", f"{p}_hop{j}"
        sources[f"{mod}.mini"] = (
            f"module {mod};\nimport {prev_mod};\n"
            f"func {fn}(v) {{\n    return {prev_mod}.{prev_func}(v);\n}}\n"
        )
        prev_mod, prev_func = mod, fn
    for side, bump in (("left", 1), ("right", 2)):
        sources[f"{p}{side}.mini"] = (
            f"module {p}{side};\nimport {p}core.{p}_shared;\n"
            f"func {p}_{side[0]}wrap(v) {{\n"
            f"    return {p}_shared(v + {bump});\n}}\n"
        )
    app_extra = (
        f"func {p}_chain_entry(x) {{\n"
        f"    return {prev_mod}.{prev_func}(x);\n}}\n"
        f"func {p}_diamond(x) {{\n"
        f"    var l = {p}left.{p}_lwrap(x);\n"
        f"    var r = {p}right.{p}_rwrap(x);\n"
        f"    return l + r;\n}}\n"
    )
    sources[f"{p}app.mini"] = (
        f"module {p}app;\nimport {p}core;\nimport {p}svc;\n"
        f"import {prev_mod};\nimport {p}left;\nimport {p}right;\n"
        + "".join(retarget(t) for t in fragments["app"]) + app_extra
    )
    return sources, seeds


def generate_multifile_subject(profile: MultiFileProfile,
                               scale: float = 1.0) -> MultiFileSubject:
    """Deterministically generate a multi-file subject from a profile.

    ``scale <= 1`` (the default) emits the canonical three-file subject,
    byte-identical to what every committed golden was built from.
    ``scale > 1`` emits ``round(scale)`` *independent clusters* of
    ``3 + CLUSTER_CHAIN_DEPTH + 2`` modules each (see
    :func:`_generate_cluster`) -- tens of modules at modest scales,
    with deep import chains and re-export diamonds, sized for the
    incremental daemon where an edit must stay confined to one cluster's
    dependency stratum.
    """
    if scale <= 1:
        rng = random.Random(profile.seed)
        fragments, seeds = _seeded_pieces(
            profile, rng, profile.name, pad_to=profile.target_loc
        )
        sources = {
            "core.mini": "module core;\n" + "".join(fragments["core"]),
            "svc.mini": "module svc;\nimport core;\n"
            + "".join(fragments["svc"]),
            "app.mini": "import core;\nimport svc;\n"
            + "".join(fragments["app"]),
        }
    else:
        sources = {}
        seeds = []
        for k in range(max(2, int(round(scale)))):
            cluster_sources, cluster_seeds = _generate_cluster(profile, k)
            sources.update(cluster_sources)
            seeds.extend(cluster_seeds)
    return MultiFileSubject(
        name=profile.name,
        sources=sources,
        seeds=seeds,
        loc=sum(_loc(text) for text in sources.values()),
    )


def _loc(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())


MULTIFILE_PROFILES: dict[str, MultiFileProfile] = {
    "gateway": MultiFileProfile(
        name="gateway",
        description="request gateway: taint, handle and lock discipline"
        " bugs seeded across core/svc/app modules",
        target_loc=420,
        packs={
            "taint": (2, 1),
            "order": (2, 1),
            "iterator": (2, 0),
            "lockdep": (2, 1),
        },
        seed=55,
    ),
}


def build_multifile_subject(name: str, scale: float = 1.0) -> MultiFileSubject:
    """Generate one of the named multi-file subjects (``gateway``)."""
    try:
        profile = MULTIFILE_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown multi-file subject {name!r};"
            f" available: {sorted(MULTIFILE_PROFILES)}"
        ) from None
    return generate_multifile_subject(profile, scale=scale)


def pack_accounting(name: str = "gateway", reduce: bool = True,
                    sources=None) -> dict:
    """Run the property packs over one subject; exact TP/FP accounting.

    The returned document is the CI golden: per-checker TP/FP/missed
    counts plus the scope-resolution counters, all deterministic.
    ``sources`` overrides the generated file set (same content, any
    order/shape) -- the accounting must not change.
    """
    from repro.analysis.pipeline import Grapple, GrappleOptions
    from repro.checkers.checker import pack_checkers
    from repro.workloads.bugs import classify_report

    subject = build_multifile_subject(name)
    run = Grapple(
        sources if sources is not None else subject.sources,
        [c.fsm for c in pack_checkers()], GrappleOptions(reduce=reduce)
    ).run()
    outcome = classify_report(subject.seeds, run.report)
    checkers = sorted({seed.checker for seed in subject.seeds})
    return {
        "schema": "grapple/property-pack-accounting",
        "version": 1,
        "subject": name,
        "loc": subject.loc,
        "files": sorted(subject.sources),
        "seeded": len(subject.seeds),
        "warnings": len(run.report),
        "by_checker": {
            checker: {
                "tp": outcome.tp.get(checker, 0),
                "fp": outcome.fp.get(checker, 0),
                "missed": outcome.missed.get(checker, 0),
            }
            for checker in checkers
        },
        "unexpected": sorted(w.describe() for w in outcome.unexpected),
        "scopes": run.compiled.resolution.stats.as_dict(),
    }


def _main(argv=None) -> int:
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.multifile",
        description="generate or check the multi-file pack subjects",
    )
    parser.add_argument("--subject", default="gateway",
                        choices=sorted(MULTIFILE_PROFILES))
    parser.add_argument("--report", action="store_true",
                        help="run the property packs and print the exact"
                        " TP/FP accounting as JSON")
    parser.add_argument("--no-reduce", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale > 1 emits round(scale) independent"
                        " module clusters instead of the canonical"
                        " three files (--report always uses scale 1)")
    args = parser.parse_args(argv)
    if args.report:
        doc = pack_accounting(args.subject, reduce=not args.no_reduce)
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    subject = build_multifile_subject(args.subject, scale=args.scale)
    for path in sorted(subject.sources):
        sys.stdout.write(f"// ---- {path} ----\n{subject.sources[path]}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
