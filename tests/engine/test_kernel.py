"""Tests for the batched closure kernel (``engine/kernel.py``).

The kernel must be *invisible*: same edges in the same order, same
counter totals, same memo contents as the scalar drain, on both the
numpy and the pure-stdlib backend.  The differential fuzz tests here
drive randomly generated graphs through all three configurations and
compare everything observable; the unit tests pin backend selection
(the canonical-form key has its own tests in ``tests/cfet``).
"""

import random

import pytest

from repro.cfet import encoding as enc
from repro.cfet.icfet import build_icfet
from repro.engine import computation as computation_mod
from repro.engine import kernel as kernel_mod
from repro.engine.computation import EngineOptions, GraphEngine
from repro.graph.model import ProgramGraph
from repro.lang.parser import parse_program
from repro.lang.transform import lower_exceptions, normalize_calls, unroll_loops

from .test_computation import SOURCE, ChainGrammar, build_chain


@pytest.fixture()
def icfet():
    program = parse_program(SOURCE)
    normalize_calls(program)
    unroll_loops(program)
    lower_exceptions(program)
    return build_icfet(program)


BACKENDS = ["off", "stdlib"] + (["numpy"] if kernel_mod._np is not None else [])

#: Deterministic counters that must agree between the scalar drain and
#: every kernel backend (timing fields and the kernel's own batch
#: bookkeeping are excluded; prefetch hits depend on I/O timing).
PARITY_FIELDS = (
    "new_edges", "edges_after", "compositions_tried", "constraint_queries",
    "cache_hits", "constraints_solved", "infeasible_dropped",
    "feasibility_groups", "group_hits", "join_batches", "join_probes",
    "encoding_overflow_dropped", "iterations", "pairs_processed",
)


# -- unit: backend selection ---------------------------------------------------


def test_resolve_backend_off_is_none():
    assert kernel_mod.resolve_backend("off") is None


def test_resolve_backend_stdlib():
    assert kernel_mod.resolve_backend("stdlib") == "stdlib"


def test_resolve_backend_auto_prefers_numpy_when_available():
    expected = "numpy" if kernel_mod._np is not None else "stdlib"
    assert kernel_mod.resolve_backend("auto") == expected


def test_resolve_backend_numpy_without_library_raises(monkeypatch):
    monkeypatch.setattr(kernel_mod, "_np", None)
    assert kernel_mod.resolve_backend("auto") == "stdlib"
    with pytest.raises(RuntimeError):
        kernel_mod.resolve_backend("numpy")


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError):
        kernel_mod.resolve_backend("cuda")


# -- differential fuzz ---------------------------------------------------------


#: Ancestor pairs in the fixture program's ``main`` CFET -- intervals
#: must run root-to-descendant, and mixing branches (node 1 is ``x <= 0``,
#: node 2 is ``x > 0``) gives genuinely UNSAT merges.
_INTERVALS = ((0, 1), (0, 2), (0, 5), (0, 6), (2, 5), (2, 6))


def _random_graph(seed: int, icfet):
    """A random DAG over ~14 vertices with interval path constraints.

    Edges only go forward (i < j), so the chain closure terminates; the
    interval encodings are drawn from the fixture program's ``main`` so
    merges exercise real feasibility checks (including UNSAT pairs).
    """
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    graph = ProgramGraph()
    for i in range(n):
        graph.vertices.intern(("v", i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                if rng.random() < 0.5:
                    encoding = enc.single("main", rng.randint(0, 3))
                else:
                    lo, hi = rng.choice(_INTERVALS)
                    encoding = (enc.interval("main", lo, hi),)
                graph.add_edge(i, j, ("a",), encoding)
    return graph


def _holes(shape) -> int:
    """Variable occurrences in a literal shape (a variable is blanked to
    its sort, a bare string in operand position)."""
    if isinstance(shape, str):
        return 1
    return sum(_holes(arg) for arg in shape[1:] if isinstance(arg, (str, tuple)))


def _form_memo_by_shape(engine) -> dict:
    """The form memo with each key's shape ids spelled out: ids are
    handed out in first-seen order, which a batched schedule may permute;
    the shapes and the variable numbering are what must agree."""
    shapes = {sid: shape for shape, sid in engine._pieces.shapes.items()}
    out = {}
    for key, verdict in engine._form_memo.items():
        spelled, i = [], 0
        while i < len(key):
            if key[i] < 0:  # FALSE / next-encoding marker
                spelled.append(key[i])
                i += 1
                continue
            shape = shapes[key[i]]
            width = 1 + _holes(shape)
            spelled.append((shape, key[i + 1:i + width]))
            i += width
        out[tuple(spelled)] = verdict
    assert len(out) == len(engine._form_memo)
    return out


def _run_config(graph_seed, icfet, kernel, **opts):
    return _observe(*_run_engine(graph_seed, icfet, kernel, **opts))


def _run_engine(graph_seed, icfet, kernel, **opts):
    graph = _random_graph(graph_seed, icfet)
    options = EngineOptions(memory_budget=1 << 20, kernel=kernel, **opts)
    engine = GraphEngine(icfet, ChainGrammar(), options)
    return engine, engine.run(graph)


def _observe(engine, result):
    edges = sorted(
        (s, d, tuple(l), tuple(tuple(e) for e in encs))
        for s, d, l, encs in result.iter_edges()
    )
    counters = {f: getattr(result.stats, f) for f in PARITY_FIELDS}
    memos = {
        "feasible_memo": len(engine._feasible_memo),
        "form_memo": _form_memo_by_shape(engine),
        "lru_keys": set(engine.cache._data),
        "merge_memo": dict(engine._merge_memo),
    }
    return edges, counters, memos


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_backends_match_scalar(icfet, seed):
    base_edges, base_counters, base_memos = _run_config(seed, icfet, "off")
    assert base_edges, "fuzz graph produced no edges"
    for backend in BACKENDS[1:]:
        edges, counters, memos = _run_config(seed, icfet, backend)
        assert edges == base_edges, f"{backend}: edge sets diverge"
        assert counters == base_counters, f"{backend}: counters diverge"
        assert memos == base_memos, f"{backend}: memo state diverges"


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_presolve_path_matches_scalar(icfet, seed, monkeypatch):
    """Force every chunk through grouped pre-solving (the production
    cutoff leaves small chunks to the lazy path) and require the same
    parity as the default configuration."""
    base = _run_config(seed, icfet, "off")
    monkeypatch.setattr(kernel_mod, "PRESOLVE_MIN", 1)
    for backend in BACKENDS[1:]:
        edges, counters, memos = _run_config(seed, icfet, backend)
        assert edges == base[0], f"{backend}: edge sets diverge"
        assert counters == base[1], f"{backend}: counters diverge"
        assert memos == base[2], f"{backend}: memo state diverges"


@pytest.mark.parametrize("seed", range(3))
def test_full_decode_caches_change_nothing(icfet, seed, monkeypatch):
    """DECODE_CACHE_CAP bounds the decode memo and the form-key piece
    table; once full they stop accepting writes, which may cost
    recomputation but no verdict, counter or memo entry."""
    monkeypatch.setattr(kernel_mod, "PRESOLVE_MIN", 1)
    for backend in BACKENDS:
        base = _run_config(seed, icfet, backend)
        with monkeypatch.context() as patch:
            patch.setattr(computation_mod, "DECODE_CACHE_CAP", 2)
            engine, result = _run_engine(seed, icfet, backend)
        assert len(engine._pieces.pieces) == 2
        assert len(engine._decode_cache) == 2
        assert result.stats.constraints_decoded > 2
        assert _observe(engine, result) == base, backend


@pytest.mark.parametrize("batch_size", [1, 3, 2048])
def test_fuzz_batch_size_invariant(icfet, batch_size):
    base_edges, base_counters, _ = _run_config(11, icfet, "off")
    edges, counters, _ = _run_config(
        11, icfet, "stdlib", batch_size=batch_size
    )
    assert edges == base_edges
    assert counters == base_counters


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_fuzz_small_budget_forces_partition_traffic(icfet, backend):
    """Parity must survive spills, splits, and multi-partition joins."""
    graph = build_chain(60, icfet)
    options = EngineOptions(memory_budget=6 << 10, kernel="off")
    base = GraphEngine(icfet, ChainGrammar(), options).run(graph)
    graph2 = build_chain(60, icfet)
    options2 = EngineOptions(memory_budget=6 << 10, kernel=backend)
    got = GraphEngine(icfet, ChainGrammar(), options2).run(graph2)
    assert sorted(base.iter_edges()) == sorted(got.iter_edges())
    for field in PARITY_FIELDS:
        assert getattr(base.stats, field) == getattr(got.stats, field), field


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_witness_cap_order_preserved(icfet, backend):
    """The witness cap makes insert order observable; the kernel must
    keep the scalar order exactly."""
    def build():
        graph = ProgramGraph()
        for i in range(4):
            graph.vertices.intern(("v", i))
        graph.add_edge(0, 1, ("a",), enc.single("main", 0))
        graph.add_edge(1, 3, ("a",), enc.single("main", 1))
        graph.add_edge(0, 2, ("a",), enc.single("main", 0))
        graph.add_edge(2, 3, ("a",), enc.single("main", 2))
        return graph

    runs = []
    for kernel in ("off", backend):
        options = EngineOptions(
            memory_budget=1 << 20, kernel=kernel, witness_cap=1
        )
        result = GraphEngine(icfet, ChainGrammar(), options).run(build())
        runs.append(sorted(result.iter_edges()))
    assert runs[0] == runs[1]


def test_kernel_batches_counted(icfet):
    graph = build_chain(8, icfet)
    options = EngineOptions(memory_budget=1 << 20, kernel="stdlib")
    engine = GraphEngine(icfet, ChainGrammar(), options)
    result = engine.run(graph)
    assert result.stats.kernel_batches > 0
    assert result.stats.batch_fill >= result.stats.kernel_batches
    # Scalar drain reports no kernel activity.
    graph2 = build_chain(8, icfet)
    off = GraphEngine(
        icfet, ChainGrammar(), EngineOptions(memory_budget=1 << 20, kernel="off")
    ).run(graph2)
    assert off.stats.kernel_batches == 0
    assert off.stats.batch_fill == 0


def test_lru_peek_does_not_disturb_state():
    from repro.engine.cache import LRUCache

    cache = LRUCache(2)
    cache.put(("a",), True)
    cache.put(("b",), False)
    assert cache.peek(("a",)) is True
    assert cache.peek(("missing",)) is None
    assert cache.hits == 0 and cache.misses == 0
    # peek must not refresh recency: "a" is still the eviction victim.
    cache.put(("c",), True)
    assert ("a",) not in cache
    assert ("b",) in cache
