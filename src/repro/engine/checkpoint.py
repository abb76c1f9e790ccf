"""Checkpoint manifests: resumable closure runs (DESIGN.md §11).

After every processed pair the engine flushes the store and writes a
small JSON manifest beside the partition files.  The manifest is
everything the closure needs to restart from that point -- partition
descriptors and versions, the scheduler's processed-pair frontier, a
scalar snapshot of :class:`~repro.engine.stats.EngineStats`, the full
label table, and how many encodings the workdir's encoding log held --
it is RNG-free by design: the engine derives everything else (caches,
join indexes) deterministically from the partition files.

Partition files and delta frames hold encoding *ids*; the table that
defines them is the append-only ``encodings.bin`` beside them.  Write
order is log frame (fsynced) -> partition file or delta frame ->
manifest, so a manifest never counts an encoding, and no file holds an
id, that is not durable.
``--resume`` replays the log into the fresh table before anything else
interns (ids are dense and append-only, so they land where the
interrupted run put them) and refuses a log that is shorter than the
manifest's count or damaged in the middle.

``--resume`` re-runs the front end (deterministic), then validates the
manifest before adopting it:

* a **config digest** over the correctness-relevant engine options must
  match -- resuming a run under different closure semantics would
  silently compute a different fixpoint;
* the **label table** is re-interned in manifest order and every id must
  land where the original run put it (edge rows reference label ids);
* a sampled **vertex digest** must match (vertex ids are positional).

Partition descriptors record each delta file's size at checkpoint time.
Frames appended after the manifest was written (but before the crash)
would otherwise be invisible to the restored scheduler frontier, so a
size mismatch bumps the partition's version -- every pair touching it
becomes eligible again and the extra edges are folded and reprocessed.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.engine import serialize
from repro.engine.partition import MIN_PARTITIONS, Partition

#: Manifest file name inside the engine's (phase) workdir.
MANIFEST = "checkpoint.json"
#: 3: partition files *and* delta frames hold encoding ids (``"encodings"``
#: counts the log).  An older workdir's files hold tuples somewhere (a
#: format-2 delta file, a format-1 partition file); it restarts fresh.
#: 4: the points-to grammar derives ``storeBar``/``fs``/``fsBar`` instead
#: of ``flowsToBar``/``alias``; a format-3 alias phase holds no
#: ``storeBar`` edge (those are derived only from the input graph), so
#: resuming it would lose heap flows.
FORMAT = 4

#: EngineOptions fields that change *what* the closure computes (not how
#: fast); a resume under a different value of any of these is refused.
CONFIG_FIELDS = ("memory_budget", "witness_cap", "path_sensitive")


class CheckpointMismatch(RuntimeError):
    """A manifest does not match the run trying to resume from it."""


def config_digest(engine) -> str:
    """Digest of what decides ``engine``'s fixpoint.  The payload keeps
    the keys of three former options (now a constant and two engine
    class attributes), so an interval run digests as it always has and
    an older build's workdir still resumes."""
    payload = {name: getattr(engine.options, name) for name in CONFIG_FIELDS}
    payload["min_partitions"] = MIN_PARTITIONS
    payload["constraint_mode"] = engine.constraint_mode
    payload["max_string_bytes"] = engine.max_string_bytes
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def vertex_digest(vertices) -> str:
    """Sampled digest of the vertex table (ids are positional, so a
    handful of spot checks catches any renumbering)."""
    n = len(vertices)
    h = hashlib.sha256(str(n).encode())
    step = max(1, n // 64)
    for i in range(0, n, step):
        h.update(b"\x00")
        h.update(repr(vertices.lookup(i)).encode())
    return h.hexdigest()


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _untuple(value):
    if isinstance(value, list):
        return tuple(_untuple(v) for v in value)
    return value


def manifest_path(workdir: str) -> str:
    return os.path.join(workdir, MANIFEST)


def write_manifest(workdir: str, *, phase: str, config: str, store,
                   last_seen: dict, stats, graph, complete: bool) -> dict:
    """Atomically write the checkpoint manifest for one engine run."""
    parts = []
    for part in store.partitions:
        delta_size = None
        try:
            delta_size = os.path.getsize(part.delta_path)
        except OSError:
            pass
        parts.append({
            "index": part.index,
            "lo": part.lo,
            "hi": part.hi,
            "path": os.path.basename(part.path),
            "delta_path": os.path.basename(part.delta_path),
            "edge_count": part.edge_count,
            "byte_estimate": part.byte_estimate,
            "version": part.version,
            "delta_size": delta_size,
        })
    scalars = {}
    for name, value in stats.__dict__.items():
        if name.startswith("_"):
            continue
        if isinstance(value, (int, float, bool)):
            scalars[name] = value
    labels = graph.labels
    manifest = {
        "format": FORMAT,
        "phase": phase,
        "complete": bool(complete),
        "config": config,
        "vertices": vertex_digest(graph.vertices),
        "next_file": store._next_file,
        "encodings": store.encodings_logged,
        "partitions": parts,
        "last_seen": [
            [pair[0], pair[1], seen[0], seen[1]]
            for pair, seen in sorted(last_seen.items())
        ],
        "stats": scalars,
        "labels": [_jsonable(label) for _i, label in labels.items()],
    }
    path = manifest_path(workdir)
    data = json.dumps(manifest, indent=1).encode()
    serialize.atomic_write_bytes(path, data)
    return manifest


def _prunable(name: str) -> bool:
    """Whether a workdir entry is engine-owned garbage when unreferenced:
    partition/delta files (with atomic-write temps) and manifest temps.
    Anything else in the directory is not ours to delete."""
    base = name[:-4] if name.endswith(".tmp") else name
    if base == MANIFEST:
        return name != MANIFEST  # only the temp, never the manifest
    return (
        (base.startswith("part_") or base.startswith("delta_"))
        and base.endswith(".bin")
    )


def prune_workdir(workdir: str, manifest: dict) -> int:
    """Delete superseded partition/delta files the manifest no longer
    references (folded delta logs, torn-write temps, files orphaned by
    repartitioning).  Returns the number of files removed.

    Crash-safe by construction: only files *outside* the manifest's
    reference set are candidates, and the manifest itself is never
    touched, so a kill after any prefix of the deletions leaves the
    checkpointed state fully resumable -- the survivors are exactly the
    referenced files plus some garbage the next prune removes.
    """
    referenced = {MANIFEST}
    for desc in manifest.get("partitions", ()):
        referenced.add(desc["path"])
        referenced.add(desc["delta_path"])
    try:
        names = os.listdir(workdir)
    except OSError:
        return 0
    pruned = 0
    for name in sorted(names):
        if name in referenced or not _prunable(name):
            continue
        try:
            os.remove(os.path.join(workdir, name))
        except OSError:
            continue
        pruned += 1
    return pruned


def read_manifest(workdir: str) -> tuple[dict | None, str]:
    """``(manifest, "")``, or ``(None, reason)`` when ``workdir`` holds
    nothing a run can resume from: ``none`` (an interrupted first
    checkpoint is indistinguishable from a fresh run, and the atomic
    write makes a *torn* manifest impossible), ``unreadable``, or
    ``format N != FORMAT`` (another build's workdir is never
    half-adopted: its partition files are another layout)."""
    path = manifest_path(workdir)
    if not os.path.exists(path):
        return None, "none"
    manifest = serialize.read_json_object(path)
    if manifest is None:
        return None, "unreadable"
    if manifest.get("format") != FORMAT:
        return None, f"format {manifest.get('format')} != {FORMAT}"
    return manifest, ""


def load_manifest(workdir: str) -> dict | None:
    """The usable manifest in ``workdir``, or None."""
    return read_manifest(workdir)[0]


def validate(manifest: dict, digest: str, graph) -> None:
    """Refuse a resume whose run would not continue the original one
    (``digest`` is the resuming engine's :func:`config_digest`)."""
    if manifest["config"] != digest:
        raise CheckpointMismatch(
            "checkpoint was written under different engine options"
            f" (config digest {manifest['config'][:12]} != {digest[:12]});"
            " re-run without --resume"
        )
    if manifest["vertices"] != vertex_digest(graph.vertices):
        raise CheckpointMismatch(
            "vertex table does not match the checkpoint (the subject or"
            " front-end options changed); re-run without --resume"
        )
    labels = graph.labels
    for want_id, stored in enumerate(manifest["labels"]):
        got_id = labels.intern(_untuple(stored))
        if got_id != want_id:
            raise CheckpointMismatch(
                f"label table diverged at id {want_id}"
                f" ({_untuple(stored)!r} interned as {got_id});"
                " re-run without --resume"
            )


def restore_encodings(manifest: dict, store) -> None:
    """Rebuild the store's encoding table from the workdir's log; must
    run before anything interns into it.  The log may be longer than the
    manifest's count (partition files evicted after the checkpoint
    reference the tail), never shorter."""
    corrupt = store.replay_encodings()
    have, want = len(store.table), manifest["encodings"]
    if corrupt:
        problem = f"encoding log has {corrupt} corrupt frame(s)"
    elif have < want:
        problem = f"encoding log holds {have} < {want} encodings"
    else:
        return
    raise CheckpointMismatch(f"{problem}; re-run without --resume")


def restore_store(manifest: dict, store) -> None:
    """Adopt the manifest's partition layout into a fresh store.

    A partition whose delta file's current size differs from the
    checkpointed size gained (or lost) frames the manifest never saw:
    its version is bumped so the scheduler reprocesses its pairs.
    """
    store.partitions = []
    for desc in manifest["partitions"]:
        part = Partition(
            index=desc["index"],
            lo=desc["lo"],
            hi=desc["hi"],
            path=os.path.join(store.workdir, desc["path"]),
            delta_path=os.path.join(store.workdir, desc["delta_path"]),
            edge_count=desc["edge_count"],
            byte_estimate=desc["byte_estimate"],
            version=desc["version"],
        )
        delta_size = None
        try:
            delta_size = os.path.getsize(part.delta_path)
        except OSError:
            pass
        if delta_size != desc["delta_size"]:
            part.version += 1
        store.partitions.append(part)
    store.partitions.sort(key=lambda p: p.index)
    store._next_file = manifest["next_file"]
    store._bounds_stale = True


def restore_stats(manifest: dict, stats) -> None:
    for name, value in manifest["stats"].items():
        if hasattr(stats, name):
            setattr(stats, name, value)


def restored_last_seen(manifest: dict) -> dict:
    return {
        (i, j): (vi, vj) for i, j, vi, vj in manifest["last_seen"]
    }
