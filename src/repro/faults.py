"""Deterministic fault injection for the disk engine.

Grapple's durability claims (atomic partition writes, pair retry,
checkpoint/resume) are only worth anything if they are exercised; this
module injects the failures those mechanisms exist to survive, at
*deterministic* points, so every recovery path has a repeatable test.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
naming an injection *site* (a well-known string the engine passes to
:meth:`FaultPlan.fire` at the instrumented operation), a *mode* (what to
break), and *nth* (fire on the nth operation at that site).  Specs parse
from a compact string so they can ride the CLI::

    --fault-plan "short_write@partition-write:2,kill_run@checkpoint:5"

Sites and their legal modes:

``partition-write``  (:meth:`PartitionStore._save`)
    ``short_write``  -- write a truncated prefix of the payload directly
    to the destination path, bypassing the temp-file/rename protocol
    (the torn write the atomic protocol exists to prevent);
    ``torn_rename``  -- write and fsync the temp file but skip the
    ``os.replace`` (a crash between write and rename: the previous
    durable version survives untouched).

``checkpoint``  (:meth:`GraphEngine._write_checkpoint`, after the
manifest is durable)
    ``kill_run``  -- SIGKILL the whole process; a later ``--resume``
    must restart from this manifest.

Every spec fires **at most once per run**, enforced by a latch file in
the engine workdir created with ``O_EXCL`` -- so a resumed run (a fresh
process whose counters restarted) does not re-trip the faults that
crashed it.  Every site is on the engine's own thread (no instrumented
write happens anywhere else), so the per-site counters need no lock.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

SITES = {
    "partition-write": ("short_write", "torn_rename"),
    "checkpoint": ("kill_run",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: fire ``mode`` on the ``nth`` op at ``site``."""

    mode: str
    site: str
    nth: int


class FaultPlanError(ValueError):
    """A fault-plan spec string is malformed."""


class FaultPlan:
    """Deterministic, once-per-run fault injectors for the engine."""

    def __init__(self, specs: list[FaultSpec]):
        self.specs = list(specs)
        self._counts: dict[str, int] = {}
        self._latch_dir: str | None = None
        self._fired: set[int] = set()  # in-memory latch when no dir

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``"mode@site:nth,..."`` into a plan."""
        specs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                mode, rest = item.split("@", 1)
                site, nth = rest.split(":", 1)
                spec = FaultSpec(mode.strip(), site.strip(), int(nth))
            except ValueError:
                raise FaultPlanError(
                    f"bad fault spec {item!r} (want mode@site:nth)"
                ) from None
            if spec.site not in SITES:
                raise FaultPlanError(
                    f"unknown fault site {spec.site!r}"
                    f" (known: {', '.join(sorted(SITES))})"
                )
            if spec.mode not in SITES[spec.site]:
                raise FaultPlanError(
                    f"mode {spec.mode!r} not valid at site {spec.site!r}"
                    f" (valid: {', '.join(SITES[spec.site])})"
                )
            if spec.nth < 1:
                raise FaultPlanError(f"nth must be >= 1 in {item!r}")
            specs.append(spec)
        return cls(specs)

    def arm(self, latch_dir: str, reset: bool = False) -> None:
        """Bind the once-per-run latches to ``latch_dir``.

        The first call wins (the pipeline's two phases share one plan and
        one latch directory, so a fault fires once across the whole run).
        ``reset`` clears stale latch files -- a *fresh* run in a reused
        workdir starts with every fault re-armed, while ``--resume``
        keeps them tripped.
        """
        if self._latch_dir is not None:
            return
        os.makedirs(latch_dir, exist_ok=True)
        self._latch_dir = latch_dir
        if reset:
            for k in range(len(self.specs)):
                try:
                    os.remove(self._latch_path(k))
                except FileNotFoundError:
                    pass

    def _latch_path(self, k: int) -> str:
        return os.path.join(self._latch_dir, f"fault-{k:02d}.fired")

    def _acquire(self, k: int) -> bool:
        """Latch spec ``k``; True exactly once per run (resumes included)."""
        if self._latch_dir is None:
            if k in self._fired:
                return False
            self._fired.add(k)
            return True
        try:
            fd = os.open(self._latch_path(k), os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    # -- firing ---------------------------------------------------------------

    def fire(self, site: str) -> FaultSpec | None:
        """Count one operation at ``site``; the spec to apply, or None."""
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        for k, spec in enumerate(self.specs):
            if spec.site != site or spec.nth != count:
                continue
            if self._acquire(k):
                return spec
        return None

    # -- mode implementations --------------------------------------------------

    @staticmethod
    def kill_self() -> None:
        """SIGKILL the current process (``kill_run``)."""
        os.kill(os.getpid(), signal.SIGKILL)


class _NullPlan:
    """No-fault default: ``fire`` never triggers, costs one comparison."""

    specs: tuple = ()

    def fire(self, site: str):
        return None

    def arm(self, latch_dir: str, reset: bool = False) -> None:
        return None


NULL_PLAN = _NullPlan()


def resolve_plan(plan) -> "FaultPlan | _NullPlan":
    """Normalise an ``EngineOptions.fault_plan`` value: None, a spec
    string, or an already-built plan."""
    if plan is None:
        return NULL_PLAN
    if isinstance(plan, str):
        return FaultPlan.parse(plan)
    return plan
