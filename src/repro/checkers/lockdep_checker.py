"""Lock-discipline property pack: acquire/release pairing plus
no-wait-while-holding.

Stricter than the paper's basic :mod:`repro.checkers.lock_checker`: a
``Monitor``/``Semaphore`` object must pair every ``acquire`` with a
``release`` (release-unheld and double-acquire are error transitions,
held-at-exit is an at-exit violation), and calling ``wait`` -- a
blocking operation -- while the lock is held is its own error state
(the no-wait-while-holding discipline; waiting with a lock held is a
classic distributed-system stall, cf. the paper's ZooKeeper deadlock
study).  ``wait`` while *not* holding is fine.

The discipline is interprocedural by nature: acquire in one module's
guard helper, blocking call in another -- the cross-file resolved call
paths are what make the pairing checkable across files.
"""

from repro.checkers.fsm import FSM, make_fsm

LOCKDEP_TYPES = ("Monitor", "Semaphore")


def lockdep_checker() -> FSM:
    """The lock-discipline FSM (pairing + no-wait-while-holding)."""
    return make_fsm(
        name="lockdep",
        types=LOCKDEP_TYPES,
        initial="Released",
        transitions={
            ("Released", "acquire"): "Held",
            ("Held", "release"): "Released",
            ("Released", "release"): "ReleaseUnheld",  # release before acquire
            ("Held", "acquire"): "DoubleAcquire",  # non-reentrant
            ("Held", "wait"): "WaitWhileHolding",  # blocking with lock held
            ("Released", "wait"): "Released",
        },
        accepting={"Released"},
        error_states={"ReleaseUnheld", "DoubleAcquire", "WaitWhileHolding"},
    )
