"""API-ordering property pack: init-before-use and iterator invalidation.

Two FSMs over typestate-style API protocols:

* :func:`order_checker` -- a ``Handle``/``Codec``/``Parser`` object must
  see ``init`` before any ``use``/``process`` call, must not be
  re-initialised, and must be ``dispose``d before program exit.
* :func:`iterator_checker` -- an ``Iterator``/``Cursor`` yields elements
  via ``next`` only while valid; mutating the underlying collection
  (``invalidate``, i.e. the collection's ``add``/``remove`` modelled as
  a method on the iterator object) makes further ``next`` calls an
  error until ``refresh`` re-establishes validity.

Both protocols are classic cross-file bugs: construction happens in a
factory module, initialisation in a setup helper, and use at a distant
call site, so checking them exercises the cross-file resolved
interprocedural paths.
"""

from repro.checkers.fsm import FSM, make_fsm

ORDER_TYPES = ("Handle", "Codec", "Parser")
ITERATOR_TYPES = ("Iterator", "Cursor")

#: Events that require a completed ``init`` first.
USE_EVENTS = ("use", "process")


def order_checker() -> FSM:
    """The init-before-use FSM (use of an uninitialised handle)."""
    transitions = {
        ("Created", "init"): "Ready",
        ("Ready", "init"): "Error",  # double init
        ("Ready", "dispose"): "Disposed",
        ("Created", "dispose"): "Disposed",  # never initialised: fine
        ("Disposed", "dispose"): "Error",  # double dispose
    }
    for use in USE_EVENTS:
        transitions[("Created", use)] = "Error"  # use before init
        transitions[("Ready", use)] = "Ready"
        transitions[("Disposed", use)] = "Error"  # use after dispose
    return make_fsm(
        name="order",
        types=ORDER_TYPES,
        initial="Created",
        transitions=transitions,
        accepting={"Disposed", "Created"},
        error_states={"Error"},
    )


def iterator_checker() -> FSM:
    """The iterator-invalidation FSM (next after concurrent mutation)."""
    return make_fsm(
        name="iterator",
        types=ITERATOR_TYPES,
        initial="Valid",
        transitions={
            ("Valid", "next"): "Valid",
            ("Valid", "invalidate"): "Invalid",
            ("Invalid", "invalidate"): "Invalid",
            ("Invalid", "next"): "Error",  # iteration after invalidation
            ("Invalid", "refresh"): "Valid",
            ("Valid", "refresh"): "Valid",
        },
        accepting={"Valid", "Invalid"},
        error_states={"Error"},
    )
