import gc

import pytest


@pytest.fixture()
def collector_state():
    """Whatever a test does to the cycle collector -- on/off, debug
    flags, ``gc.freeze()`` -- the next test does not see."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.unfreeze()
        (gc.enable if enabled else gc.disable)()
