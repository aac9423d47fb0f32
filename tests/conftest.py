import pytest

from permcirc.feasible import involution_action


@pytest.fixture
def fresh_actions():
    """An empty `involution_action` cache, emptied again afterwards, so
    that a test that sets `GATE_BLOCK` builds its actions at that block
    and leaves none built there to later tests."""
    involution_action.cache_clear()
    yield
    involution_action.cache_clear()
