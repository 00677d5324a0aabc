import pytest

from fibgf.poset import frontier_poset


@pytest.fixture(scope="session")
def poset13():
    """The triangle poset, P_{2,3}, to rank 13, shared across poset tests."""
    return frontier_poset(2, 3, 13)
