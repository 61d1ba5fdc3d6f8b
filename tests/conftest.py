import pytest

from maf import groups


@pytest.fixture
def fresh_groups():
    """An empty closure memo, emptied again after the test.

    A subgroup reads its normal form and word closure from the memo, and a closure keeps
    its character tables and product index, all by their inputs, not by what a test patches
    into the code that builds them or counts.  Only subgroups made after the clear get
    fresh closures: a module constant keeps the closure, and the tables, it was made with.
    """
    groups._read.cache_clear()
    yield
    groups._read.cache_clear()
