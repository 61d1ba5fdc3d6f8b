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


@pytest.fixture(autouse=True)
def fresh_cli():
    """An empty CLI memo of configs and their systems for every test, emptied again after it.

    A command reuses the system built for a config's text, so without the clear a test
    that patches or counts what a build runs would see the build of an earlier test, and
    a system built under one test's patch would serve the next.
    """
    from maf import cli

    cli._MEMO.clear()
    yield
    cli._MEMO.clear()
