"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def log_memo():
    """This thread's log memo, emptied, with no use counts, keeping logs on
    the default grid's points."""
    from gftkit import core, default_grid

    default_grid()  # hands the core the points that logs are kept on
    memo = core._log_memo
    memo.logs.clear()
    memo.counts.clear()
    return memo
