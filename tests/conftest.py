"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def log_memo():
    """This thread's log memo, emptied, with no use counts."""
    from gftkit import core

    memo = core._log_memo
    memo.points.clear()
    memo.logs.clear()
    memo.counts.clear()
    memo.nbytes = 0
    return memo
