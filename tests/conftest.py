"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def log_memo():
    """This thread's log memo, emptied, with no use counts and nothing on probation."""
    from gftkit import core

    for key in list(core._log_memo.logs):
        core._log_memo._evict(key)
    core._log_memo.counts.clear()
    core._log_memo.probation.clear()
    return core._log_memo
