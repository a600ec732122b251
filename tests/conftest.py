"""Fixtures every test module shares."""

import pytest

import memo_table


@pytest.fixture(autouse=True)
def empty_process_memos():
    """Each test starts and ends with empty process memos, those that
    memo_table.MEMOS lists.

    The memos are kept for the process, so a test that wraps a block or
    row builder in a fault (or plants one in _exact_div) would otherwise
    leave entries built from the faulty builder for every later test, or
    have its fault masked by entries built before it, and a test that
    counts entries would see those of the tests before it.
    """
    memo_table.clear()
    yield
    memo_table.clear()
