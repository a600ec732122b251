"""Fixtures every test module shares."""

import pytest

from figurate import enumeration


@pytest.fixture(autouse=True)
def empty_suffix_memos():
    """Each test starts and ends with empty k- and j-suffix memos.

    The memos are kept for the process, so a test that wraps a block
    builder in a fault would otherwise leave blocks built from the faulty
    builder for every later test, and a test that counts blocks would see
    those of the tests before it.
    """
    memos = (enumeration._K_BLOCKS, enumeration._J_BLOCKS)
    for memo in memos:
        memo.clear()
    yield
    for memo in memos:
        memo.clear()
