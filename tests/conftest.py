"""Fixtures every test module shares."""

import pytest

from figurate import coefficients, enumeration


@pytest.fixture(autouse=True)
def empty_process_memos():
    """Each test starts and ends with empty process memos: the k- and
    j-suffix blocks, the enumerative routes' block denominators, the
    alternating route's powers and signed binomials, and the eulerian2
    route's binomial windows.

    The memos are kept for the process, so a test that wraps a block or
    row builder in a fault (or plants one in _exact_div) would otherwise
    leave entries built from the faulty builder for every later test, or
    have its fault masked by entries built before it, and a test that
    counts entries would see those of the tests before it.
    """
    memos = (
        enumeration._K_BLOCKS,
        enumeration._J_BLOCKS,
        coefficients._K_WEIGHTS,
        coefficients._J_WEIGHTS,
        coefficients._POWERS,
        coefficients._SIGNED,
        coefficients._BINOM_WINDOWS,
    )
    for memo in memos:
        memo.clear()
    yield
    for memo in memos:
        memo.clear()
