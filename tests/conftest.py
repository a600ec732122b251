"""Fixtures every test module shares."""

import pytest

import memo_table
from figurate import powersum


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


@pytest.fixture
def fresh_powersum_caches():
    """Empties the powersum lru caches before and after the test, for one
    that plants a fault under them: it reads no entry built before its
    fault and leaves none built under it."""
    caches = (
        powersum.representation,
        powersum._faulhaber_form,
        powersum.faulhaber_coefficients,
        powersum.expand_symbolic,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
