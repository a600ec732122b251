"""Sweep every powersum cache to p = 400 in bounded memory.

Builds every term representation and the Faulhaber coefficients for
p = 2..400 and every expansion for p = 2..100, then fails unless each
lru_cache holds at most _CACHE_SIZE entries and the process peaks below
80 MB. Prints the peak RSS. Standard library only; ru_maxrss in KiB is
Linux's:

    PYTHONPATH=src python tests/ci/powersum_caches.py
"""

import resource

from figurate import powersum as ps

for p in range(2, 401):
    for tag in ps.TERM_TAGS:
        ps.representation(tag, p)
    ps.faulhaber_coefficients(p)
for p in range(2, 101):
    for tag in (*ps.TERM_TAGS, "faulhaber"):
        ps.expand_symbolic(p, tag)
for cache in (ps.representation, ps._faulhaber_form, ps.faulhaber_coefficients, ps.expand_symbolic):
    assert cache.cache_info().currsize <= ps._CACHE_SIZE, cache
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB")
assert peak_mb < 80, peak_mb
