"""Cross-check the Faulhaber form far past Tier-1.

For p = 500 and 800, faulhaber_eval(n, p) must equal the brute-force sum
sum_brute(n, p) at every n < 40; fails with the p and the n that differ.
Standard library only:

    PYTHONPATH=src python tests/ci/faulhaber_far.py
"""

from figurate.powersum import faulhaber_eval, sum_brute

for p in (500, 800):
    bad = [n for n in range(40) if faulhaber_eval(n, p) != sum_brute(n, p)]
    assert not bad, (p, bad)
