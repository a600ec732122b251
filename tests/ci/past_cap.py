"""Past the row cap: single values in bounded memory, whole triangles stored.

Reads one value from each of four tables past ROW_CAP and fails unless the
process peaks below 100 MB; stores a whole stirling2 triangle past the cap;
then calls the alternating, eulerian2 and enumerative routes past the cap
and fails if any route's value memo keeps a key with p > ROW_CAP. Prints
the peak RSS. Standard library only:

    PYTHONPATH=src python tests/ci/past_cap.py
"""

import resource

from figurate import coefficients, combinatorics as c

values = (c.stirling2(2000, 3), coefficients.c_closed(2000, 1997),
          c._EULERIAN1.row(1499, 3)[2], c._STIRLING1.row(1500, 4)[3])
assert all(v > 0 for v in values)
c.number_triangle("stirling2", 520)
assert len(c._STIRLING2._rows) == 521, len(c._STIRLING2._rows)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.1f} MB")
assert peak_mb < 100, peak_mb

coefficients.c_alternating(700, 350)
coefficients.c_eulerian2(700, 300)
for route in (coefficients.c_enum_k, coefficients.c_enum_j, coefficients.c_decompose):
    route(600, 1)
for memo in (
    coefficients._ALTERNATING_VALUES,
    coefficients._EULERIAN2_VALUES,
    coefficients._ENUM_K_VALUES,
    coefficients._ENUM_J_VALUES,
    coefficients._DECOMPOSE_VALUES,
):
    assert all(p <= c.ROW_CAP for p, _ in memo), sorted(memo)
