"""Frozen reference values the tests compare against, each stated once.

These are test data, kept apart from figurate.verify's REFERENCE_*
tables, which are library data under test.
"""

#: c(p, ell) for p = 1..9, row p - 1 holding ell = 0..p-1.
TRIANGLE_9 = (
    (1,),
    (2, 1),
    (6, 6, 1),
    (24, 36, 14, 1),
    (120, 240, 150, 30, 1),
    (720, 1800, 1560, 540, 62, 1),
    (5040, 15120, 16800, 8400, 1806, 126, 1),
    (40320, 141120, 191520, 126000, 40824, 5796, 254, 1),
    (362880, 1451520, 2328480, 1905120, 834120, 186480, 18150, 510, 1),
)

#: The cells of the order-5 Fermat matrix as `figurate fermat --p 5`
#: prints them.
FERMAT_5_CELLS = (
    ("1", "0", "0", "0", "0"),
    ("1/2", "1/2", "0", "0", "0"),
    ("1/3", "1/2", "1/6", "0", "0"),
    ("1/4", "11/24", "1/4", "1/24", "0"),
    ("1/5", "5/12", "7/24", "1/12", "1/120"),
)

#: The cells of its inverse, as `figurate fermat --p 5 --inverse` prints them.
INVERSE_5_CELLS = (
    ("1", "0", "0", "0", "0"),
    ("-1", "2", "0", "0", "0"),
    ("1", "-6", "6", "0", "0"),
    ("-1", "14", "-36", "24", "0"),
    ("1", "-30", "150", "-240", "120"),
)

#: The term coefficients of each p = 8 expansion, by term tag.
SUM8_COEFFICIENTS = {
    "eq5": (40320, -141120, 191520, -126000, 40824, -5796, 254, -1),
    "alt1": (1, 254, 5796, 40824, 126000, 191520, 141120, 40320),
    "alt2": (1, 247, 4293, 15619, 15619, 4293, 247, 1),
    "alt3": (1, 255, 6050, 46620, 166824, 317520, 332640, 181440, 40320),
}
