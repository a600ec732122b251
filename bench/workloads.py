"""Workload definitions: operation classes, their parameter bands and quotas.

A workload is a list of classes. Each class has a finite band of points
(for the CLI workloads a point is the argv after `figurate`; for lib-warm
it is a call tuple) and a fixed quota of operations per round. A round
takes `quota` points from every class and runs them in a seeded order.

A class's band is cut into `quota` strata of neighbouring points in
band order, and a round draws one point from each stratum. Each band is
listed by route or kind first and then by growing p or pmax, so a
stratum holds points of similar size and the strata depend on nothing
but the band. The seed only picks which point of each stratum a round
uses (cycling through seeded shuffles of the stratum, so a class covers
its band evenly) and the order inside a round. It never changes how many
operations each class gets or which strata they come from, and a
memory-heavy class keeps its largest point in every round, so peak RSS
and the failure count do not depend on the seed.

record.py runs every point of every CLI band, so the expected outputs
cover everything the generator can draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class OpClass:
    name: str
    quota: int
    band: tuple

    def draws(self, rng: random.Random) -> Iterator[list]:
        """Endless stream of per-round draws, one point per stratum."""
        n = len(self.band)
        strata = [
            self.band[i * n // self.quota : (i + 1) * n // self.quota] for i in range(self.quota)
        ]
        streams = [_cycle(stratum, rng) for stratum in strata]
        while True:
            yield [next(s) for s in streams]


def _cycle(points: list, rng: random.Random) -> Iterator:
    """Seeded shuffles of the points, one after another."""
    while True:
        order = list(points)
        rng.shuffle(order)
        yield from order


def _fractions(p: int, fracs=(0.1, 0.3, 0.5, 0.7, 0.9)) -> list[int]:
    return [int(p * f) for f in fracs]


def _cli(*parts) -> tuple[str, ...]:
    return tuple(str(x) for x in parts)


# ---------------------------------------------------------------------------
# cli-selfcheck: the cross-certification a user runs, one process per op
# ---------------------------------------------------------------------------

CLI_SELFCHECK = (
    # Fifteen verify runs: five strata of three runs at one pmax, so a
    # run of three rounds does each exactly once and the tail falls on
    # the same operations whatever the seed.
    OpClass(
        "verify",
        5,
        tuple(
            _cli("verify", *suite, "--pmax", p)
            for p in range(10, 15)
            for suite in ((), ("--suite", "coeff"), ("--suite", "enumeration"))
        ),
    ),
    OpClass(
        "certify",
        5,
        tuple(
            _cli("certify", "--p", p, "--ell", ell)
            for p in range(10, 15)
            for ell in range(p)
        ),
    ),
    OpClass(
        "coeff_enum",
        5,
        tuple(
            _cli("coeff", "--p", p, "--ell", ell, "--route", route)
            for route in ("enum_k", "enum_j", "decompose")
            for p in range(12, 15)
            for ell in range(p)
        ),
    ),
    OpClass(
        "tuples",
        5,
        tuple(
            _cli("tuples", "--kind", kind, "--p", p, "--ell", ell, "--count-only")
            for kind in ("k", "j")
            for p in range(12, 17)
            for ell in range(p)
        ),
    ),
)


# ---------------------------------------------------------------------------
# cli-bigexact: large exact values, row tables, serialization, memory
# ---------------------------------------------------------------------------

_FAMILIES = (None, "stirling1", "stirling2", "eulerian1", "eulerian2")
_FORMATS = ("plain", "csv", "json")
_FORMULAS = ("eq5", "stir", "euler", "alt3", "faulhaber", "ml1-power")


def _triangle(pmax: int, family, fmt: str) -> tuple[str, ...]:
    argv = ["triangle", "--pmax", pmax]
    if family is not None:
        argv += ["--family", family]
    return _cli(*argv, "--format", fmt)


def _table_points() -> list[tuple[str, ...]]:
    # Every point stays well below the closed route at p=1200, the fixed
    # peak of the coeff_p1200 class, so that class alone sets peak RSS.
    points = []
    for p in (400, 600, 800, 1000):
        points += [_cli("coeff", "--p", p, "--ell", e, "--route", "closed") for e in _fractions(p)]
    for p in (400, 500, 600, 700, 800):
        points += [
            _cli("coeff", "--p", p, "--ell", e, "--route", "recurrence") for e in _fractions(p)
        ]
    for p in (600, 800, 1000, 1200):
        points += [
            _cli("coeff", "--p", p, "--ell", e, "--route", "eulerian2")
            for e in (100, 200, 300, 400, 500)
        ]
    for p in (400, 600, 800, 1000, 1200):
        points += [
            _cli("coeff", "--p", p, "--ell", e, "--route", "alternating") for e in _fractions(p)
        ]
    return points


CLI_BIGEXACT = (
    # The slowest operations have small bands that a run of three rounds
    # covers exactly once, as in cli-selfcheck.
    OpClass(
        "verify_fermat",
        1,
        tuple(_cli("verify", "--suite", "fermat", "--pmax", p) for p in (15, 22, 30)),
    ),
    OpClass(
        "powersum_p60",
        2,
        tuple(_cli("powersum", "--p", 60, "--symbolic", "--formula", f) for f in _FORMULAS),
    ),
    # The memory-heavy class: the default closed route, always at p=1200.
    OpClass(
        "coeff_p1200",
        3,
        tuple(_cli("coeff", "--p", 1200, "--ell", e) for e in range(0, 1200, 100)),
    ),
    OpClass(
        "powersum_symbolic",
        1,
        tuple(
            _cli("powersum", "--p", p, "--symbolic", "--formula", f)
            for p in range(20, 41, 5)
            for f in _FORMULAS
        ),
    ),
    OpClass(
        "triangle",
        2,
        tuple(
            _triangle(pmax, family, fmt)
            for pmax in range(150, 301, 25)
            for family in _FAMILIES
            for fmt in _FORMATS
        ),
    ),
    OpClass("coeff_tables", 2, tuple(_table_points())),
    # Nine fermat runs (about 75 ms each) a round put the median inside
    # the dense cluster of 70-95 ms operations, away from the steep rise
    # above it, so latency_p50_ms does not jump with the seed.
    OpClass(
        "fermat",
        9,
        tuple(
            _cli("fermat", "--p", p, *inv, "--format", fmt)
            for p in range(30, 61, 5)
            for inv in ((), ("--inverse",))
            for fmt in _FORMATS
        ),
    ),
    OpClass("faulhaber", 3, tuple(_cli("faulhaber", "--p", p) for p in range(20, 61))),
)

#: Requests whose exact answer has more than CPython's default 4300 digits.
#: They run after the timed phase as a probe of that known defect and are
#: reported on their own (see README.md), outside `attempted`/`failed`.
OVERLIMIT_PROBES = (
    _cli("coeff", "--p", 1800, "--ell", 800, "--route", "alternating"),
    _cli("powersum", "--p", 2100, "--n", 150),
)


# ---------------------------------------------------------------------------
# lib-warm: one long-lived process calling the library directly
# ---------------------------------------------------------------------------

#: Rows the hot set keeps warm; grow operations start just above it.
HOT_PMAX = 400
#: New rows the grow operations add in a run; later grow operations read
#: them back, so peak RSS does not depend on the run's length.
GROW_ROWS = 100

_HOT_COEFF = tuple(
    ("coefficient", p, ell, route)
    for route in ("closed", "recurrence", "eulerian2", "alternating")
    for p in range(100, HOT_PMAX + 1, 50)
    for ell in _fractions(p)
    if not (route == "eulerian2" and ell > 300)
)

LIB_WARM = (
    OpClass("coefficient_hot", 40, _HOT_COEFF),
    # Band of route names only: the p of each grow op is set by libwarm.py.
    OpClass("coefficient_grow", 2, ("closed", "recurrence")),
    OpClass(
        "certify",
        4,
        tuple(("certify", p, ell) for p in range(8, 13) for ell in range(p)),
    ),
    OpClass(
        "expand_symbolic",
        2,
        tuple(
            ("expand_symbolic", p, tag)
            for p in range(10, 23, 4)
            for tag in ("eq5", "alt1", "alt2", "alt3", "faulhaber", "power_ml1")
        ),
    ),
    OpClass(
        "evaluate_formula",
        6,
        tuple(
            ("evaluate_formula", tag, n, p)
            for tag in ("brute", "eq5", "alt1", "alt2", "alt3", "faulhaber", "power_ml1")
            for p in range(5, 41, 5)
            for n in (10, 100, 1000)
        ),
    ),
    OpClass("certify_inverse", 1, tuple(("certify_inverse", p) for p in range(8, 17))),
    OpClass(
        "number_triangle",
        2,
        tuple(
            ("number_triangle", family, max_row)
            for family in ("stirling1", "stirling2", "eulerian1", "eulerian2")
            for max_row in range(50, 401, 50)
        ),
    ),
)

WORKLOADS = {
    "cli-selfcheck": CLI_SELFCHECK,
    "cli-bigexact": CLI_BIGEXACT,
    "lib-warm": LIB_WARM,
}

CLI_WORKLOADS = ("cli-selfcheck", "cli-bigexact")


def rounds(workload: str, seed: int) -> Iterator[list[tuple[str, object]]]:
    """Endless stream of rounds; each round is a seeded-order list of
    (class name, point) with exactly `quota` entries per class."""
    classes = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    streams = {c.name: c.draws(random.Random(f"{workload}/{seed}/{c.name}")) for c in classes}
    while True:
        ops = [(c.name, point) for c in classes for point in next(streams[c.name])]
        rng.shuffle(ops)
        yield ops


def round_size(workload: str) -> int:
    """Operations in one round."""
    return sum(c.quota for c in WORKLOADS[workload])


def cli_points(workload: str) -> list[tuple[str, ...]]:
    """Every argv the generator can draw for a CLI workload."""
    return [point for c in WORKLOADS[workload] for point in c.band]


def key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)
