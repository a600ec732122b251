"""The lib-warm client: one long-lived process calling figurate directly.

Usage: python3 bench/libwarm.py --seed N --rounds R [--trace]

Set-up imports figurate and warms the hot set (row tables up to
HOT_PMAX, the lru caches of the powersum points). Then R rounds run,
under the tracer with --trace. Each call is timed alone; its result is
checked afterwards against oracles.py, outside the timed call. Each
round starts with a host-speed reference sample (hostspeed.py). Prints
one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import hostspeed
import oracles
import tracer
import workloads


class Client:
    def __init__(self):
        self.coeff = importlib.import_module("figurate.coefficients")
        self.fermat = importlib.import_module("figurate.fermat")
        self.powersum = importlib.import_module("figurate.powersum")
        self.combinatorics = importlib.import_module("figurate.combinatorics")
        self.grow_ops = 0
        self._coeff_oracle: dict[tuple[int, int], int] = {}
        self._sum_oracle: dict[tuple[int, int], int] = {}
        self._verified: dict[tuple, object] = {}

    # -- set-up -------------------------------------------------------------

    def warm(self) -> None:
        """Fill the row tables and caches the hot set reads."""
        for cls in workloads.LIB_WARM:
            for point in cls.band:
                kind = point[0]
                if kind in ("coefficient", "number_triangle"):
                    self.call(point)
                elif kind in ("expand_symbolic", "evaluate_formula"):
                    tag, p = (point[2], point[1]) if kind == "expand_symbolic" else (point[1], point[3])
                    if tag == "faulhaber":
                        self.powersum.faulhaber_coefficients(p)
                    elif tag != "brute":
                        self.powersum.representation(tag, p)

    # -- operations ---------------------------------------------------------

    def resolve(self, cls: str, point):
        """The call an op stands for. Grow ops take the next row above
        HOT_PMAX until GROW_ROWS rows are added, then cycle over them."""
        if cls == "coefficient_grow":
            p = workloads.HOT_PMAX + 1 + self.grow_ops % workloads.GROW_ROWS
            self.grow_ops += 1
            return ("coefficient", p, p // 2, point)
        return point

    def call(self, op):
        kind = op[0]
        if kind == "coefficient":
            return self.coeff.coefficient(op[1], op[2], op[3])
        if kind == "certify":
            return self.coeff.certify(op[1], op[2])
        if kind == "expand_symbolic":
            return self.powersum.expand_symbolic(op[1], op[2])
        if kind == "evaluate_formula":
            return self.powersum.evaluate_formula(op[1], op[2], op[3])
        if kind == "certify_inverse":
            return self.fermat.certify_inverse(op[1])
        if kind == "number_triangle":
            return self.combinatorics.number_triangle(op[1], op[2])
        raise ValueError(f"unknown operation {op!r}")

    # -- checks -------------------------------------------------------------

    def _c(self, p: int, ell: int) -> int:
        if (p, ell) not in self._coeff_oracle:
            self._coeff_oracle[(p, ell)] = oracles.coefficient(p, ell)
        return self._coeff_oracle[(p, ell)]

    def _s(self, n: int, p: int) -> int:
        if (n, p) not in self._sum_oracle:
            self._sum_oracle[(n, p)] = oracles.power_sum(n, p)
        return self._sum_oracle[(n, p)]

    def check(self, op, result) -> bool:
        kind = op[0]
        if kind == "coefficient":
            return result == self._c(op[1], op[2])
        if kind == "certify":
            return (
                result.agree
                and not result.skipped
                and len(result.values) == 7
                and result.value == self._c(op[1], op[2])
            )
        if kind == "certify_inverse":
            return result is True
        if kind == "evaluate_formula":
            tag, n, p = op[1:]
            return result == (n**p if tag == "power_ml1" else self._s(n, p))
        if kind == "expand_symbolic":
            coefficients = result.coefficients
            if op in self._verified:
                return coefficients == self._verified[op]
            p, tag = op[1], op[2]
            if tag == "power_ml1":
                values = [n**p for n in range(1, p + 2)]
            else:
                values = [self._s(n, p) for n in range(1, p + 3)]
            ok = oracles.polynomial_matches(coefficients, values)
        elif kind == "number_triangle":
            if op in self._verified:
                return result.rows == self._verified[op]
            coefficients = result.rows
            ok = oracles.triangle_rows_ok(op[1], op[2], result.rows)
        else:
            return False
        if ok:
            self._verified[op] = coefficients
        return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    scale = hostspeed.setup_scale()
    setup_start = time.perf_counter()
    client = Client()
    client.warm()
    rounds = workloads.rounds("lib-warm", args.seed)
    setup_s = time.perf_counter() - setup_start
    result = {
        "setup_s": setup_s,
        "setup_scale": scale,
        "figurate_file": sys.modules["figurate"].__file__,
    }

    t = None
    if args.trace:
        t = tracer.Tracer()
        t.install()
        hits0, misses0 = t.cache_counts()
    latencies: list[float] = []
    references: list[float] = []
    failures: list[str] = []
    grew = 0
    for _ in range(args.rounds):
        references.append(hostspeed.sample_ms())
        for cls, point in next(rounds):
            op = client.resolve(cls, point)
            rows_before = t.rows() if t else None
            try:
                start = time.perf_counter()
                value = client.call(op)
                elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed operation, counted and reported
                elapsed = time.perf_counter() - start
                value, ok = None, False
                failures.append(f"{op!r}: {type(exc).__name__}: {exc}")
            else:
                ok = client.check(op, value)
                if not ok:
                    failures.append(f"{op!r}: wrong result")
            latencies.append(elapsed * 1000.0)
            if t and t.rows() != rows_before:
                grew += 1

    result.update(
        {
            "latencies_ms": latencies,
            "reference_ms": references,
            "failed": len(failures),
            "failures": failures[:10],
        }
    )
    if t:
        summary = t.summary()
        hits, misses = t.cache_counts()
        summary["cache_hits"], summary["cache_misses"] = hits - hits0, misses - misses0
        summary["grew_ops"] = grew
        result["trace"] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
