"""In-memory spans around the calls into figurate's modules.

Tracer.install() replaces each traced function with a timing wrapper at
every binding site: the defining module and every figurate module that
imported it by name (`from .x import f`), plus the two operator methods
on their classes and the row-building step of every row table. The
enumeration generators are wrapped so that each next() is a span.

Spans are aggregated as they close (per-layer self time, per-metric
inclusive time, counts) and kept in memory; summary() returns them when
the traced work ends. A layer's self time is its spans' time minus the
time of spans nested inside them. A metric's time is counted once for
the outermost of nested spans with the same metric.

The layers are figurate's modules: cli, verify, coefficients,
enumeration, combinatorics, fermat, powersum and exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Prefix of the line that carries a traced process's summary on stderr.
MARKER = "figurate-bench-trace "

LAYERS = (
    "cli",
    "verify",
    "coefficients",
    "enumeration",
    "combinatorics",
    "fermat",
    "powersum",
    "exact",
)

ROUTES = ("closed", "enum_k", "enum_j", "recurrence", "decompose", "eulerian2", "alternating")
SUITES = ("coeff", "enumeration", "fermat", "orthogonality", "powersum")
TABLES = ("stirling1", "stirling2", "eulerian1", "eulerian2", "recurrence")
EXPAND_TAGS = ("eq5", "alt1", "alt2", "alt3", "faulhaber", "power_ml1")
TUPLE_KINDS = ("k", "j", "comp")

# Row tables by (module, attribute) -> table name.
_TABLES = {
    ("combinatorics", "_STIRLING1"): "stirling1",
    ("combinatorics", "_STIRLING2"): "stirling2",
    ("combinatorics", "_EULERIAN1"): "eulerian1",
    ("combinatorics", "_EULERIAN2"): "eulerian2",
    ("coefficients", "_RECURRENCE"): "recurrence",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _call_targets():
    """(module, attribute, metric) for every traced function.

    metric is None (span only), a name, or a function of the call's
    arguments returning a name.
    """
    targets = [
        ("cli", "main", None),
        ("verify", "run_suites", None),
        ("verify", "orthogonality_row", None),
        ("coefficients", "coefficient", None),
        ("coefficients", "certify", "coefficients.certify_ms"),
        ("coefficients", "build_triangle", None),
        ("coefficients", "decompose_groups", None),
        ("coefficients", "w_sum", None),
        ("coefficients", "summand_count", None),
        ("combinatorics", "number_triangle", None),
        ("combinatorics", "surjection_brute", "combinatorics.surjection_brute_ms"),
        ("fermat", "certify_inverse", "fermat.certify_inverse_ms"),
        ("fermat", "build_fermat", "fermat.build_ms"),
        ("fermat", "inverse_closed", "fermat.build_ms"),
        ("fermat", "invert_exact", "fermat.invert_ms"),
        ("fermat", "figurate_polynomial", None),
        (
            "powersum",
            "expand_symbolic",
            lambda a, k: f"powersum.expand_ms.{_arg(a, k, 1, 'tag')}",
        ),
        ("powersum", "faulhaber_coefficients", "powersum.faulhaber_solve_ms"),
        ("powersum", "evaluate_formula", "powersum.evaluate_ms"),
        ("powersum", "representation", None),
        ("powersum", "sum_brute", None),
        ("powersum", "sum_eq5", None),
        ("powersum", "sum_stirling", None),
        ("powersum", "sum_eulerian", None),
        ("powersum", "sum_variant", None),
        ("powersum", "faulhaber_eval", None),
        ("powersum", "power_via_ml1", None),
        ("exact", "format_rational", "exact.format_ms"),
        ("exact", "format_polynomial", "exact.format_ms"),
    ]
    targets += [
        ("verify", f"_{suite}_checks", f"verify.suite_ms.{suite}") for suite in SUITES
    ]
    route_fns = {
        "closed": "c_closed",
        "enum_k": "c_enum_k",
        "enum_j": "c_enum_j",
        "recurrence": "c_recurrence",
        "decompose": "c_decompose",
        "eulerian2": "c_eulerian2",
        "alternating": "c_alternating",
    }
    targets += [
        ("coefficients", fn, f"coefficients.route_ms.{route}") for route, fn in route_fns.items()
    ]
    return targets


_GENERATORS = (
    ("enumerate_k_tuples", "k"),
    ("enumerate_j_tuples", "j"),
    ("enumerate_compositions", "comp"),
)


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"figurate.{name}") for name in LAYERS}
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.metric_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tables = {
            name: getattr(self.modules[mod], attr) for (mod, attr), name in _TABLES.items()
        }
        powersum = self.modules["powersum"]
        self._caches = (powersum.representation, powersum.faulhaber_coefficients)

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: str, metric):
        frame = [layer, metric, 0.0, time.perf_counter()]
        if metric is not None:
            self._depth[metric] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        elapsed = time.perf_counter() - frame[3]
        layer, metric, children = frame[0], frame[1], frame[2]
        self._stack.pop()
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        if metric is not None:
            self._depth[metric] -= 1
            if self._depth[metric] == 0:
                self.metric_s[metric] += elapsed
                self.counts[metric] += 1

    def _wrap(self, fn, layer, metric, observe=None):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            frame = enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, kind):
        enter, leave, counts = self._enter, self._exit, self.counts
        counter = f"enumeration.tuples.{kind}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    frame = enter("enumeration", "enumeration.gen_ms")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    counts[counter] += 1
                    yield item

            return stream()

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for mod, attr, metric in _call_targets():
            fn = getattr(self.modules[mod], attr)
            observe = None
            if attr == "run_suites":
                observe = self._observe_checks
            elif attr == "surjection_brute":
                observe = self._observe_maps
            replacements[id(fn)] = (fn, self._wrap(fn, mod, metric, observe))
        for attr, kind in _GENERATORS:
            fn = getattr(self.modules["enumeration"], attr)
            replacements[id(fn)] = (fn, self._wrap_generator(fn, kind))

        # Every binding site: any figurate module attribute that is one of
        # the originals gets the wrapper.
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

        fermat, exact = self.modules["fermat"], self.modules["exact"]
        fermat.RationalMatrix.__matmul__ = self._wrap(
            fermat.RationalMatrix.__matmul__,
            "fermat",
            "fermat.matmul_ms",
            self._observe_matmul,
        )
        exact.Polynomial.__mul__ = self._wrap(
            exact.Polynomial.__mul__, "exact", "exact.poly_mul_ms"
        )
        for table in self.tables.values():
            step = table._step
            layer = step.__module__.rpartition(".")[2]
            table._step = self._wrap(step, layer, None)

    def _observe_checks(self, args, kwargs, report) -> None:
        self.counts["verify.checks"] += len(report.checks)

    def _observe_maps(self, args, kwargs, result) -> None:
        m, n = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "n")
        self.counts["combinatorics.surjection_brute_maps"] += n**m

    def _observe_matmul(self, args, kwargs, result) -> None:
        self.counts["fermat.matmul_mults"] += result.order**3

    # -- state --------------------------------------------------------------

    def rows(self) -> dict[str, int]:
        return {name: len(table._rows) for name, table in self.tables.items()}

    def row_bytes(self) -> int:
        """Approximate bytes held by the row tables: the row tuples and
        the ints in them."""
        size = sys.getsizeof
        return sum(
            size(row) + sum(map(size, row))
            for table in self.tables.values()
            for row in table._rows
        )

    def cache_counts(self) -> tuple[int, int]:
        infos = [cache.cache_info() for cache in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def summary(self) -> dict:
        hits, misses = self.cache_counts()
        return {
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "metric_ms": {k: v * 1000.0 for k, v in self.metric_s.items()},
            "counts": dict(self.counts),
            "rows": self.rows(),
            "row_bytes": self.row_bytes(),
            "cache_hits": hits,
            "cache_misses": misses,
        }


def combine(summaries: list[dict]) -> dict:
    """Add up per-process summaries: times, counts and cache lookups are
    summed, row counts and row bytes take the largest process."""
    total = {
        "self_ms": defaultdict(float),
        "metric_ms": defaultdict(float),
        "counts": defaultdict(int),
        "rows": defaultdict(int),
        "row_bytes": 0,
        "cache_hits": 0,
        "cache_misses": 0,
    }
    for s in summaries:
        for field in ("self_ms", "metric_ms", "counts"):
            for k, v in s[field].items():
                total[field][k] += v
        for k, v in s["rows"].items():
            total["rows"][k] = max(total["rows"][k], v)
        total["row_bytes"] = max(total["row_bytes"], s["row_bytes"])
        total["cache_hits"] += s["cache_hits"]
        total["cache_misses"] += s["cache_misses"]
    return total


#: Per-layer metrics: name -> (unit, better). The order is the report order.
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.overlimit_failed": ("count", "lower"),
    **{f"verify.suite_ms.{s}": ("ms", "lower") for s in SUITES},
    "verify.checks": ("count", "higher"),
    **{f"coefficients.route_ms.{r}": ("ms", "lower") for r in ROUTES},
    **{f"coefficients.route_calls.{r}": ("count", "lower") for r in ROUTES},
    "coefficients.certify_ms": ("ms", "lower"),
    **{f"enumeration.tuples.{k}": ("count", "lower") for k in TUPLE_KINDS},
    "enumeration.gen_ms": ("ms", "lower"),
    "enumeration.tuples_per_s": ("1/s", "higher"),
    **{f"combinatorics.rows.{t}": ("count", "lower") for t in TABLES},
    "combinatorics.row_bytes": ("bytes", "lower"),
    "combinatorics.row_hit_ratio": ("ratio", "higher"),
    "combinatorics.surjection_brute_ms": ("ms", "lower"),
    "combinatorics.surjection_brute_maps": ("count", "lower"),
    "fermat.certify_inverse_ms": ("ms", "lower"),
    "fermat.matmul_ms": ("ms", "lower"),
    "fermat.invert_ms": ("ms", "lower"),
    "fermat.build_ms": ("ms", "lower"),
    "fermat.matmul_mults": ("count_computed", "lower"),
    **{f"powersum.expand_ms.{t}": ("ms", "lower") for t in EXPAND_TAGS},
    "powersum.faulhaber_solve_ms": ("ms", "lower"),
    "powersum.evaluate_ms": ("ms", "lower"),
    "powersum.cache_hit_ratio": ("ratio", "higher"),
    "exact.poly_mul_calls": ("count", "lower"),
    "exact.poly_mul_ms": ("ms", "lower"),
    "exact.format_ms": ("ms", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "trace.overhead": ("ratio", "higher"),
}

#: Count metrics that must repeat exactly between two traced passes.
COUNT_METRICS = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "count_computed", "bytes")
)


def layer_values(total: dict, ops: int, grew_ops: int) -> dict[str, float]:
    """Per-layer metric values (ms, counts, ratios) from a combined
    summary of one pass; `grew_ops` is how many of its `ops` operations
    grew a row table. cli.import_ms, cli.stdout_bytes,
    cli.overlimit_failed and trace.overhead are measured outside the
    traced processes and filled in by the caller."""
    ms, counts = total["metric_ms"], total["counts"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = total["self_ms"].get(layer, 0.0)
    for suite in SUITES:
        values[f"verify.suite_ms.{suite}"] = ms.get(f"verify.suite_ms.{suite}", 0.0)
    values["verify.checks"] = counts.get("verify.checks", 0)
    for route in ROUTES:
        values[f"coefficients.route_ms.{route}"] = ms.get(f"coefficients.route_ms.{route}", 0.0)
        values[f"coefficients.route_calls.{route}"] = counts.get(
            f"coefficients.route_ms.{route}", 0
        )
    values["coefficients.certify_ms"] = ms.get("coefficients.certify_ms", 0.0)
    for kind in TUPLE_KINDS:
        values[f"enumeration.tuples.{kind}"] = counts.get(f"enumeration.tuples.{kind}", 0)
    gen_ms = ms.get("enumeration.gen_ms", 0.0)
    values["enumeration.gen_ms"] = gen_ms
    tuples = sum(counts.get(f"enumeration.tuples.{k}", 0) for k in TUPLE_KINDS)
    values["enumeration.tuples_per_s"] = tuples / (gen_ms / 1000.0) if gen_ms else 0.0
    for table in TABLES:
        values[f"combinatorics.rows.{table}"] = total["rows"].get(table, 0)
    values["combinatorics.row_bytes"] = total["row_bytes"]
    values["combinatorics.row_hit_ratio"] = (ops - grew_ops) / ops
    values["combinatorics.surjection_brute_ms"] = ms.get("combinatorics.surjection_brute_ms", 0.0)
    values["combinatorics.surjection_brute_maps"] = counts.get(
        "combinatorics.surjection_brute_maps", 0
    )
    for name in ("certify_inverse_ms", "matmul_ms", "invert_ms", "build_ms"):
        values[f"fermat.{name}"] = ms.get(f"fermat.{name}", 0.0)
    values["fermat.matmul_mults"] = counts.get("fermat.matmul_mults", 0)
    for tag in EXPAND_TAGS:
        values[f"powersum.expand_ms.{tag}"] = ms.get(f"powersum.expand_ms.{tag}", 0.0)
    values["powersum.faulhaber_solve_ms"] = ms.get("powersum.faulhaber_solve_ms", 0.0)
    values["powersum.evaluate_ms"] = ms.get("powersum.evaluate_ms", 0.0)
    lookups = total["cache_hits"] + total["cache_misses"]
    values["powersum.cache_hit_ratio"] = total["cache_hits"] / lookups if lookups else 0.0
    values["exact.poly_mul_calls"] = counts.get("exact.poly_mul_ms", 0)
    values["exact.poly_mul_ms"] = ms.get("exact.poly_mul_ms", 0.0)
    values["exact.format_ms"] = ms.get("exact.format_ms", 0.0)
    return values
