"""Spans around the library's public functions, for the traced benchmark pass.

Wrappers record (name, start, end, parent) for every call into a traced
function and keep the spans in flat arrays until the pass ends.  A span's
self time is its duration minus the part of it that its child spans cover.

Modules bind library functions by name (``from .matroid import kl_poly`` in
``verification``, for one), so each function is replaced in every module that
holds it, and in the benchmark's own modules.  Spans are recorded in this
process only: sweeps fanned out to worker processes are invisible to it.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import klmatroids.closedforms as closedforms
import klmatroids.matroid as matroid
import klmatroids.tableaux as tableaux

TASK = "bench.task"

# Layers whose number of calls is reported.
COUNTED = (
    "matroid.from_bases", "matroid.minor", "matroid.char_poly", "matroid.kl_poly",
    "tableaux.count_skyt", "tableaux.count_syt",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.kl_keys: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(args, result) records counts."""
        name_id = self.name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def traced_memo(self, name: str, fn, slot: str, on_result=None):
        """A method that caches its result in ``slot``: only the computing call
        gets a span, so the cheap cached reads are not charged to the layer."""
        inner = self.traced(name, fn, on_result)

        @wraps(fn)
        def wrapper(obj):
            if getattr(obj, slot, None) is not None:
                return fn(obj)
            return inner(obj)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement, extra_modules) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "klmatroids"]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, extra_modules=()) -> None:
        counts = self.counts

        def count_bases(args, m):
            counts["matroid.from_bases.bases"] += len(m.bases)

        def count_flats(args, lattice):
            counts["matroid.lattice.flats"] += len(lattice.flats)

        def record_kl_key(args, poly):
            self.kl_keys.add(args[0].key())

        def count_fillings(args, fillings):
            counts["tableaux.enumerate.fillings"] += len(fillings)

        functions = [
            (matroid.matroid_from_bases, "matroid.from_bases", count_bases),
            (matroid.localization, "matroid.minor", None),
            (matroid.contraction, "matroid.minor", None),
            (matroid.char_poly, "matroid.char_poly", None),
            (matroid.kl_poly, "matroid.kl_poly", record_kl_key),
            (tableaux.enumerate_skyt, "tableaux.enumerate", count_fillings),
            (tableaux.involution_rotate, "tableaux.rotate", None),
            (tableaux.count_skyt_rho_direct, "tableaux.direct", None),
            (tableaux.count_skyt, "tableaux.count_skyt", None),
            (tableaux.count_syt, "tableaux.count_syt", None),
            (closedforms.coeff_rho, "closedforms.coeff_rho", None),
            (closedforms.coeff_uniform_klum, "closedforms.klum", None),
            (closedforms.build_rho_uniform, "closedforms.build", None),
        ]
        for fn, name, on_result in functions:
            self._replace_everywhere(fn, self.traced(name, fn, on_result), extra_modules)
        methods = [
            (matroid.Matroid, "rank_table", "_rank_table", "matroid.rank_table", None),
            (matroid.Matroid, "lattice", "_lattice", "matroid.lattice", count_flats),
        ]
        for cls, attr, slot, name, on_result in methods:
            fn = vars(cls)[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.traced_memo(name, fn, slot, on_result))
        is_legal = tableaux.Filling.is_legal
        self._patched.append((tableaux.Filling, "is_legal", is_legal))
        tableaux.Filling.is_legal = self.traced("tableaux.is_legal", is_legal)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return aggregate_self_times(self.names, self.name, self.start, self.end, self.parent)

    def call_counts(self) -> Counter:
        return Counter(self.names[i] for i in self.name)

    def layer_metrics(self, tasks_s: float, scale: float) -> dict:
        """Per-layer self times (times ``scale``), counts, and shares of
        ``tasks_s``, the pass's total task time."""
        selfs = self.self_times()
        calls = self.call_counts()
        counts = self.counts
        out = {f"{name}.self_s": scale * selfs.get(name, 0.0) for name in self.names if name != TASK}
        out["other.self_s"] = scale * selfs.get(TASK, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        out["matroid.from_bases.bases"] = counts["matroid.from_bases.bases"]
        out["matroid.lattice.flats"] = counts["matroid.lattice.flats"]
        kl_calls = calls.get("matroid.kl_poly", 0)
        out["matroid.kl_poly.distinct_ratio"] = len(self.kl_keys) / kl_calls if kl_calls else 0.0
        fillings = counts["tableaux.enumerate.fillings"]
        out["tableaux.enumerate.fillings"] = fillings
        out["tableaux.enumerate.us_per_filling"] = (
            1e6 * out["tableaux.enumerate.self_s"] / fillings if fillings else 0.0
        )
        for prefix in ("matroid", "tableaux", "closedforms"):
            spent = sum(v for k, v in selfs.items() if k.startswith(prefix + "."))
            out[f"share.{prefix}"] = spent / tasks_s if tasks_s else 0.0
        out["trace.spans"] = len(self.start)
        return out


def self_time_per_span(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for idx, up in enumerate(parent):
        if up >= 0:
            children[up].append((start[idx], end[idx]))
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        reach = lo
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


def aggregate_self_times(names, name_ids, start, end, parent) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for name_id, own in zip(name_ids, self_time_per_span(start, end, parent)):
        totals[names[name_id]] += own
    return dict(totals)
