"""Span tracing of normbase's layers, for the benchmark's traced run.

Tracer.install() replaces every public function of the seven layer
modules, in every namespace that holds it (the defining module, each
module that imported it by name, and the package), with a wrapper that
records a span: name, start, end, parent span and request id.  Calls made
through any of those names, including calls inside a module, are traced;
private helpers are not, so their time counts as their caller's self time.
Nothing in normbase changes on disk.

Self time is a span's duration minus the time its direct child spans
cover.  Aggregates over every span are kept as the run goes; the raw spans
are kept in memory up to SPAN_CAP (an exhaustive audit makes millions)
and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("poly2", "field", "normal", "factor", "construct", "oracle", "cli")
SPAN_CAP = 100_000
SETUP = 0  # request id of spans recorded before the first op

# the per-function metrics the benchmark reports, by traced name
FIELD_COUNTS = ("field.elem_mul", "field.elem_square", "field.abs_trace")
PRESCRIBE_NAMES = ("construct.prescribe", "construct.prescribe_steps")
PRESCRIBE_P50_DEGREES = (21, 32, 33, 64)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.special: dict[int, str] = {}  # name id -> name, for names with extra records
        self.request = SETUP
        self.is_op = False
        self.stack: list[list] = []  # open spans: [span id, name id, start ns, child ns]
        self.next_id = 0
        # (is op, name id) -> [calls, total ns, self ns]
        self.totals: dict[tuple[bool, int], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.searches = 0  # find_normal calls that tested candidates
        self.candidates = 0  # is_normal calls made by find_normal
        self.prescriptions: list[tuple[int, int]] = []  # op (degree, ns), outermost only
        self.enumerations: list[tuple[int, int, int]] = []  # op (yielded, decided, ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.originals: dict[str, object] = {}

    def begin(self, request: int) -> None:
        """Attribute the spans that follow to this request (SETUP before the first op)."""
        self.request = request
        self.is_op = request != SETUP

    # ---------- installation ----------

    def install(self) -> None:
        package = importlib.import_module("normbase")
        modules = [importlib.import_module(f"normbase.{layer}") for layer in LAYERS]
        layer_of = {m.__name__: m.__name__.split(".")[1] for m in modules}
        wrappers: dict[int, object] = {}
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(namespace, attr, wrappers[id(obj)])

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        if name in ("normal.find_normal", "normal.is_normal") or name in PRESCRIBE_NAMES:
            self.special[len(self.names) - 1] = name
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        perf = time.perf_counter_ns
        stack = self.stack
        close = self._close
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name_id, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            frame = [self.next_id, name_id, perf(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, perf(), args, True)
        return wrapper

    def _wrap_generator(self, name_id: int, fn):
        # each resumption is a span; the call counts once, when the generator ends
        perf = time.perf_counter_ns
        stack = self.stack
        close = self._close
        is_enumeration = self.names[name_id] == "oracle.enumerate_normal"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            yielded = busy = 0
            item = None
            done = False
            try:
                while True:
                    self.next_id += 1
                    frame = [self.next_id, name_id, perf(), 0]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    finally:
                        busy += close(frame, perf(), (), False)
                    if done:
                        return
                    yielded += 1
                    yield item
            finally:
                self.totals[(self.is_op, name_id)][0] += 1
                if is_enumeration and self.is_op:
                    # enumerate_normal(spec) tests field elements 1, 2, ... in order
                    decided = (1 << args[0].n) - 1 if done else item[0]
                    self.enumerations.append((yielded, decided, busy))
        return wrapper

    def _close(self, frame, end: int, args, counts_call: bool) -> int:
        stack = self.stack
        stack.pop()
        span_id, name_id, start, child = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals[(self.is_op, name_id)]
        if counts_call:
            total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name_id, start, end,
                               parent[0] if parent is not None else 0, self.request))
        name = self.special.get(name_id)
        if name is None:
            return duration
        caller = self.special.get(parent[1]) if parent is not None else None
        if name == "normal.find_normal":
            self.searches += child > 0
        elif name == "normal.is_normal":
            self.candidates += caller == "normal.find_normal"
        elif self.is_op and caller not in PRESCRIBE_NAMES:
            self.prescriptions.append((args[0].n, duration))
        return duration

    # ---------- results ----------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def metrics(self, ops: int, op_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the op spans (find_normal figures include set-up)."""
        by_name = defaultdict(lambda: (0, 0, 0))  # name -> (calls, total ns, self ns)
        by_name.update((self.names[name_id], tuple(row))
                       for (is_op, name_id), row in self.totals.items() if is_op)

        def ratio(a, b):
            return a / b if b else 0.0

        def mean_us(name):
            calls, total, _ = by_name[name]
            return ratio(total, calls) / 1e3

        out = {}
        all_self = sum(v[2] for v in by_name.values())
        for layer in LAYERS:
            rows = [v for k, v in by_name.items() if k.split(".")[0] == layer]
            calls = sum(v[0] for v in rows)
            own = sum(v[2] for v in rows)
            out[f"{layer}.calls_per_op"] = (ratio(calls, ops), "count")
            out[f"{layer}.self_ms_per_op"] = (ratio(own, ops) / 1e6, "ms")
            out[f"{layer}.self_share"] = (ratio(own, all_self), "ratio")
        for name in FIELD_COUNTS:
            out[f"{name}.calls_per_op"] = (ratio(by_name[name][0], ops), "count")
        out["normal.corresponding_vector.calls_per_op"] = (
            ratio(by_name["normal.corresponding_vector"][0], ops), "count")
        out["normal.corresponding_vector.mean_us"] = (mean_us("normal.corresponding_vector"), "us")

        out["normal.find_normal.candidates_per_call"] = (
            ratio(self.candidates, self.searches), "count")
        out["normal.find_normal.hit_ratio"] = (ratio(self.searches, self.candidates), "ratio")
        info = getattr(self.originals["normal.find_normal"], "cache_info", None)
        if info is not None:
            hits, misses = info().hits, info().misses
            out["normal.find_normal.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        else:
            out["normal.find_normal.cache_hit_ratio"] = (0.0, "ratio")

        out["poly2.is_irreducible.calls_per_op"] = (
            ratio(by_name["poly2.is_irreducible"][0], ops), "count")
        out["poly2.is_irreducible.self_ms_per_op"] = (
            ratio(by_name["poly2.is_irreducible"][2], ops) / 1e6, "ms")
        out["poly2.cyclic_inv.mean_us"] = (mean_us("poly2.cyclic_inv"), "us")
        out["factor.factor_2power.mean_us"] = (mean_us("factor.factor_2power"), "us")
        out["factor.factor_odd.mean_us"] = (mean_us("factor.factor_odd"), "us")

        for n in PRESCRIBE_P50_DEGREES:
            times = [ns for degree, ns in self.prescriptions if degree == n]
            out[f"construct.prescribe.n{n}.p50_ms"] = (
                statistics.median(times) / 1e6 if times else 0.0, "ms")
        out["construct.weight3.mean_ms"] = (mean_us("construct.weight3") / 1e3, "ms")
        out["construct.compose.mean_ms"] = (mean_us("construct.compose") / 1e3, "ms")
        out["construct.prescribe_in_subfield.self_ms_per_op"] = (
            ratio(by_name["construct.prescribe_in_subfield"][2], ops) / 1e6, "ms")

        yielded = sum(e[0] for e in self.enumerations)
        decided = sum(e[1] for e in self.enumerations)
        busy = sum(e[2] for e in self.enumerations)
        out["oracle.enumerate_normal.yield_ratio"] = (ratio(yielded, decided), "ratio")
        out["oracle.elems_per_s"] = (ratio(decided, busy) * 1e9, "1/s")
        out["cli.main.self_ms_per_op"] = (ratio(by_name["cli.main"][2], ops) / 1e6, "ms")
        out["trace.self_time_coverage"] = (ratio(all_self, op_ns), "ratio")
        return out
