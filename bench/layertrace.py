"""Outside-in layer trace of one ergoqueue invocation.

``Tracer().install()`` wraps every public function and every public method
(plus ``__init__``) of the public classes of the five modules ``cli``,
``estimators``, ``lindley``, ``processes`` and ``odometer``.  Nothing under
``src/`` changes: the wrappers are bound in place of the originals, in the
defining module and in every other of the five modules that imported the
function by name (``cli`` binds ``parse_process`` and ``rng_for``,
``estimators`` binds ``queue_path``, ``processes`` binds ``waiting_path``).

Time is attributed to the layer whose wrapped call is innermost at each
moment, so a layer's self time is its spans' duration minus the time covered
by nested calls into other layers.  The first ``SPAN_CAP`` calls of each
function are kept as spans in memory; later calls (``DyadicPoint`` and
``in_run_seed`` run once per sampled counter) only add to that function's
call count and total time.  ``write_spans`` writes everything out once the
run has ended.
"""

from __future__ import annotations

import functools
import json
import time
import types

from ergoqueue import cli, estimators, lindley, odometer, processes

MODULES = (cli, estimators, lindley, processes, odometer)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)
SPAN_CAP = 256

COUNTERS = (
    "lindley.steps",
    "lindley.couple_steps",
    "lindley.couple_increments",
    "processes.values_drawn",
    "odometer.windows_counted",
    "odometer.memberships",
    "odometer.counters_drawn",
    "estimators.complement_drawn",
    "estimators.complement_accepted",
)

_PROCESS_DRAWS = ("forward", "backward_window", "window_counts")


class Tracer:
    def __init__(self, trace_id: str = "0") -> None:
        self.trace_id = trace_id
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.calls: dict[str, list] = {}  # name -> [calls, seconds]
        self.spans: list[list] = []  # [name, start, end, parent span id]
        self._stack: list[tuple[str, int | None]] = []  # (layer, span id)
        self._last = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        wrapped: set[int] = set()
        for module, layer in zip(MODULES, LAYERS):
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for klass in obj.__mro__:
                        if klass.__module__ == module.__name__ and id(klass) not in wrapped:
                            wrapped.add(id(klass))
                            self._wrap_class(klass, layer)
                elif callable(obj):
                    self._rebind(obj, self._wrap(f"{layer}.{name}", layer, obj))
        return self

    def _rebind(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, klass: type, layer: str) -> None:
        for name, value in list(vars(klass).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qual = f"{layer}.{klass.__name__}.{name}"
            if isinstance(value, staticmethod):
                setattr(klass, name, staticmethod(self._wrap(qual, layer, value.__func__)))
            elif isinstance(value, classmethod):
                setattr(klass, name, classmethod(self._wrap(qual, layer, value.__func__)))
            elif isinstance(value, types.FunctionType):
                setattr(klass, name, self._wrap(qual, layer, value))

    def _wrap(self, name: str, layer: str, func):
        tracer = self
        stats = self.calls.setdefault(name, [0, 0.0])
        short = name.rsplit(".", 1)[1]
        tally = _tally_for(layer, short)
        perf_counter = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            if stack:
                caller, parent = stack[-1]
                self_s[caller] += start - tracer._last
            else:
                caller, parent = None, None
            span = None
            if stats[0] < SPAN_CAP:
                span = len(spans)
                spans.append([name, start, None, parent])
            stack.append((layer, span if span is not None else parent))
            tracer._last = start
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                self_s[layer] += end - tracer._last
                stack.pop()
                tracer._last = end
                stats[0] += 1
                stats[1] += end - start
                if span is not None:
                    spans[span][2] = end
            if tally is not None:
                tally(tracer.counts, caller, args, kwargs, result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {"trace": self.trace_id, "id": i, "name": name,
                          "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
            for name, (calls, seconds) in sorted(self.calls.items()):
                if calls:
                    record = {"trace": self.trace_id, "name": name,
                              "calls": calls, "seconds": seconds}
                    fh.write(json.dumps(record) + "\n")

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _tally_for(layer: str, short: str):
    """Counter update for calls of one function, or None if it counts nothing."""
    if layer == "lindley" and short == "run_recursion":
        def tally(counts, caller, args, kwargs, result):
            counts["lindley.steps"] += result.increments.size
        return tally
    if layer == "lindley" and short == "forward_couple":
        def tally(counts, caller, args, kwargs, result):
            increments = kwargs["increments"] if "increments" in kwargs else args[1]
            counts["lindley.steps"] += result.steps_run
            counts["lindley.couple_steps"] += result.steps_run
            counts["lindley.couple_increments"] += len(increments)
        return tally
    if layer == "processes" and short in _PROCESS_DRAWS:
        def tally(counts, caller, args, kwargs, result):
            # a draw nested in another processes call is already counted there
            if caller != "processes":
                counts["processes.values_drawn"] += len(result)
        return tally
    if layer == "odometer" and short == "window_arrival_counts":
        def tally(counts, caller, args, kwargs, result):
            counts["odometer.windows_counted"] += len(result)
            if caller == "estimators":
                counts["estimators.complement_accepted"] += len(result)
        return tally
    if layer == "odometer" and short == "in_arrival_set_batch":
        def tally(counts, caller, args, kwargs, result):
            counts["odometer.memberships"] += result.size
        return tally
    if layer == "odometer" and short == "in_arrival_set":
        def tally(counts, caller, args, kwargs, result):
            counts["odometer.memberships"] += 1
        return tally
    if layer == "odometer" and short == "uniform_counters":
        def tally(counts, caller, args, kwargs, result):
            counts["odometer.counters_drawn"] += result.size
            if caller == "estimators":
                counts["estimators.complement_drawn"] += result.size
        return tally
    return None
