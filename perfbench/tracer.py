"""Spans around cmreduce's public functions, installed from outside the package.

A target is patched at every name its callers look up: the attribute on its
own module or class, plus every module-level alias in any ``cmreduce.*``
module that is bound to the same object (``from .quatalg import
quaternion_data`` in ``reduction``, for example).  ``uninstall`` puts every
original object back.

Spans are kept in memory as ``[name, start, end, parent]`` lists, ``parent``
being the index of the enclosing span or -1.  Times are ``time.perf_counter``
seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute path) of every function that gets a span, in the
# metric-name order ``<module>.<attribute path>``.
SPAN_TARGETS = (
    ("quatalg", "is_same_class"),
    ("quatalg", "IdealClassSet.index_of"),
    ("quatalg", "Lattice4.product"),
    ("quatalg", "Lattice4.from_elements"),
    ("quatalg", "quaternion_data"),
    ("quatalg", "lattice_shortest_vectors"),
    ("quatalg", "right_order"),
    ("quatalg", "find_optimal_embedding"),
    ("reduction", "joint_reduce"),
    ("reduction", "reduce_at_prime"),
    ("reduction", "reduce_archimedean"),
    ("classpoly", "hilbert_class_poly"),
    ("classpoly", "j_eval"),
    ("ffield", "roots_with_multiplicity"),
    ("ffield", "FfPoly.pow_mod"),
    ("ssenum", "enumerate_ss"),
    ("quadforms", "reduced_forms"),
    ("quadforms", "admissible_discriminants"),
)

# Called once per candidate j in the supersingular scan: a span each would
# cost more than the call, so these only count.
COUNT_TARGETS = (("ssenum", "weierstrass_from_j"),)

# The two calls ``scan`` makes per discriminant.  Spans on these alone cost
# two wrapper calls per discriminant, so a pass traced with them times each
# discriminant as the untraced program runs it.
DISC_TARGETS = (("reduction", "joint_reduce"), ("reduction", "reduce_archimedean"))


class Tracer:
    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.true_results: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, calls, trues = self.spans, self._stack, self.calls, self.true_results
        clock = time.perf_counter
        calls[name] = 0
        trues[name] = 0

        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # counted before the call: a call that raises (as
            # find_optimal_embedding does for each order it cannot embed
            # into) is a call too
            calls[name] += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if result is True:
                trues[name] += 1
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        """A span from the first resume of the generator to its last; it is
        on the stack only while the generator body runs, so work the
        consumer does between items is not counted as its child."""
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            calls[name] += 1
            try:
                while True:
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[2] = clock()
                    yield item
            finally:
                gen.close()

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(f"cmreduce.{module_name}")
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        name = f"{module_name}.{path}"
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(name, raw.__func__)))
            return
        wrapped = make(name, raw)
        self._set(owner, attr, wrapped)
        if owners:
            return
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is module or not mod_name.startswith("cmreduce."):
                continue
            for alias, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, alias, wrapped)

    def install(self) -> None:
        for module_name, path in self.span_targets:
            self._patch(module_name, path, self._span)
        for module_name, path in self.count_targets:
            self._patch(module_name, path, self._count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name inclusive busy time (outermost span of each name only),
        self time (duration minus direct children) and call counts, plus the
        total of top-level spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        top_level = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
            if parent < 0:
                top_level += dur
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] = busy.get(name, 0.0) + dur
        return {
            "busy_s": busy,
            "self_s": self_time,
            "calls": dict(self.calls),
            "true_results": dict(self.true_results),
            "top_level_s": top_level,
        }

    def top_level_durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, parent in self.spans if n == name and parent < 0]

    def write_spans(self, path: str, origin: float) -> None:
        """Spans as JSON lines ``[name, start, end, parent]``, times in
        seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent]))
                fh.write("\n")
