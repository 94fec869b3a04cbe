"""In-memory span tracer that wraps the package's public functions.

The program itself carries no instrumentation. ``Tracer.install`` replaces
every module attribute of ``sdma_capacity`` that binds a public function
defined in the package (names imported with ``from ... import`` included,
e.g. ``montecarlo.sinr_sample`` or ``cli.find_max_density``) by a wrapper
that records one span per call: name id, parent span, start, end. Spans
live in flat arrays until the run ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

PACKAGE = "sdma_capacity"


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_package_function(obj) -> bool:
    # plain functions, and lru_cache wrappers (which carry cache_info)
    is_fn = callable(obj) and (hasattr(obj, "__code__") or hasattr(obj, "cache_info"))
    return is_fn and not isinstance(obj, type) and \
        getattr(obj, "__module__", "").startswith(PACKAGE)


class Tracer:
    """Spans for every call of a wrapped function, plus per-call details.

    ``details`` maps a span name to a callback ``(args, kwargs, result,
    error) -> value``; its values are kept per span in ``extra``. Calls made
    while ``active`` is false (reference values, correctness gates) are not
    recorded.
    """

    def __init__(self, details: dict | None = None):
        self.details = details or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.active = False

    def _wrap(self, fn):
        name = _span_name(fn)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        detail = self.details.get(name)
        stack, ids, parents, starts, ends = (self._stack, self.name_id, self.parent,
                                             self.start, self.end)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            result, error = None, None
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if detail is not None:
                    self.extra[idx] = detail(args, kwargs, result, error)

        return traced

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_package_function(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                    self.originals[_span_name(obj)] = obj
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns, self ns."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parents >= 0
        child_ns = np.bincount(parents[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_ns = dur - child_ns
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur, minlength=n)
        excl = np.bincount(ids, weights=self_ns, minlength=n)
        return {name: {"calls": int(calls[i]), "ns": float(incl[i]),
                       "self_ns": float(excl[i])}
                for i, name in enumerate(self.names)}

    def spans_of(self, name: str) -> np.ndarray:
        """Span indices of one name, in call order."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid)

    def children_of(self, parent_name: str, child_name: str) -> np.ndarray:
        """Indices of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        kids = self.spans_of(child_name)
        if kids.size == 0:
            return kids
        parents = np.frombuffer(self.parent, dtype=np.int32)[kids]
        pid = self._ids.get(parent_name)
        if pid is None:
            return kids[:0]
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        ok = parents >= 0
        ok[ok] = ids[parents[ok]] == pid
        return kids[ok]

    def duration_ns(self, idx: np.ndarray) -> float:
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return float(dur[idx].sum())
