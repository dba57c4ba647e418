"""Outside-in span tracer for a package's public functions and methods.

The tracer never edits the program.  It replaces each public function, each
public method and each arithmetic dunder of the package's classes with a
wrapper, and it rebinds every module-level name that refers to a wrapped
function, so ``from .cyclotomic import inv`` in another module is traced too.

Each wrapped call records a span ``(id, parent_id, name, start, end,
child_s)``, where ``child_s`` is the time covered by its direct child spans.
Spans stay in memory; :meth:`Tracer.summary` turns them into self times per
layer (the first component of a span name, i.e. the module) and per scope.

A few functions are *counted only*: they run tens of thousands of times per
pass and do almost nothing, so a span each would mostly measure the tracer.
Their time stays with the calling span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Dunders traced alongside public names: the arithmetic a number type runs on.
TRACED_DUNDERS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__",
    }
)


def _is_plain_callable(obj, module_name: str) -> bool:
    """A function, or an ``lru_cache`` wrapper, defined in ``module_name``."""
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == module_name
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Spans and call counts for one traced pass.

    ``count_only`` names get a counter but no span.  ``result_hooks`` maps a
    span name to a function of its return value, called on every return.
    """

    def __init__(self, count_only=(), result_hooks=None) -> None:
        self.count_only = frozenset(count_only)
        self.result_hooks = dict(result_hooks or {})
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()  # (binding, name) -> calls
        self.originals: dict[str, object] = {}
        self.active = False
        self._stack: list[list] = []
        self._next_id = 0

    # -- span bookkeeping --------------------------------------------------

    def _open(self) -> None:
        self._stack.append([self._next_id, perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, name: str) -> None:
        end = perf_counter()
        sid, start, child = self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent[2] += end - start
            pid = parent[0]
        else:
            pid = -1
        self.spans.append((sid, pid, name, start, end, child))

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, such as one benchmark op."""
        self._open()
        try:
            yield
        finally:
            self._close(name)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, binding: str):
        tracer = self
        key = (binding, name)
        if name in self.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the consumer runs between yields.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name)
                    yield item

            return traced_gen

        hook = self.result_hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _wrap_member(self, cls, attr: str, member, name: str) -> None:
        if isinstance(member, (classmethod, staticmethod)):
            inner = self._wrap(member.__func__, name, "class")
            setattr(cls, attr, type(member)(inner))
        elif isinstance(member, types.FunctionType):
            setattr(cls, attr, self._wrap(member, name, "class"))

    def install(self, package: str) -> None:
        """Wrap every public callable of the already-imported ``package``."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        by_id: dict[int, str] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_plain_callable(obj, mod.__name__):
                    name = f"{layer}.{attr}"
                    by_id[id(obj)] = name
                    self.originals[name] = obj
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for m_attr, member in list(vars(obj).items()):
                        if m_attr.startswith("_") and m_attr not in TRACED_DUNDERS:
                            continue
                        self._wrap_member(obj, m_attr, member, f"{layer}.{obj.__name__}.{m_attr}")
        for mod in modules:
            binding = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                name = by_id.get(id(obj))
                if name is not None:
                    setattr(mod, attr, self._wrap(obj, name, binding))

    # -- results ---------------------------------------------------------------

    def call_count(self, *names: str, binding: str | None = None) -> int:
        return sum(
            n for (b, name), n in self.calls.items()
            if name in names and (binding is None or b == binding)
        )

    def summary(self, scopes: dict[str, frozenset]) -> dict:
        """Aggregate the spans.

        ``scopes`` maps a scope name to the span names that open it.  A span
        lies in every scope opened by itself or an ancestor.  Returns self
        time per layer, per (scope, layer) and per span name, and total
        duration per span name.
        """
        opened_by = defaultdict(set)
        for scope, names in scopes.items():
            for n in names:
                opened_by[n].add(scope)
        rows = sorted(self.spans)  # by id: a parent opens before its children
        in_scope: dict[int, frozenset] = {-1: frozenset()}
        self_by_layer: Counter = Counter()
        self_by_scope: Counter = Counter()
        self_by_name: Counter = Counter()
        dur_by_name: Counter = Counter()
        for sid, pid, name, start, end, child in rows:
            active = in_scope[pid] | opened_by[name] if name in opened_by else in_scope[pid]
            in_scope[sid] = active
            layer = name.split(".", 1)[0]
            own = (end - start) - child
            self_by_layer[layer] += own
            self_by_name[name] += own
            dur_by_name[name] += end - start
            for scope in active:
                self_by_scope[(scope, layer)] += own
        return {
            "self_by_layer": self_by_layer,
            "self_by_scope": self_by_scope,
            "self_by_name": self_by_name,
            "dur_by_name": dur_by_name,
        }
