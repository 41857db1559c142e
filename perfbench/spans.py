"""Span tracing from outside the program: wrap public functions, keep spans in memory.

Functions are bound by name in several modules (``runner`` imports
``min_eigenvalue``, ``insensitize`` imports ``solve_hum``), so a wrapper
replaces every module attribute that holds the same function object, not
only the defining module's.  Within a module, calls resolve through the
module's globals at call time and therefore reach the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 at the root
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    work: int = 0  # layer-specific work count, e.g. time steps
    nested: bool = False  # an enclosing span has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, kwargs)`` counts its work."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, perf_counter(), parent)
            span.nested = any(spans[i].name == name for i in stack)
            if work is not None:
                span.work = work(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration

        return traced

    def install(self, package: str, targets: dict[str, tuple[str, ...]], work: dict | None = None) -> None:
        """Wrap ``package.<module>.<function>`` for every entry of ``targets``.

        Modules are fetched with ``importlib.import_module``: an attribute
        lookup on the package can return a re-exported function of the same
        name instead of the module.
        """
        work = work or {}
        for module_name, functions in targets.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapped = self.wrap(name, original, work.get(name))
                for holder in _package_modules(package):
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work.

        Inclusive time counts only outermost spans of a name, so a function
        that re-enters itself is not counted twice.
        """
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            row["work"] += span.work
            if not span.nested:
                row["s"] += span.duration
        return out


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
