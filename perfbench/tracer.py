"""In-memory spans around wzkit's public callables, installed from outside.

Every public function of a wzkit module (its ``__all__``) is replaced, in every
wzkit namespace that holds it, by a wrapper that records one span: name,
start, end and parent.  Callers inside the package reach the wrappers because
they look those names up in their own module at call time, so a call such as
``codec.decode -> sp_decode`` nests under the span that caused it.  Nothing
inside ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from typing import Callable

# Method spans: the public callables of classes the pipeline drives.
_METHODS = {"codec": {"CompoundQuantizer": ("__init__", "quantize", "coefficients")}}


def _count_result(name: str, out) -> dict | None:
    """Work counts carried by a layer's own return value."""
    if name == "quantizer.bip_quantize":
        return {"rounds": out.rounds, "conflict_events": out.conflict_events}
    if name == "decoder.sp_decode":
        return {"iterations": out.iterations, "converged": int(out.converged)}
    if name == "builder.peg_generate":
        return {"edges": sum(len(s) for s in out.row_support)}
    return None


class Tracer:
    """Spans as [name, start, end, parent index, counts], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = _count_result(name, out)
            return out
        return traced

    def install(self, package) -> None:
        """Wrap every public function of every submodule of ``package``."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in ("gf2", "degrees", "builder", "quantizer",
                                "decoder", "codec", "cli")}
        namespaces = [package, *modules.values()]
        wrapped = set()
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn) or fn in wrapped:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                wrapped.add(traced)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, traced)
        for short, classes in _METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth,
                            self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        while self._undo:
            ns, key, fn = self._undo.pop()
            setattr(ns, key, fn)

    # -- reading the spans -------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, dict[str, list]]:
        own = self.self_times()
        out: dict[str, dict[str, list]] = {}
        for (name, start, end, _, counts), s in zip(self.spans, own):
            rec = out.setdefault(name, {"dur": [], "self": [], "counts": []})
            rec["dur"].append(end - start)
            rec["self"].append(s)
            if counts is not None:
                rec["counts"].append(counts)
        return out

    def roots(self) -> list[int]:
        """Index of the outermost span enclosing each span (itself for a root)."""
        root: list[int] = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def parents_from_times(self) -> list[int]:
        """Each span's parent as the times alone give it: the innermost span
        that encloses it, -1 for none, and -2 for a span that overlaps another
        without nesting in it."""
        parent = [-1] * len(self.spans)
        order = sorted(range(len(self.spans)),
                       key=lambda i: (self.spans[i][1], -self.spans[i][2], i))
        stack: list[int] = []
        for i in order:
            start, end = self.spans[i][1], self.spans[i][2]
            while stack and self.spans[stack[-1]][2] <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1] if end <= self.spans[stack[-1]][2] else -2
            stack.append(i)
        return parent

    def covered(self, t0: float, t1: float) -> tuple[float, int, int]:
        """For the spans that lie inside [t0, t1]: their self times summed, how
        many there are, and how many of them are filed under another parent
        than the innermost span enclosing them.  Spans filed under a parent
        outside the window, or spans that overlap, make the sum exceed
        t1 - t0; a span closed early makes it fall short."""
        own = self.self_times()
        by_time = self.parents_from_times()
        inside = [i for i, (_, start, end, _, _) in enumerate(self.spans)
                  if t0 <= start and end <= t1]
        misfiled = sum(self.spans[i][3] != by_time[i] for i in inside)
        return sum(own[i] for i in inside), len(inside), misfiled


def per_span_overhead(calls: int = 20000) -> float:
    """Seconds one wrapped call costs beyond the bare call, median of 5."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(samples), 0.0)
