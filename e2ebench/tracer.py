"""In-memory span recorder that wraps the program's public functions.

The benchmark never edits the program: a :class:`Tracer` replaces public
functions and methods with thin wrappers that open a span around each
call, and :meth:`Tracer.restore` puts the originals back.  A span records
its name, start, end, parent and request id.  The current span lives in a
``ContextVar``, and while tracing is on ``ThreadPoolExecutor.submit`` is
wrapped to carry the submitting thread's context into the pool thread, so
spans opened on the router's front and lane threads keep their request as
parent.

Spans are appended to a plain list (atomic under the interpreter lock), and
the recorder takes no lock: the process-shard router forks workers while
tracing is on, and a forked child must never inherit a held lock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "e2ebench_span", default=None)


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``perf_counter`` seconds."""

    sid: int
    name: str
    start: float
    parent: int | None
    req: int | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "req": self.req,
                "error": self.error, **({"attrs": self.attrs} if self.attrs else {})}


class _SpanScope:
    __slots__ = ("tracer", "span", "token")

    def __init__(self, tracer: "Tracer", name: str, req: int | None):
        parent = _CURRENT.get()
        if req is None and parent is not None:
            req = parent.req
        self.tracer = tracer
        self.span = Span(next(tracer._ids), name, 0.0,
                         parent.sid if parent is not None else None, req)
        self.token = None

    def __enter__(self) -> Span:
        self.token = _CURRENT.set(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def detach(self) -> None:
        """Stop being the current span; the span itself stays open."""
        _CURRENT.reset(self.token)

    def finish(self, error: bool = False) -> None:
        """Close the span (after :meth:`detach`) and record it."""
        self.span.end = time.perf_counter()
        self.span.error = error
        self.tracer.spans.append(self.span)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.detach()
        self.finish(exc_type is not None)
        return False


class Tracer:
    """Records spans while :attr:`enabled`; wraps callables on request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def span(self, name: str, *, req: int | None = None) -> _SpanScope:
        return _SpanScope(self, name, req)

    def _wrapper(self, fn, name: str, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with _SpanScope(tracer, name, None) as sp:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    sp.attrs.update(annotate(args, kwargs, out))
                return out

        return traced

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, fn, name: str, annotate=None) -> None:
        """Wrap module-level function ``fn`` wherever a ``repro`` module
        holds a reference to it (``from x import fn`` copies the name)."""
        traced = self._wrapper(fn, name, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def wrap_method(self, cls, attr: str, name: str, annotate=None) -> None:
        """Wrap ``cls.attr`` (a plain method or ``classmethod``)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrapper(raw.__func__, name, annotate))
        else:
            traced = self._wrapper(raw, name, annotate)
        self._set(cls, attr, traced)

    def propagate_context(self) -> None:
        """Run every pool task in its submitter's span context."""
        original = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return original(pool, ctx.run, fn, *args, **kwargs)

        self._set(ThreadPoolExecutor, "submit", submit)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- span-tree arithmetic -------------------------------------------------------

def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of ``[start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanTree:
    """Parent/child index over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it its children cover."""
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in self.children.get(span.sid, ())]
        kids = [(s, e) for s, e in kids if e > s]
        return span.duration - union_length(kids)

    def descendants(self, span: Span) -> list[Span]:
        out, stack = [], [span]
        while stack:
            for c in self.children.get(stack.pop().sid, ()):
                out.append(c)
                stack.append(c)
        return out

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]
