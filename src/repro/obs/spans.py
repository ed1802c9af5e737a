"""Lightweight tracing spans for the admission walk and friends.

A span is one timed, tagged region of work; spans nest, so a full
``NetworkCAC.setup`` yields a tree: the root covers the whole walk and
one child covers each hop's reservation (with the switch-level
admission check nested inside it).

The tracer keeps a plain stack -- the protocol code is synchronous and
single-threaded -- and stamps times from the observability clock
(:mod:`repro.obs.clock`), so injecting a
:class:`~repro.obs.clock.ManualClock` makes whole trees
deterministic.  When tracing is off the global tracer is
:data:`NULL_TRACER`, whose ``span()`` hands back one shared no-op
context manager.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from . import clock as _clock

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span",
    "get_tracer",
    "set_tracer",
]


class Span:
    """One timed, tagged region of work in a span tree."""

    __slots__ = ("name", "tags", "start", "end", "children")

    def __init__(self, name: str, tags: Dict[str, object], start: float,
                 end: Optional[float] = None):
        self.name = name
        self.tags = tags
        self.start = start
        self.end = end
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed clock time; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def tag(self, **tags: object) -> "Span":
        """Attach or overwrite tags mid-span; returns self for chaining."""
        self.tags.update(tags)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, depth-first."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        tags = ", ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        return (f"Span({self.name}"
                + (f" [{tags}]" if tags else "")
                + f" {self.start}..{self.end}, "
                  f"children={len(self.children)})")


class _ActiveSpan:
    """Context manager driving one span's lifecycle on the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        stack = self._tracer._stack
        if stack:
            stack[-1].children.append(self._span)
        stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.end = self._tracer.clock.now()
        stack = self._tracer._stack
        # Tolerate a mispaired exit instead of corrupting the stack.
        if stack and stack[-1] is self._span:
            stack.pop()
        if not stack:
            self._tracer.roots.append(self._span)


class Tracer:
    """Collects finished span trees.

    Parameters
    ----------
    clock:
        Time source (``now() -> float``); defaults to the global
        observability clock at creation time.
    keep:
        Cap on retained root spans (oldest evicted first); ``None``
        keeps everything.
    """

    enabled = True

    def __init__(self, clock=None, keep: Optional[int] = None):
        self.clock = clock or _clock.get_clock()
        self.keep = keep
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **tags: object) -> _ActiveSpan:
        """Open a span as a context manager; yields the :class:`Span`."""
        if self.keep is not None and len(self.roots) >= self.keep:
            del self.roots[: len(self.roots) - self.keep + 1]
        return _ActiveSpan(self, Span(name, tags, self.clock.now()))

    def leaf(self, name: str, start: float, end: float,
             tags: Dict[str, object]) -> Span:
        """Record a finished span that opened no span inside it.

        ``start`` and ``end`` are the caller's own reads of the clock,
        so a timed call that also feeds a latency histogram reads it
        twice instead of four times and needs no context manager.  The
        span nests under the innermost open span, as :meth:`span`
        would have put it.
        """
        finished = Span(name, tags, start, end)
        stack = self._stack
        if stack:
            stack[-1].children.append(finished)
            return finished
        if self.keep is not None and len(self.roots) >= self.keep:
            del self.roots[: len(self.roots) - self.keep + 1]
        self.roots.append(finished)
        return finished

    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Drop every collected root (open spans are unaffected)."""
        self.roots.clear()

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"


class _NullSpan:
    """The span handed out while tracing is disabled."""

    __slots__ = ()
    name = "null"
    tags: Dict[str, object] = {}
    start = 0.0
    end = 0.0
    duration = 0.0
    children: List[Span] = []

    def tag(self, **tags: object) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []


class _NullContext:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: collects nothing, allocates nothing."""

    __slots__ = ()
    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **tags: object) -> _NullContext:
        return _NULL_CONTEXT

    def leaf(self, name: str, start: float, end: float,
             tags: Dict[str, object]) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()

_tracer = NULL_TRACER


def get_tracer():
    """The tracer instrumented code currently reports to."""
    return _tracer


def set_tracer(tracer):
    """Install a tracer (or :data:`NULL_TRACER`); returns the old one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def span(name: str, **tags: object):
    """Open a span on the global tracer (no-op when tracing is off)."""
    return _tracer.span(name, **tags)
