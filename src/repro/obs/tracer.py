"""Hierarchical spans with monotonic timings — the tracing half of ``repro.obs``.

A *span* is one named, timed region of work.  Spans nest: the span opened
while another is active becomes its child, so a traced formulation session
yields a tree — ``session`` at the root, one ``action.*`` span per GUI
gesture, and inside each action the work it triggered (``spig.construct``,
``candidates.exact``, ``verify.scan``, …).  Timings come from
``time.perf_counter`` (monotonic), never from wall-clock dates.

The module-level :data:`TRACER` is process-wide and **off by default**: when
disabled, :func:`span` returns a shared no-op context manager and the only
cost at an instrumentation site is one attribute load and a branch (the
bound is enforced by ``benchmarks/bench_obs_overhead.py``).  ``REPRO_TRACE=1``
enables it; the knob is read once, when the tracer is built (see
:func:`repro.config.trace_enabled`).  In-process changes go through
:func:`trace`, which force-enables tracing for a block, or
:meth:`Tracer.force`:

>>> from repro.obs import span, trace
>>> with trace() as tracer:
...     with span("outer", kind="demo"):
...         with span("inner"):
...             pass
>>> [s.name for s in tracer.roots]
['outer']
>>> [child.name for child in tracer.roots[0].children]
['inner']
>>> tracer.roots[0].attrs
{'kind': 'demo'}

Two helpers build on spans.  :func:`timed` is a region whose one clock read
feeds both its span (when tracing) and its always-on latency histogram.
:func:`action` is one engine action: the ``action.start``/``action.end``
recorder pair, the profiler's attribution scope, the ``engine.action.<op>``
counter and the ``action.<op>`` timed region, in one ``with``.

Each thread has its own stack of open spans, so a span nests only under
spans its own thread opened: concurrent service sessions never graft their
trees onto each other.  The list of finished roots is shared.
Verification workers are separate *processes* and send their telemetry home
through :mod:`repro.obs.snapshot`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import trace_enabled
from repro.obs.histogram import observe as _observe
from repro.obs.profiler import profile_action as _profile_action
from repro.obs.recorder import RECORDER as _RECORDER
from repro.obs.requests import current_request_id as _current_request_id


class Span:
    """One completed (or still-open) timed region."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration_seconds(self) -> float:
        """Elapsed time; for a still-open span, elapsed so far."""
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first (self, depth) pairs — the rendering order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (seconds, attrs, recursive children)."""
        return {
            "name": self.name,
            "seconds": self.duration_seconds,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {1000 * self.duration_seconds:.2f} ms)"


class timed:
    """A timed region: its span and its ``name`` histogram share one clock
    read.

    The span exists only while tracing; the histogram sample is always
    recorded, once the region completes without raising.
    """

    __slots__ = ("name", "attrs", "span", "start_s", "seconds")

    #: Whether the region feeds its ``name`` histogram.
    _observed = True

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.span: Optional[Span] = None
        self.seconds: Optional[float] = None

    def __enter__(self) -> "timed":
        if TRACER.enabled:
            self.span = Span(self.name, self.attrs)
            TRACER._open(self.span)
            self.start_s = self.span.start_s
        else:
            self.start_s = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes (the span shares this dict)."""
        self.attrs.update(attrs)

    def stop(self) -> float:
        """The region's duration, frozen by the first call.

        Call it where the caller's own report needs the number; the span's
        end and the histogram sample then use the same reading.
        """
        if self.seconds is None:
            self.seconds = time.perf_counter() - self.start_s
        return self.seconds

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = self.stop()
        if self.span is not None:
            TRACER._close(self.span, self.start_s + seconds)
        if exc_type is None and self._observed:
            _observe(self.name, seconds)
        return False


class _SpanHandle(timed):
    """A span with no histogram: the handle :func:`span` returns while
    tracing."""

    __slots__ = ()
    _observed = False


class _NoopHandle:
    """The shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopHandle":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopHandle()


class Tracer:
    """Process-wide span collector.

    ``enabled`` is a plain bool so hot paths pay one attribute load to skip
    instrumentation.  It holds the ``REPRO_TRACE`` value read at start
    unless an override is installed by :meth:`force` / :func:`trace`.
    """

    #: Upper bound on retained root spans — a leak guard for long-lived
    #: processes that trace many sessions without draining.
    MAX_ROOTS = 4096

    def __init__(self) -> None:
        self._configured: bool = trace_enabled()
        self.enabled: bool = self._configured
        self._override: Optional[bool] = None
        self._local = threading.local()
        self.roots: List[Span] = []

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's stack of open spans."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def force(self, enabled: Optional[bool]) -> None:
        """Install an override; ``None`` restores the value read at start."""
        self._override = enabled
        self.enabled = self._configured if enabled is None else enabled

    def reset(self) -> None:
        """Drop all collected spans (and any left open on this thread)."""
        self._stack.clear()
        self.roots.clear()

    def unwind(self, depth: int) -> None:
        """Close and pop every span this thread opened above ``depth``.

        When a traced block raises past a span that was entered but never
        exited (a hand-entered handle, an abandoned generator), the open
        span would otherwise survive on the stack and silently reparent all
        later spans.  :func:`trace` calls this on the way out so the stack
        is always restored to its entry depth.
        """
        stack = self._stack
        now = time.perf_counter()
        while len(stack) > depth:
            abandoned = stack.pop()
            if abandoned.end_s is None:
                abandoned.end_s = now

    # ------------------------------------------------------------------
    # span lifecycle (called by timed)
    # ------------------------------------------------------------------
    def _open(self, span: Span) -> None:
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            # Root spans carry the HTTP correlation id (children inherit by
            # tree position); ``/v1/requests/<id>`` selects roots by it.
            request_id = _current_request_id()
            if request_id is not None:
                span.attrs.setdefault("request_id", request_id)
            self.roots.append(span)
            if len(self.roots) > self.MAX_ROOTS:
                del self.roots[: len(self.roots) - self.MAX_ROOTS]
        stack.append(span)

    def _close(self, span: Span, end_s: float) -> None:
        span.end_s = end_s
        # Tolerate out-of-order closes (e.g. a generator finalised late):
        # pop up to and including this span if present, else ignore.
        stack = self._stack
        if any(entry is span for entry in stack):
            while stack:
                if stack.pop() is span:
                    break

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The innermost span open on this thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def span_count(self) -> int:
        """Total number of recorded spans across all root trees."""
        return sum(1 for root in self.roots for _ in root.walk())


#: The process-wide tracer every instrumentation site consults.
TRACER = Tracer()


def span(name: str, **attrs: Any):
    """Open a traced region: ``with span("spig.construct", edge=3): ...``.

    When tracing is disabled this returns a shared no-op handle — the call
    itself is the entire overhead.
    """
    if not TRACER.enabled:
        return _NOOP
    return _SpanHandle(name, **attrs)


def add_attrs(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op when disabled)."""
    if not TRACER.enabled:
        return
    current = TRACER.current()
    if current is not None:
        current.attrs.update(attrs)


class action(timed):
    """Observe one engine action ``op`` (``new``, ``modify``, …) in one call.

    Entering records ``action.start`` and opens the profiler scope, the
    ``action.<op>`` span (when tracing) and the ``engine.action.<op>``
    counter (when tracing).  The handle's :meth:`~timed.set` fills the
    span's attributes and the ``action.end`` event's fields alike, and
    :meth:`~timed.stop` gives the action's processing time — the same
    number the ``action.<op>`` histogram and ``action.end`` receive.

    >>> from repro.obs import RECORDER, action
    >>> with action("demo") as act:
    ...     act.set(edge=1)
    >>> [e["kind"] for e in RECORDER.snapshot()[-2:]]
    ['action.start', 'action.end']
    """

    __slots__ = ("op", "_scope")

    def __init__(self, op: str) -> None:
        super().__init__("action." + op)
        self.op = op

    def __enter__(self) -> "action":
        _RECORDER.record("action.start", op=self.op)
        self._scope = _profile_action(self.op)
        self._scope.__enter__()
        super().__enter__()
        if TRACER.enabled:
            from repro.obs.metrics import METRICS

            METRICS.inc("engine.action." + self.op)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        super().__exit__(exc_type, exc, tb)
        self._scope.__exit__(exc_type, exc, tb)
        if exc_type is None:
            _RECORDER.record(
                "action.end", op=self.op, **self.attrs, seconds=self.seconds
            )
        return False


@contextmanager
def trace(reset: bool = True):
    """Force-enable tracing for a block and yield the tracer.

    Exception-safe: if the block raises, the tracer's prior enabled/override
    state is restored and any span this thread left open inside the block is
    closed and popped (``Tracer.unwind``), so a failing traced block can
    never corrupt the next one.  With ``reset=True`` (the default) the span
    forest, the metrics registry and the latency histograms all start empty.

    >>> from repro.obs import span, trace
    >>> with trace() as tracer:
    ...     with span("step"):
    ...         pass
    >>> tracer.span_count()
    1
    """
    from repro.obs.histogram import reset_histograms
    from repro.obs.metrics import METRICS

    previous = TRACER._override
    if reset:
        TRACER.reset()
        METRICS.reset()
        reset_histograms()
    depth = len(TRACER._stack)
    TRACER.force(True)
    try:
        yield TRACER
    finally:
        TRACER.force(previous)
        TRACER.unwind(depth)
