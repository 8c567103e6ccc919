"""In-memory span tracing around the public calls into each layer.

Spans are recorded from outside the program: :meth:`Tracer.wrap` replaces
a bound method on one object (a Session, a service, a backing store) with
a wrapper that opens a span around the call.  Nothing under ``src/`` is
patched at class level, so an untraced run executes exactly the code a
user's process would.

A span is ``(id, name, start, end, parent, request id, attrs)``.  Parents
come from a per-thread stack; a span opened on another thread (a service
worker running a query) is linked to its request afterwards with
:meth:`Tracer.adopt`, keyed by the identity of the object the call
returned.  Spans stay in memory and are written as JSON lines by
:meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], request: Optional[str]):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "attrs": self.attrs}


class Tracer:
    """Collects spans from any thread; cheap enough to leave on per call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: spans whose call returned an object a client will later hold,
        #: keyed by that object's id (see adopt)
        self._by_result: Dict[int, Span] = {}
        #: (object, method name, wrapper) for every wrapped method
        self._installed: List[Any] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None,
             **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(next(self._ids), name, time.perf_counter(),
                      parent.id if parent is not None else None, request)
        record.attrs.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, obj: Any, method: str, name: str,
             annotate: Optional[Callable[..., Dict[str, Any]]] = None,
             adoptable: bool = False) -> None:
        """Trace every call of ``obj.method`` as a span called ``name``.

        ``annotate(args, kwargs, result)`` adds attributes after the call.
        With ``adoptable`` the span is remembered by the identity of the
        returned object, so the thread that receives it can adopt it.
        """
        inner = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = inner(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(args, kwargs, result))
                if adoptable:
                    with self._lock:
                        self._by_result[id(result)] = record
                return result

        setattr(obj, method, traced)
        self._installed.append((obj, method, traced))

    def pause(self) -> None:
        """Remove every wrapper: the objects run their own methods again."""
        for obj, method, _traced in self._installed:
            delattr(obj, method)

    def resume(self) -> None:
        """Reinstall the wrappers removed by :meth:`pause`."""
        for obj, method, traced in self._installed:
            setattr(obj, method, traced)

    def adopt(self, result: Any, parent: Span) -> Optional[Span]:
        """Link the span that produced ``result`` under ``parent``.

        Call it while ``result`` is still alive, so its id is not reused.
        """
        with self._lock:
            record = self._by_result.pop(id(result), None)
        if record is not None:
            record.parent = parent.id
            record.request = parent.request
        return record

    def named(self, name: str) -> List[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        with self._lock:
            for span in self.spans:
                if span.parent is not None:
                    out.setdefault(span.parent, []).append(span)
        return out

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write a header line, then one JSON object per span."""
        with self._lock:
            spans = sorted(self.spans, key=lambda span: span.start)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for span in spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """The span's duration minus the part its child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered
