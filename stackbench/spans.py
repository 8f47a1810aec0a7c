"""In-memory spans around each layer's public functions.

A :class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call: ``(id, name, start_ns, end_ns, parent_id,
attrs)``. Times are ``time.monotonic_ns()`` (``CLOCK_MONOTONIC``), which
every process on the host shares, so spans from the client, router,
leader and replica line up on one time axis; a span belongs to the client
request whose interval contains its start. The parent is the span open in
the same thread (or asyncio task) when the call began.

Wrappers are installed and removed as a whole (:meth:`Tracer.install`,
:meth:`Tracer.uninstall`), so an untraced stretch of a run pays nothing.
Spans stay in memory until :meth:`Tracer.dump` writes them as JSON.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import socket
import time

_now = time.monotonic_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("stackbench_span", default=-1)
        self._patches: list = []
        self.installed = False

    # -- recording -----------------------------------------------------

    def record(self, name: str, start: int, end: int, parent: int,
               attrs=None, span_id=None) -> None:
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, attrs))

    def _wrap(self, original, name: str, attrs):
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                span_id = next(tracer._ids)
                parent = tracer._current.get()
                token = tracer._current.set(span_id)
                start = _now()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer.record(name, start, _now(), parent, None, span_id)

            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(span_id)
            start = _now()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = _now()
                tracer._current.reset(token)
                extra = attrs(args, kwargs, result) if attrs is not None else None
                tracer.record(name, start, end, parent, extra, span_id)

        return traced

    def timed_rows(self, rows, name: str):
        """Wrap a row iterator: one span per drain whose ``busy_ns`` counts
        only the time spent inside the iterator's ``next``."""
        tracer = self
        busy = 0
        count = 0
        first = None
        parent = -1
        iterator = iter(rows)
        try:
            while True:
                start = _now()
                if first is None:
                    first = start
                    parent = tracer._current.get()
                try:
                    row = next(iterator)
                except StopIteration:
                    busy += _now() - start
                    return
                busy += _now() - start
                count += 1
                yield row
        finally:
            if first is not None:
                tracer.record(name, first, _now(), parent,
                              {"busy_ns": busy, "rows": count})

    # -- patching ------------------------------------------------------

    def patch(self, owner, attribute: str, name: str, attrs=None) -> None:
        """Register ``owner.attribute`` (a module function, method, static
        or class method) to be wrapped in spans called ``name``. ``attrs``,
        if given, maps ``(args, kwargs, result)`` to a dict stored on the
        span."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, attrs))
        else:
            wrapped = self._wrap(raw, name, attrs)
        self._patches.append((owner, attribute, raw, wrapped))

    def replace(self, owner, attribute: str, factory) -> None:
        """Register a custom wrapper: ``factory(original)`` returns it."""
        raw = inspect.getattr_static(owner, attribute)
        self._patches.append((owner, attribute, raw, factory(raw)))

    def install(self) -> None:
        for owner, attribute, _raw, wrapped in self._patches:
            setattr(owner, attribute, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attribute, raw, _wrapped in self._patches:
            setattr(owner, attribute, raw)
        self.installed = False

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class TimedSocket:
    """A socket stand-in that records ``recv`` and ``sendall`` time while
    its tracer is installed; everything else goes to the real socket."""

    def __init__(self, sock: socket.socket, tracer: Tracer, prefix: str):
        self._sock = sock
        self._tracer = tracer
        self._recv_name = prefix + ".recv_wait"
        self._send_name = prefix + ".send"

    def recv(self, size: int) -> bytes:
        if not self._tracer.installed:
            return self._sock.recv(size)
        start = _now()
        data = self._sock.recv(size)
        self._tracer.record(self._recv_name, start, _now(),
                            self._tracer._current.get())
        return data

    def sendall(self, data) -> None:
        if not self._tracer.installed:
            return self._sock.sendall(data)
        start = _now()
        self._sock.sendall(data)
        self._tracer.record(self._send_name, start, _now(),
                            self._tracer._current.get())

    def __getattr__(self, attribute):
        return getattr(self._sock, attribute)
