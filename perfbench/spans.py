"""Span recorder for the traced benchmark run.

The benchmark never edits the program.  It wraps the public functions
of each layer from the outside (:meth:`SpanRecorder.wrap` swaps a class
attribute or module function for a timing wrapper and
:meth:`SpanRecorder.restore` puts the original back).  Each call
records one span: name, start, end, parent span (a per-thread stack)
and request id (the id of the outermost span on that thread's stack).

:func:`reduce_spans` turns the span list into self times: a span's
duration minus the time its child spans cover.  Children of one span
run on the same thread one after another, so within a request the self
times of every span sum to the request span's duration.  The gap from
a request's start to its first child's start is reported separately
as its ``lead`` (for a ``ShardedDILI`` call: the wait for the
coordinator lock); ``self`` excludes it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time


class SpanRecorder:
    """Collects spans in memory from wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: While False, wrapped calls run without recording a span.
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, *, size_arg=None,
             probes=None, marks=None, keep=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``size_arg`` is the index of a positional argument whose length
        is stored as the span's ``n``.  ``probes`` and ``marks`` map a
        span key to a callable of the first argument (the receiver):
        a probe stores its value after the call minus before it, a mark
        its value before the call.  ``keep`` is a list that collects
        every receiver.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else None,
            "thread": threading.get_ident(),
            "n": None,
        }
        if span["request"] is None:
            span["request"] = span["id"]
        if size_arg is not None and len(args) > size_arg:
            span["n"] = len(args[size_arg])
        receiver = args[0] if args else None
        if keep is not None:
            keep.append(receiver)
        for key, mark in (marks or {}).items():
            span[key] = mark(receiver)
        before = (
            {key: probe(receiver) for key, probe in probes.items()}
            if probes else None
        )
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if probes:
                for key, probe in probes.items():
                    span[key] = probe(receiver) - before[key]
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str | None = None, **options) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        The span is named ``name``, by default ``Owner.attr``.
        ``options`` are passed to :meth:`call`.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = getattr(owner, attr)  # bound, for a classmethod
        label = name or f"{owner.__name__}.{attr}"
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(label, original, args, kwargs, **options)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr,
                staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body's wrapped calls without recording spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


def reduce_spans(spans: list[dict]) -> list[dict]:
    """Annotate each span with ``dur``, ``self`` and ``lead`` seconds.

    ``lead`` is nonzero only on a request span (no parent) with
    children: the time from its start to its first child's start.
    ``self`` is the duration minus the children's durations minus the
    lead, so ``self + lead`` summed over a request's spans equals the
    request span's duration.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        dur = span["end"] - span["start"]
        kids = children.get(span["id"], ())
        covered = sum(k["end"] - k["start"] for k in kids)
        lead = 0.0
        if span["parent"] is None and kids:
            lead = min(k["start"] for k in kids) - span["start"]
        out.append({**span, "dur": dur, "self": dur - covered - lead,
                    "lead": lead})
    return out
