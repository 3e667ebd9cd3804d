"""In-memory spans for the traced run, recorded from the benchmark side.

A span is ``(name, start, end, parent)``.  Spans are opened around calls
into a layer's public functions — either explicitly with :meth:`span` or
by :meth:`SpanRecorder.wrap`, which replaces a method on one instance with
a timing shim, so code inside ``src/`` that calls ``self.flush()`` or
``self.array.write()`` is timed without being edited.

Spans nest through a stack, so they must open and close without yielding
to another coroutine in between; every wrapped call is synchronous, which
keeps this true on the asyncio front-end too.  A span's *self time* is its
duration minus the durations of its direct children (children never
overlap each other on one thread).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects spans in parallel lists; nothing is written until :meth:`dump`."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)

        def shim(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attr, shim)
        self._wrapped.append((owner, attr, original))

    def unwrap(self) -> None:
        """Put back every method :meth:`wrap` replaced."""
        for owner, attr, original in reversed(self._wrapped):
            setattr(owner, attr, original)
        self._wrapped.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total duration ``s`` and ``self_s``."""
        count = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, name in enumerate(self.names):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w") as handle:
            for index, name in enumerate(self.names):
                record = {
                    "id": index,
                    "name": name,
                    "start": self.starts[index] - origin,
                    "end": self.ends[index] - origin,
                    "parent": self.parents[index],
                }
                handle.write(json.dumps(record) + "\n")
