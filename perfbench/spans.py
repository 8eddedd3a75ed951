"""In-memory spans for the traced run, and the per-layer sums derived from them.

A span records a name, its start and end (``time.perf_counter``), the index
of the span that was open when it started, and free-form attributes.  Each
run nests its work as ``pass > {setup, run, check} > <layer call>``, so a
layer's time can be summed per phase.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

PHASES = ("setup", "run", "check")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records every span it is asked for."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), parent, attrs)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


class Profile:
    """Inclusive and self seconds per (phase, span name).

    Self time is a span's duration minus the time its direct children cover.
    Spans that are not inside a ``pass`` span are ignored.
    """

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.passes = sum(1 for s in spans if s.name == "pass")
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        self.phase: list[str | None] = []
        self.incl: dict[tuple[str, str], float] = defaultdict(float)
        self.self: dict[tuple[str, str], float] = defaultdict(float)
        for i, s in enumerate(spans):
            parent = spans[s.parent] if s.parent is not None else None
            if s.name in PHASES and parent is not None and parent.name == "pass":
                phase = s.name
            elif parent is not None:
                phase = self.phase[s.parent]
            else:
                phase = None
            self.phase.append(phase)
            if phase is not None:
                self.incl[phase, s.name] += s.seconds
                self.self[phase, s.name] += s.seconds - child_time[i]

    def per_pass(self, phase: str, name: str, self_time: bool = False) -> float:
        table = self.self if self_time else self.incl
        return table.get((phase, name), 0.0) / max(self.passes, 1)

    def in_phase(self, phase: str, name: str):
        """The spans called `name` inside `phase`, in start order."""
        return [s for i, s in enumerate(self.spans)
                if s.name == name and self.phase[i] == phase]

    def module_self(self, phase: str) -> dict[str, float]:
        """Self seconds per module (the span name up to its first dot)."""
        out: dict[str, float] = defaultdict(float)
        for (ph, name), secs in self.self.items():
            if ph == phase and "." in name:
                out[name.split(".", 1)[0]] += secs
        return dict(out)
