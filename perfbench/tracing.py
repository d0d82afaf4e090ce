"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, a parent span and an op id.  Spans are
appended to flat arrays while the run executes and written out once, when
the run ends.  A layer's self time is its span's duration minus the time
its direct child spans cover; spans nest strictly because the benchmark is
single-threaded.

Wrappers are installed only by the traced run, from the benchmark's own
files: ``Tracer.wrap`` returns a recording copy of a function and
``Tracer.patch`` replaces a public name where its caller looks it up, until
``Tracer.restore`` puts the original back.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = -1
        # Counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        # (spec, complex sample points) seen by the dynamics layer.
        self.sample_points: list = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """Recording copy of ``fn``.

        ``name`` is a string or a function of the call's positional
        arguments.  ``observe(args, result, exc)`` runs after the span
        closes, so counting costs no layer time.
        """
        name_of = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            idx = self._open(name_of(args))
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._close(idx)
                if observe is not None:
                    observe(args, result, exc)

        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Span name -> (number of spans, total self time in seconds)."""
        n = len(self._name)
        child = [0.0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self._name[i]]
            calls[name] += 1
            self_s[name] += self._end[i] - self._start[i] - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def dump(self, path) -> None:
        """Write every span as CSV: name, start_s, end_s, parent, op."""
        t0 = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self._name)):
                fh.write(f"{i},{self.names[self._name[i]]},"
                         f"{self._start[i] - t0:.9f},{self._end[i] - t0:.9f},"
                         f"{self._parent[i]},{self._op[i]}\n")
