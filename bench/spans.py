"""Span recording around calls into the ``ael`` package, from outside it.

A ``Tracer`` replaces chosen functions and methods of ``ael`` with
wrappers that record one span per call: name, start, end and the span
that was open when the call began (its parent).  Every module that
imported a wrapped function by name is patched too, so calls made
inside the package are seen as well.  Spans live in compact per-thread
arrays while the run lasts (the Monte Carlo layer calls into the model
from worker threads) and are turned into one ``SpanSet`` at the end.

Nothing under ``src/`` is modified: ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from array import array

import numpy as np


class _Buffer:
    """Spans of one thread; ``stack`` holds the indices of open spans."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]


class Tracer:
    """Records spans for the wrapped targets between install and uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.results: dict[str, list] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1])
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    def wrap(self, name: str, fn, keep_results: bool = False, before=None):
        """``fn`` with a span named ``name`` around every call; ``before``,
        if given, is called just before each span opens."""
        nid = self._name_id(name)
        kept = self.results.setdefault(name, []) if keep_results else None
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            buf, idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(buf, idx)
            if kept is not None:
                kept.append(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        buf, idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(buf, idx)

    def install(self, targets, keep_results=(), before=None) -> None:
        """Wrap each target, given as ``"module.function"`` or
        ``"module.Class.method"`` relative to the ``ael`` package.

        A target the package does not define is skipped and listed in
        ``absent``, so the benchmark keeps running when a later version
        of the package removes a function.  ``before`` maps a target to a
        callable run just before each of its spans opens.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "ael" or n.startswith("ael.")]
        for target in targets:
            modname, _, attr_path = target.partition(".")
            mod = sys.modules.get(f"ael.{modname}")
            owner_name, _, method = attr_path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = None
            if owner is mod:
                raw = getattr(mod, method, None)
            elif isinstance(owner, type):
                raw = owner.__dict__.get(method)
            if raw is None:
                self.absent.append(target)
                continue
            keep = target in keep_results
            hook = (before or {}).get(target)
            if owner is mod:
                wrapped = self.wrap(target, raw, keep, hook)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is raw]:
                        self._patch(m, attr, wrapped)
            elif isinstance(raw, classmethod):
                self._patch(owner, method, classmethod(self.wrap(target, raw.__func__, keep, hook)))
            else:
                self._patch(owner, method, self.wrap(target, raw, keep, hook))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets, keep_results=(), before=None):
        self.install(targets, keep_results, before)
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> "SpanSet":
        """All recorded spans, threads concatenated, parents re-indexed."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for tid, buf in enumerate(self._buffers):
            par = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parents.append(np.where(par >= 0, par + offset, -1))
            names.append(np.frombuffer(buf.name, dtype=np.int32))
            starts.append(np.frombuffer(buf.start, dtype=float))
            ends.append(np.frombuffer(buf.end, dtype=float))
            threads.append(np.full(par.size, tid, dtype=np.int32))
            offset += par.size
        cat = lambda parts, dt: np.concatenate(parts + [np.zeros(0, dt)]).astype(dt)
        return SpanSet(
            list(self.names),
            cat(names, np.int32),
            cat(parents, np.int64),
            cat(starts, float),
            cat(ends, float),
            cat(threads, np.int32),
            self.results,
        )


class SpanSet:
    """Recorded spans as arrays, with the queries the layer metrics need."""

    def __init__(self, names, name, parent, start, end, thread, results):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.thread = thread
        self.results = results
        self.duration = end - start
        covered = np.zeros(name.size)
        child = parent >= 0
        np.add.at(covered, parent[child], self.duration[child])
        # children of one thread are disjoint and nested in their parent
        self.self_time = self.duration - covered

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        """Spans called ``name``, optionally only those whose parent is ``parent``."""
        m = self.name == self._id(name)
        if parent is not None:
            has = m & (self.parent >= 0)
            m = np.zeros_like(m)
            m[has] = self.name[self.parent[has]] == self._id(parent)
        return m

    def select(self, keep: np.ndarray) -> "SpanSet":
        """The spans where ``keep`` holds; parents outside them become -1."""
        index = np.full(self.name.size + 1, -1, dtype=np.int64)  # index[-1] maps parent -1
        index[np.flatnonzero(keep)] = np.arange(np.count_nonzero(keep))
        return SpanSet(self.names, self.name[keep], index[self.parent[keep]], self.start[keep],
                       self.end[keep], self.thread[keep], self.results)

    def count(self, name: str, parent: str | None = None) -> int:
        return int(np.count_nonzero(self.mask(name, parent)))

    def mean(self, name: str, parent: str | None = None, scale: float = 1.0):
        """Mean span duration times ``scale``; None when there is no such span."""
        d = self.duration[self.mask(name, parent)]
        return float(d.mean()) * scale if d.size else None

    def nearest_ancestor(self, names) -> np.ndarray:
        """Index of each span's closest proper ancestor named in ``names`` (-1: none)."""
        ids = [self._id(n) for n in names]
        hit = np.isin(self.name, ids)
        anc = self.parent.copy()
        while True:
            open_ = anc >= 0
            open_[open_] = ~hit[anc[open_]]
            if not open_.any():
                return anc
            anc[open_] = self.parent[anc[open_]]

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent.astype(np.int32),
            start=self.start,
            end=self.end,
            thread=self.thread,
        )

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total ms, self ms) per span name, by total time."""
        rows = []
        for i, n in enumerate(self.names):
            m = self.name == i
            rows.append((n, int(m.sum()), 1e3 * float(self.duration[m].sum()),
                         1e3 * float(self.self_time[m].sum())))
        return sorted(rows, key=lambda r: -r[2])
