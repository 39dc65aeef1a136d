"""In-memory span tracer for the benchmark.

The tracer patches callables on modules and classes with wrappers that
record one span per call: a name, start and end times, and the index of the
enclosing span.  Spans live in flat arrays while the run goes on; per-name
counts and self times are derived from them afterwards, and the raw spans
can be written out when the run ends.  Everything is single-threaded, so
the spans nest properly and a child lies inside its parent's interval.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []            # span name table, indexed by name id
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")  # index of the enclosing span, -1 at top
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._patches = []         # (owner, attr, original __dict__ entry)
        self.counters = {}

    # -- spans --

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name):
        nid = self._name_id(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- counters --

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- patching --

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a spanning wrapper named name.

        note(tracer, args, kwargs, result), when given, runs after the call
        returns to update counters.  Static methods stay static methods."""
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self
        # begin() and end() inlined: the wrapper runs ~10^5 times a pass
        nid = self._name_id(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_start, add_end = starts.append, ends.append
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        new = staticmethod(wrapper) if isinstance(raw, staticmethod) \
            else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results --

    def arrays(self):
        """(name_ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans,
        and the total duration of top-level spans."""
        name_ids, parents, starts, ends = self.arrays()
        dur = ends - starts
        own = self_times(parents, starts, ends)
        calls = np.bincount(name_ids, minlength=len(self.names))
        incl = np.bincount(name_ids, weights=dur, minlength=len(self.names))
        selfs = np.bincount(name_ids, weights=own, minlength=len(self.names))
        out = {name: (int(calls[i]), float(incl[i]), float(selfs[i]))
               for i, name in enumerate(self.names)}
        return out, float(dur[parents < 0].sum())

    def count_under(self, name, ancestor):
        """Number of spans called name that have a span called ancestor
        somewhere above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        hits = 0
        for i, n in enumerate(self.name_ids):
            if n != nid:
                continue
            j = self.parents[i]
            while j >= 0 and self.name_ids[j] != aid:
                j = self.parents[j]
            hits += j >= 0
        return hits

    def save(self, path, window):
        """Write the spans, and the (start, end) perf_counter times of the
        window they were recorded in, to an .npz file."""
        name_ids, parents, starts, ends = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_ids=name_ids,
                            parents=parents, starts=starts, ends=ends,
                            window=np.array(window, dtype=np.float64))


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus its children's durations.

    Spans nest without overlap, so the children of a span cover disjoint
    parts of its interval and their durations simply add up."""
    parents = np.asarray(parents)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts,
                                                          dtype=np.float64)
    inner = parents >= 0
    child = np.bincount(parents[inner], weights=dur[inner],
                        minlength=len(dur))
    return dur - child
