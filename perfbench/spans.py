"""Layer tracing from outside the program.

A `Recorder` replaces public functions of chatmine modules with wrappers
that record one span per call: name, start, end and the span that was open
when the call began. Spans live in flat arrays in memory and are written out
once at the end. Replacing a module attribute catches internal calls too,
because chatmine modules look their callees up by name at call time; a
function another module imported by name is replaced there as well.

`uninstall` puts every original back, so untraced passes pay nothing.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def is_open(self, name):
        """Whether a span of this name encloses the current call."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name_of[i] == nid for i in self._stack)

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(result, args, kwargs)
        runs once the span has closed."""
        nid = self._id(name)
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, make_wrapper):
        """Replace owner.attr (a module or class) by make_wrapper(original).

        For a module function, every loaded chatmine module that holds the
        same object under any name gets the wrapper. An attribute that no
        longer exists is noted in `missing` and skipped.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._swap(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.split(".")[0] == "chatmine":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, name, wrapper)

    def _swap(self, owner, name, wrapper):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def totals(self):
        """name -> (calls, self seconds, inclusive seconds)."""
        name_of, start, end, parent = self.arrays()
        own = self_times(start, end, parent)
        n = len(self.names)
        calls = np.bincount(name_of, minlength=n)
        own_s = np.bincount(name_of, weights=own, minlength=n)
        incl_s = np.bincount(name_of, weights=end - start, minlength=n)
        return {
            name: (int(calls[i]), float(own_s[i]), float(incl_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        name_of, start, end, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_of=name_of,
            start=start,
            end=end,
            parent=parent,
        )


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.
    Spans come from one thread, so children nest inside their parent and
    never overlap one another."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered
