"""In-memory span recorder that wraps the public functions of the package.

``Recorder.install`` replaces every public module-level function and
every public method of the package's classes by a wrapper that records
one span (name, start, end, parent) per call.  A function is replaced
in its own module and in every module that imported it by name (for
example ``isocone.spectrum`` and ``causal_cone.is_psd``); methods are
replaced on their class, and the package's own re-exports are patched
too.  Spans of ``hermitian.spectrum`` are named by the dimension of
their argument (``hermitian.spectrum.d4``).  Spans live in flat arrays
until ``write``.  Properties and dunder methods are left alone;
``HermMat.__init__`` only counts constructions.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Wrap ``fn`` so that every call records one span named ``name``."""
        by_dim = name == "hermitian.spectrum"
        fixed = None if by_dim else self._id(name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock, span_id = self._stack, time.perf_counter, self._id

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(span_id(f"{name}.d{args[0].dim}") if by_dim else fixed)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def count(self, cls, attr: str, name: str) -> None:
        """Count calls of ``cls.attr`` without recording spans."""
        fn = getattr(cls, attr)
        counter = self.counters.setdefault(name, [0])

        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        setattr(cls, attr, counted)

    def install(self, package, modules) -> None:
        """Wrap the public callables of ``package``'s submodules ``modules``."""
        modules = {short: getattr(package, short) for short in modules}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.wrap(obj, name)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in [*modules.values(), package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name))

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """{span name: (calls, total self seconds)}.

        Self time is a span's duration minus the durations of its
        direct children; spans nest strictly in one thread.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}
