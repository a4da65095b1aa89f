"""Outside-in span tracer for bogoflow.

The tracer wraps every module-level function of the given modules by
replacing module attributes; the program itself is not modified.  A
function is re-bound under the same wrapper in every module that holds
it (``from .flow import g_check`` in ``spectrum`` binds a second name
for the same object), so each call records exactly one span whichever
module the caller looked it up in.  Calls from inside a function to a
name in its own module go through that module's globals and are traced
too; calls into compiled code (numba kernels calling each other) are not.

Spans are kept in memory until the run ends.  A span's parent is the
span open on the same thread when it started, so a span's children run
sequentially inside it and its self time is its duration minus the sum
of its children's durations.
"""

import functools
import itertools
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str  # "<module>.<function>", leading underscore of the module dropped
    start: float
    end: float
    parent: int  # 0 for a root span
    thread: int
    value: Any = None  # what the probe for this name read off the result

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class FunctionStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def span_name(module_name: str, attr: str) -> str:
    return f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{attr}"


class Tracer:
    """Records a span around each call of the wrapped functions.

    probes maps a span name to a function of the call's return value;
    its result is stored on the span (e.g. the iteration count a solver
    returns).
    """

    def __init__(self, package, layers, probes: Optional[Dict[str, Callable]] = None):
        self.modules = [package, *layers]
        self.layers = layers
        self.probes = probes or {}
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = self.probes.get(name)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = probe(result) if probe else None
            spans.append(Span(sid, name, start, end, parent, threading.get_ident(), value))
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.layers:
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(span_name(mod.__name__, attr), obj))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the durations of its children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def function_stats(spans) -> Dict[str, FunctionStats]:
    """Calls, inclusive and self time per span name."""
    own = self_times(spans)
    stats = defaultdict(FunctionStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.inclusive_s += s.duration
        st.self_s += own[s.id]
    return dict(stats)


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called name that run inside a span called ancestor."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count
