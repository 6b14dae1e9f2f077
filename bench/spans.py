"""In-process span tracing of the rootcensus layers.

`Tracer.install()` replaces every public function binding in the layer
modules (and the package namespace) with a wrapper that records a span:
name, start, end, parent span and a few notes read from the arguments or
the result. Because each module looks its callees up in its own
namespace at call time, wrapping the names a module binds from the layer
below (`classify.isolate_roots`, `roots.squarefree_decomposition`,
`census.modulus_profile`, ...) puts a span at every layer boundary
without touching the package source. `uninstall()` restores the
original bindings.

Spans stay in memory until `write()` dumps them, so the traced run pays
for a list append per call and no I/O.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
import types
from typing import Callable, Dict, List

LAYERS = ("intpoly", "modp", "roots", "classify", "census")

# fields of a span record
NAME, START, END, PARENT, OUTER, NOTE = range(6)
# span_cost() times this many rounds of this many calls each way
CALIBRATION_ROUNDS = 15
CALIBRATION_CALLS = 20000


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _note_profile(args, kwargs, result):
    return {"degree": _first_arg(args, kwargs, "f").degree, "decision": result.decision}


def _note_isolation(args, kwargs, result):
    return {"bits": result.precision_bits}


# notes recorded from successful calls, keyed by span name
NOTES: Dict[str, Callable] = {
    "classify.modulus_profile": _note_profile,
    "roots.isolate_roots": _note_isolation,
}


class Tracer:
    """Records spans around the public functions of the layer modules."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        self._patched: List[tuple] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("rootcensus")]
        modules += [importlib.import_module("rootcensus." + m) for m in LAYERS]
        wrappers: Dict[object, Callable] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("rootcensus.") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, "%s.%s" % (layer, obj.__name__))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, depth == 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = {"raised": type(exc).__name__}
                raise
            finally:
                span[END] = clock()
                active[name] = depth
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def span_cost(self) -> float:
        """Seconds the wrapper adds to one call: a bare and a wrapped no-op
        timed in rounds that alternate which goes first, median of the
        per-call differences. The spans it records are dropped."""
        def noop(x):
            return x

        wrapped = self._wrap(noop, "spans.noop")
        keep = len(self.spans)
        clock = time.perf_counter
        diffs = []
        for r in range(CALIBRATION_ROUNDS):
            took = {}
            for fn in (noop, wrapped) if r % 2 == 0 else (wrapped, noop):
                t = clock()
                for i in range(CALIBRATION_CALLS):
                    fn(i)
                took[fn] = clock() - t
            del self.spans[keep:]
            diffs.append((took[wrapped] - took[noop]) / CALIBRATION_CALLS)
        return statistics.median(diffs)

    def write(self, path: str) -> None:
        """Dump the spans as gzipped JSON lines: name, start, end, parent
        index (-1 for a root span) and note."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[NOTE]]) + "\n")


class LayerStats:
    """Per-name call counts, covered time and self time over a span list.

    Covered time (`.s`) sums only spans with no enclosing span of the same
    name, so recursion is not counted twice. Self time (`.self_s`) is a
    span's duration minus the durations of its child spans, which run one
    after another on the single thread.
    """

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls: Dict[str, int] = {}
        self.covered: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            if s[OUTER]:
                self.covered[name] = self.covered.get(name, 0.0) + dur

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return self.covered.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)
