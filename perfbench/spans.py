"""In-memory span recorder and the patch table that traces repro's layers.

The benchmark records spans from its own files: :func:`instrument` replaces
public functions and methods of each layer with thin wrappers that open a
span around the call, and returns a callable that restores the originals.
Nothing in ``src/`` knows about it, so an untraced run executes exactly the
program's code.

A span is ``(id, name, start, end, parent, request id, busy)``.  ``busy`` is
the time spent *inside* a generator span's ``next()`` calls; for plain calls
it equals ``end - start``.  Hot leaf functions (the index scans) only feed
``count``/``seconds`` totals, because a span per scan would cost more memory
than the run it measures.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "busy")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        end: float = 0.0,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        busy: Optional[float] = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.busy = busy

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.rid, self.busy]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row)


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's own time: its duration minus the part its children cover.

    Children are clipped to the parent's interval, and overlapping children
    (threads, generators) count once.  A generator span's own time starts
    from its ``busy`` time, not its lifetime: between items it is off the
    stack, so its consumer's work there is neither its own nor its
    children's, and its children all lie inside its ``next()`` calls.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())
        ]
        own = span.busy if span.busy is not None else span.duration
        result[span.sid] = max(0.0, own - covered_length(clipped))
    return result


class Recorder:
    """Spans and counter totals of one process, kept in memory.

    Appends from many threads are safe under the interpreter lock; each
    thread keeps its own stack of open spans (the parent of a new span) and
    its own current request id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, List[float]] = {}
        #: ``(time, totals copy)`` snapshots, so a phase's totals can be
        #: told apart from set-up's in a process that outlives the phase.
        self.marks: List[Tuple[float, Dict[str, List[float]]]] = []
        self._ids = itertools.count(1)
        self._totals_lock = threading.Lock()
        self._local = threading.local()

    # --- per-thread context ---------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def request_id(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Optional[int]) -> None:
        self._local.rid = rid

    def new_id(self) -> int:
        return next(self._ids)

    # --- spans ------------------------------------------------------------
    def open(self, name: str, parent: Optional[int] = None) -> Span:
        """Start a span on this thread; it becomes the parent of new spans."""
        if parent is None:
            top = self.current()
            parent = top.sid if top is not None else None
        span = Span(self.new_id(), name, perf_counter(), parent=parent, rid=self.request_id)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # closed out of order (a generator abandoned mid-stream)
            if span in stack:
                stack.remove(span)
        self.spans.append(span)

    def record(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> Span:
        """Add an already-finished span (for intervals measured elsewhere)."""
        span = Span(self.new_id(), name, start, end, parent, self.request_id)
        self.spans.append(span)
        return span

    def add(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        """Feed a counter total (no span object)."""
        with self._totals_lock:
            entry = self.totals.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def mark(self) -> None:
        with self._totals_lock:
            snapshot = {name: list(entry) for name, entry in self.totals.items()}
        self.marks.append((perf_counter(), snapshot))

    # --- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write spans, totals and marks as one JSON document."""
        document = {
            "spans": [span.as_row() for span in self.spans],
            "totals": self.totals,
            "marks": self.marks,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def load(path: str) -> Tuple[List[Span], Dict[str, List[float]], list]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    spans = [Span.from_row(row) for row in document["spans"]]
    return spans, document["totals"], document["marks"]


def totals_between(before: Dict[str, List[float]], after: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Counter totals accumulated between two marks."""
    zero = [0, 0.0]
    return {
        name: [entry[0] - before.get(name, zero)[0], entry[1] - before.get(name, zero)[1]]
        for name, entry in after.items()
    }


# --- wrappers ---------------------------------------------------------------
def _call_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def _traced_iter(recorder: Recorder, span: Span, iterator: Iterator) -> Iterator:
    """Re-yield *iterator*, timing each ``next()`` as the span's busy time.

    While a ``next()`` runs the span is on the thread's stack, so calls made
    by the generator body become its children; between items it is not.
    """
    span.busy = 0.0
    stack = recorder._stack()
    try:
        while True:
            stack.append(span)
            began = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                span.busy += perf_counter() - began
                if stack and stack[-1] is span:
                    stack.pop()
            yield item
    finally:
        span.end = perf_counter()
        recorder.spans.append(span)


def _gen_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    """Span over a generator's lifetime, with the time inside it as busy."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        top = recorder.current()
        span = Span(
            recorder.new_id(),
            name,
            perf_counter(),
            parent=top.sid if top is not None else None,
            rid=recorder.request_id,
        )
        return _traced_iter(recorder, span, iter(original(*args, **kwargs)))

    return wrapper


def _counter_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    """Count calls and the time spent producing their (lazy) results."""

    def consume(iterator: Iterator, spent: float) -> Iterator:
        try:
            while True:
                began = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    spent += perf_counter() - began
                yield item
        finally:
            recorder.add(name, spent)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        began = perf_counter()
        result = original(*args, **kwargs)
        return consume(iter(result), perf_counter() - began)

    return wrapper


def _enum_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    """``all_homomorphisms``: traced, except when ``find_homomorphism`` calls it."""
    traced = _gen_wrapper(recorder, name, original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        top = recorder.current()
        if top is not None and top.name == "hom.find":
            return original(*args, **kwargs)
        return _counting(recorder, traced(*args, **kwargs))

    return wrapper


def _counting(recorder: Recorder, iterator: Iterator) -> Iterator:
    produced = 0
    try:
        for item in iterator:
            produced += 1
            yield item
    finally:
        recorder.add("hom.enum_results", 0.0, produced)


def _plan_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    traced = _call_wrapper(recorder, name, original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        plan = traced(*args, **kwargs)
        recorder.add(f"plan.strategy.{plan.strategy}")
        return plan

    return wrapper


def _encode_wrapper(recorder: Recorder, name: str, original: Callable) -> Callable:
    traced = _call_wrapper(recorder, name, original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        line = traced(*args, **kwargs)
        recorder.add("wire.bytes_out", 0.0, len(line))
        return line

    return wrapper


# --- the patch table -------------------------------------------------------
def _patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable], undo: list) -> None:
    """Replace a module-level function everywhere repro imported it by name."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)
            undo.append((module, attr, original))


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable], undo: list) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped: object = classmethod(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(cls, attr, wrapped)
    undo.append((cls, attr, raw))


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Trace every layer boundary the benchmark reports; returns the undo.

    Span names are ``<layer>.<operation>``; the per-layer metrics in
    ``perfbench/layers.py`` aggregate them.
    """
    import repro.evaluation.cache as cache_mod
    import repro.evaluation.plan as plan_mod
    import repro.evaluation.session as session_mod
    import repro.hom.homomorphism as hom_mod
    import repro.pebble.kernel as kernel_mod
    import repro.rdf.graph as graph_mod
    import repro.rdf.io  # noqa: F401  (patched by name below)
    import repro.service.core as core_mod
    import repro.service.gate as gate_mod
    import repro.service.protocol  # noqa: F401
    import repro.service.server as server_mod
    import repro.sparql.parser  # noqa: F401

    undo: list = []

    def call(name):
        return lambda original: _call_wrapper(recorder, name, original)

    def gen(name):
        return lambda original: _gen_wrapper(recorder, name, original)

    # wire (server side)
    _patch_function("repro.service.protocol", "decode_line", call("wire.decode"), undo)
    _patch_function("repro.service.protocol", "request_from_wire", call("wire.decode"), undo)
    _patch_function("repro.service.protocol", "response_lines", gen("wire.encode"), undo)
    _patch_function(
        "repro.service.protocol",
        "encode_line",
        lambda original: _encode_wrapper(recorder, "wire.encode", original),
        undo,
    )
    _patch_method(server_mod.ServiceServer, "_process", _request_wrapper(recorder), undo)
    # service core: admission, queue, execution, chunking
    _patch_method(core_mod.QueryService, "submit", _submit_wrapper(recorder), undo)
    _patch_method(core_mod.QueryService, "_execute", _execute_wrapper(recorder), undo)
    _patch_method(core_mod.QueryService, "solution_chunks", gen("service.chunk"), undo)
    _patch_method(core_mod.QueryService, "stats", _mark_wrapper(recorder), undo)
    # gate
    _patch_method(gate_mod.ReadWriteGate, "acquire_read", call("gate.read_wait"), undo)
    _patch_method(gate_mod.ReadWriteGate, "acquire_write", _write_acquire_wrapper(recorder), undo)
    _patch_method(gate_mod.ReadWriteGate, "release_write", _write_release_wrapper(recorder), undo)
    # session and planner
    _patch_method(session_mod.Session, "check_many", call("session.check"), undo)
    _patch_method(session_mod.Session, "solutions", call("session.solutions"), undo)
    _patch_method(session_mod.Session, "solutions_many", call("session.solutions"), undo)
    _patch_method(
        plan_mod.Planner, "plan", lambda original: _plan_wrapper(recorder, "plan", original), undo
    )
    _patch_method(plan_mod.Planner, "plan_enumeration", call("plan"), undo)
    # cache
    for method in (
        "extension_exists",
        "homomorphism_list",
        "pebble_kernel",
        "pebble_winner",
        "mu_subtree",
        "tree_solution_list",
        "target_index",
    ):
        _patch_method(cache_mod.EvaluationCache, method, call(f"cache.{method}"), undo)
    _patch_method(cache_mod.EvaluationCache, "homomorphisms_stream", gen("cache.homomorphisms_stream"), undo)
    _patch_method(hom_mod.ColumnarTargetIndex, "__init__", call("index.build"), undo)
    # homomorphism search
    _patch_function("repro.hom.homomorphism", "find_homomorphism", call("hom.find"), undo)
    _patch_function(
        "repro.hom.homomorphism",
        "all_homomorphisms",
        lambda original: _enum_wrapper(recorder, "hom.enum", original),
        undo,
    )
    # pebble kernel
    _patch_method(kernel_mod.ConsistencyKernel, "__init__", call("kernel.build"), undo)
    _patch_method(kernel_mod.ConsistencyKernel, "prepare", call("kernel.prepare"), undo)
    _patch_method(kernel_mod.ConsistencyKernel, "winner", call("kernel.winner"), undo)
    # rdf store
    _patch_function("repro.rdf.io", "load_graph", call("rdf.load"), undo)
    _patch_method(graph_mod.RDFGraph, "from_triples", call("rdf.load"), undo)
    for method in ("add_all", "discard"):
        _patch_method(graph_mod.RDFGraph, method, call("rdf.update"), undo)
    for cls in (hom_mod.TargetIndex, hom_mod.ColumnarTargetIndex):
        for method in ("candidates", "pattern_solutions"):
            _patch_method(
                cls, method, lambda original: _counter_wrapper(recorder, "rdf.scan", original), undo
            )
    # parser
    _patch_function("repro.sparql.parser", "parse_pattern", call("parse"), undo)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _request_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    """``ServiceServer._process``: one request line, with a fresh request id."""

    def make(original: Callable) -> Callable:
        traced = _gen_wrapper(recorder, "wire.request", original)

        @functools.wraps(original)
        def wrapper(self, raw):
            recorder.request_id = recorder.new_id()
            return traced(self, raw)

        return wrapper

    return make


def _mark_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    """``QueryService.stats``: the benchmark's phase boundary in the server."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self):
            recorder.mark()
            return original(self)

        return wrapper

    return make


def _submit_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    """Tag each admitted request with its submit time, request id and parent."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self, request):
            top = recorder.current()
            submitted = perf_counter()
            pending = original(self, request)
            pending._bench_trace = (submitted, recorder.request_id, top.sid if top else None)
            return pending

        return wrapper

    return make


def _execute_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    """Worker-thread side: the queue wait, then the execution span."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self, pending):
            submitted, rid, parent = getattr(pending, "_bench_trace", (None, None, None))
            recorder.request_id = rid
            if submitted is not None:
                recorder.record("service.queue", submitted, perf_counter(), parent)
            span = recorder.open("service.execute", parent)
            try:
                return original(self, pending)
            finally:
                recorder.close(span)
                recorder.request_id = None

        return wrapper

    return make


def _write_acquire_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        traced = _call_wrapper(recorder, "gate.write_wait", original)

        @functools.wraps(original)
        def wrapper(self, timeout=None):
            acquired = traced(self, timeout)
            if acquired:
                recorder._local.write_hold = perf_counter()
            return acquired

        return wrapper

    return make


def _write_release_wrapper(recorder: Recorder) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self):
            held = getattr(recorder._local, "write_hold", None)
            original(self)
            if held is not None:
                recorder._local.write_hold = None
                recorder.record("gate.write_hold", held, perf_counter())

        return wrapper

    return make
