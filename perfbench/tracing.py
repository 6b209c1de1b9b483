"""Span recording from outside the program: wrappers around public calls.

The benchmark measures each layer by timing calls into that layer's
public functions.  :func:`install` replaces every reference to a target
function -- the defining module's attribute and every ``from x import f``
binding in other loaded ``repro`` modules -- with a wrapper that records
a span ``(id, name, start, end, parent, op, thread, attrs)``.  Nothing
under ``src/`` changes; the wrappers live only in the process that
installed them.

Two kinds of span:

* *nested* spans come from synchronous calls.  A thread-local stack
  gives each span its parent, and the bottom of the stack names the
  operation (``op``) the span belongs to, so the spans of one request
  share an identifier.
* *detached* spans cover waits that cross threads: a query's time in the
  scheduler (from ``submit`` to the start of its evaluation), an
  update's wait for the drain, a shard RPC (call to future completion),
  an update fan-out.  They have no parent and no children.

Spans stay in memory; :meth:`Recorder.dump` writes them when the run
ends, and :func:`self_times` turns them into per-layer self time.  All
timestamps are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, one
clock for every process on the host), so spans from the load generator
and from the server processes can be cut to the same timed window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Span names of synchronous (nested) layer calls: (module, attribute
#: path, span name).  The span name is the per-layer metric's prefix.
NESTED_TARGETS = (
    ("repro.regex.parser", "parse", "regex.parse"),
    ("repro.core.dnf", "to_dnf", "core.plan"),
    ("repro.core.decompose", "decompose_clause", "core.plan"),
    ("repro.rpq.evaluate", "eval_rpq", "rpq.eval"),
    ("repro.rpq.label_join", "eval_label_sequence", "rpq.eval"),
    ("repro.core.engines", "RPQEngine.evaluate", "core.engine"),
    ("repro.core.cache", "SharedDataCache.get_or_compute", "core.cache"),
    ("repro.core.rtc", "compute_rtc", "core.rtc.build"),
    ("repro.core.batch_unit", "join_pre_with_rtc_bits", "core.batch_unit.pre_join"),
    ("repro.core.batch_unit", "join_pre_with_rtc", "core.batch_unit.pre_join"),
    ("repro.core.batch_unit", "apply_post_bits", "core.batch_unit.post"),
    ("repro.core.batch_unit", "apply_post", "core.batch_unit.post"),
    ("repro.db.session", "GraphDB.execute", "db.execute"),
    ("repro.db.resultset", "ResultSet.pairs", "db.materialise"),
    ("repro.db.resultset", "ResultSet.__iter__", "db.materialise"),
    ("repro.db.session", "GraphDB.update", "db.update"),
    ("repro.core.incremental", "IncrementalRTC.notify_edge_added", "core.incremental"),
    ("repro.core.incremental", "IncrementalRTC.notify_graph_replaced", "core.incremental"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal"),
    ("repro.server.protocol", "pairs_to_wire", "server.protocol.encode"),
    ("repro.server.protocol", "encode", "server.protocol.encode"),
    ("repro.server.protocol", "decode_line", "server.protocol.decode"),
    ("repro.server.protocol", "wire_to_pairs", "server.protocol.decode"),
    ("repro.relalg.expression", "BoundaryJoin.evaluate", "cluster.boundary_join"),
)

#: The modules a load generator needs wrapped: the client's side of the
#: wire (request encoding, response decoding).
CLIENT_TARGETS = tuple(
    target for target in NESTED_TARGETS if target[0] == "repro.server.protocol"
)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: When each query (by id of its parsed node) and each update (by
        #: its edges) entered the scheduler: the starts of the detached
        #: wait spans their evaluation or application closes.
        self.submitted: dict[int, float] = {}
        self.updates_submitted: dict[tuple, float] = {}

    # -- nested spans ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        op = stack[0][0] if stack else span_id
        stack.append((span_id, name))
        return span_id, name, parent, op, time.perf_counter()

    def end(self, token: tuple, attrs: dict | None = None) -> None:
        finished = time.perf_counter()
        span_id, name, parent, op, started = token
        self._stack().pop()
        self.spans.append(
            (span_id, name, started, finished, parent, op, threading.get_ident(), attrs)
        )

    def inside(self, name: str) -> bool:
        """True while this thread is inside a span called ``name``."""
        return any(open_name == name for _span_id, open_name in self._stack())

    # -- detached spans --------------------------------------------------
    def detached(self, name: str, started: float, finished: float, attrs=None) -> None:
        self.spans.append(
            (next(self._ids), name, started, finished, None, None,
             threading.get_ident(), attrs)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, replacement) -> None:
    """Point every module-level binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _counts_for(name: str, function):
    """Per-call counts a few layers report alongside their time."""
    if name == "core.rtc.build":
        return lambda args, result: None if result is None else {
            "rg_pairs": _size(args[0]), "sccs": result.num_sccs, "pairs": result.num_pairs,
        }
    if name == "core.batch_unit.post":
        return lambda args, result: None if result is None else {
            "joined": _size(args[1]), "results": _size(result),
        }
    if function.__name__ == "notify_graph_replaced":
        return lambda args, result: {"rebuilds": 1}
    return None


def _nested_wrapper(recorder: Recorder, name: str, function):
    counts = _counts_for(name, function)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.end(token, counts(args, result) if counts is not None else None)

    return wrapper


def _wal_wrapper(recorder: Recorder, function):
    @functools.wraps(function)
    def wrapper(self, record):
        before = os.path.getsize(self.path)
        token = recorder.begin("storage.wal")
        try:
            return function(self, record)
        finally:
            recorder.end(token, {"bytes": os.path.getsize(self.path) - before})

    return wrapper


def _encode_wrapper(recorder: Recorder, function):
    @functools.wraps(function)
    def wrapper(message):
        token = recorder.begin("server.protocol.encode")
        data = b""
        try:
            data = function(message)
            return data
        finally:
            recorder.end(token, {"bytes": len(data), "messages": 1})

    return wrapper


def _cache_wrapper(recorder: Recorder, function):
    """``get_or_compute``: a hit is a call whose factory never ran."""

    @functools.wraps(function)
    def wrapper(self, node, factory):
        built = []

        def counted_factory():
            built.append(True)
            return factory()

        token = recorder.begin("core.cache")
        try:
            return function(self, node, counted_factory)
        finally:
            recorder.end(token, {"hit": not built})

    return wrapper


def _clear_wrapper(recorder: Recorder, function):
    """``SharedDataCache.clear``: count the entries an update drops.

    Only clears under a ``GraphDB.update`` call are invalidations; a
    session's ``close`` clears its caches too.
    """

    @functools.wraps(function)
    def wrapper(self):
        dropped = len(self)
        function(self)
        if dropped and recorder.inside("db.update"):
            now = time.perf_counter()
            recorder.detached("core.cache.clear", now, now, {"dropped": dropped})

    return wrapper


def _engine_wrapper(recorder: Recorder, function):
    """``RPQEngine.evaluate``: also closes the query's scheduler wait."""

    @functools.wraps(function)
    def wrapper(self, query):
        submitted = recorder.submitted.pop(id(query), None)
        if submitted is not None:
            recorder.detached("server.scheduler.wait", submitted, time.perf_counter())
        token = recorder.begin("core.engine")
        try:
            return function(self, query)
        finally:
            recorder.end(token)

    return wrapper


def _update_key(add, remove) -> tuple:
    return tuple(map(tuple, add)), tuple(map(tuple, remove))


def _db_update_wrapper(recorder: Recorder, function):
    """``GraphDB.update``: also closes the update's scheduler drain wait."""

    @functools.wraps(function)
    def wrapper(self, add=(), remove=()):
        add, remove = list(add), list(remove)
        submitted = recorder.updates_submitted.pop(_update_key(add, remove), None)
        if submitted is not None:
            recorder.detached("server.scheduler.drain", submitted, time.perf_counter())
        token = recorder.begin("db.update")
        try:
            return function(self, add=add, remove=remove)
        finally:
            recorder.end(token)

    return wrapper


def _submit_wrapper(recorder: Recorder, function):
    """``SharingScheduler.submit``: remember when the query was admitted."""

    @functools.wraps(function)
    def wrapper(self, text, node=None, timeout=None, trace=None):
        if node is None:
            from repro.regex.parser import parse

            node = parse(text)
        recorder.submitted[id(node)] = time.perf_counter()
        return function(self, text, node, timeout=timeout, trace=trace)

    return wrapper


def _submit_update_wrapper(recorder: Recorder, function):
    @functools.wraps(function)
    def wrapper(self, add=(), remove=(), block=False, trace=None):
        add, remove = list(add), list(remove)
        recorder.updates_submitted[_update_key(add, remove)] = time.perf_counter()
        return function(self, add=add, remove=remove, block=block, trace=trace)

    return wrapper


def _future_span_wrapper(recorder: Recorder, name: str, function):
    """A detached span from the call until the returned future resolves."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        caller = threading.get_ident()
        future = function(*args, **kwargs)

        def done(_future) -> None:
            recorder.detached(name, started, time.perf_counter(), {"caller": caller})

        future.add_done_callback(done)
        return future

    return wrapper


def install(recorder: Recorder, client_only: bool = False) -> None:
    """Wrap the layers' public calls in this process.

    ``client_only`` wraps just the client's side of the wire, for the
    load generator; otherwise every layer, scheduler and cluster seam is
    wrapped, for a process under test.
    """
    targets = CLIENT_TARGETS if client_only else NESTED_TARGETS
    special = {
        "storage.wal": _wal_wrapper,
        "core.cache": _cache_wrapper,
        "core.engine": _engine_wrapper,
        "db.update": _db_update_wrapper,
    }
    for module_name, path, name in targets:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        if isinstance(original, property):
            setattr(owner, attr, property(
                _nested_wrapper(recorder, name, original.fget), original.fset, original.fdel,
                original.__doc__,
            ))
            continue
        if path == "encode":
            replacement = _encode_wrapper(recorder, original)
        elif name in special:
            replacement = special[name](recorder, original)
        else:
            replacement = _nested_wrapper(recorder, name, original)
        setattr(owner, attr, replacement)
        if owner is sys.modules[module_name]:
            _rebind(original, replacement)
    if client_only:
        return
    from repro.cluster.backends import ProcessBackend
    from repro.cluster.service import GraphCluster
    from repro.core.cache import SharedDataCache
    from repro.server.scheduler import SharingScheduler

    SharedDataCache.clear = _clear_wrapper(recorder, SharedDataCache.clear)
    SharingScheduler.submit = _submit_wrapper(recorder, SharingScheduler.submit)
    SharingScheduler.submit_update = _submit_update_wrapper(
        recorder, SharingScheduler.submit_update
    )
    GraphCluster.submit_update = _future_span_wrapper(
        recorder, "cluster.update_fanout", GraphCluster.submit_update
    )
    for method in ("query", "partial_query"):
        setattr(ProcessBackend, method, _future_span_wrapper(
            recorder, "cluster.shard_rpc", getattr(ProcessBackend, method)
        ))


# -- analysis ------------------------------------------------------------


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list, windows: list) -> tuple[dict, dict]:
    """Per-layer self seconds and per-layer attribute sums in ``windows``.

    A nested span's self time is its duration minus its children's
    (children of one span run in its thread, one after another).  Shard
    RPCs a thread issues concurrently (one boundary-join round) overlap;
    they count once, as the union of their intervals per calling thread.
    Spans whose start falls outside every ``(start, end)`` window are
    left out.
    """
    child_time: dict = defaultdict(float)
    for span in spans:
        parent = span[4]
        if parent is not None:
            child_time[parent] += span[3] - span[2]
    seconds: dict = defaultdict(float)
    attrs: dict = defaultdict(lambda: defaultdict(float))
    rpc_by_caller: dict = defaultdict(list)
    for span_id, name, start, end, parent, _op, _thread, extra in spans:
        if not any(low <= start <= high for low, high in windows):
            continue
        if extra:
            totals = attrs[name]
            totals["calls"] += 1
            for key, value in extra.items():
                if key != "caller":
                    totals[key] += float(value)
        else:
            attrs[name]["calls"] += 1
        if name == "cluster.shard_rpc":
            rpc_by_caller[extra["caller"]].append((start, end))
            continue
        seconds[name] += (end - start) - child_time.get(span_id, 0.0)
    for intervals in rpc_by_caller.values():
        seconds["cluster.shard_rpc"] += _merged_length(intervals)
    return dict(seconds), {name: dict(values) for name, values in attrs.items()}


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]
