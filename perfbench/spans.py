"""Spans recorded around calls into each Spitz layer, and the ladder.

Tracing lives in the benchmark, not in ``src/repro``: :func:`install`
replaces a layer's public functions and methods with wrappers that
record one span per call and restores the originals on
:meth:`Recorder.uninstall`.  A span is ``[id, parent, name, start,
end, kind, attrs]``; spans are kept in memory and written out once,
at the end of the run.  The request id of a span is the id of the
benchmark operation at the root of its tree.

Parents follow a per-thread stack.  Two hops leave the thread: the
queue hop (``cluster.submit`` on the client thread, the handler on a
node thread, joined through the request object) and the HTTP hop (the
server process's ``http.request`` root, joined to the client's
``http.round_trip`` through the server-assigned request id).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Span name -> the module (layer) it measures.
LAYER_OF = {
    "op": "benchmark",
    "client.call": "core.client",
    "cluster.submit": "core.node",
    "handler.handle": "core.request_handler",
    "txn.lock_wait": "txn",
    "ledger.prove": "core.ledger",
    "ledger.append": "core.ledger",
    "pos_tree.apply": "indexes.pos_tree",
    "siri.encode": "indexes.siri",
    "siri.decode": "indexes.siri",
    "chunks.put": "forkbase.chunk_store",
    "wal.append": "durability",
    "wal.fsync": "durability",
    "verifier.verify": "core.verifier",
    "codec.encode": "serve.codec",
    "codec.decode": "serve.codec",
    "http.round_trip": "serve.http",
    "http.request": "serve.http",
    "search.prove": "search",
}
LAYERS = tuple(dict.fromkeys(
    layer for layer in LAYER_OF.values() if layer != "benchmark"
))
#: Spans whose self time is waiting (for a thread, a lock or a disk),
#: reported as the layer's wait time rather than its self time.
WAIT_SPANS = frozenset({"cluster.submit", "txn.lock_wait", "wal.fsync"})
WAIT_LAYERS = tuple(LAYER_OF[name] for name in sorted(WAIT_SPANS))

ID, PARENT, NAME, START, END, KIND, ATTRS = range(7)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, first_id: int = 1):
        self.spans: List[list] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        #: id(request) -> the cluster.submit span waiting on it.
        self.handoff: Dict[int, list] = {}
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Optional[list]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self, name: str, kind: Optional[str] = None, parent: Optional[list] = None
    ) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if kind is None and parent is not None:
            kind = parent[KIND]
        span = [
            next(self._ids),
            parent[ID] if parent is not None else None,
            name,
            time.perf_counter(),
            0.0,
            kind,
            None,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- patching -----------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def timed(self, owner, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                span = self.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end(span)
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _TimedLock:
    """A commit lock that records how long callers wait for and hold it."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._rec = recorder
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._local, "depth", 0)
        if depth:
            got = self._inner.acquire(blocking, timeout)
        else:
            span = self._rec.begin("txn.lock_wait")
            try:
                got = self._inner.acquire(blocking, timeout)
            finally:
                self._rec.end(span)
            self._local.held_since = span[END]
        if got:
            self._local.depth = depth + 1
        return got

    def release(self) -> None:
        depth = self._local.depth - 1
        self._local.depth = depth
        if depth == 0:
            self._rec.samples["txn.lock_hold"].append(
                time.perf_counter() - self._local.held_since
            )
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()


def install(
    recorder: Recorder, databases: Iterable = (), http_servers: Iterable = ()
) -> None:
    """Wrap every layer the benchmark traces (both processes use this)."""
    from repro.core import client, database, ledger, node, request_handler
    from repro.core.verifier import ClientVerifier
    from repro.durability import wal
    from repro.forkbase.chunk_store import ChunkStore
    from repro.indexes import pos_tree, siri
    from repro.serve import client as http_client
    from repro.serve import server as http_server

    rec = recorder
    rec.timed(client.ClusterClient, "call", "client.call")

    def submit(original):
        def wrapper(cluster, request, *args, **kwargs):
            span = rec.begin("cluster.submit")
            rec.handoff[id(request)] = span
            try:
                return original(cluster, request, *args, **kwargs)
            finally:
                rec.handoff.pop(id(request), None)
                rec.end(span)
        return wrapper
    rec.patch(node.SpitzCluster, "submit", submit)

    def enqueue(original):
        def wrapper(queue, *args, **kwargs):
            envelope = original(queue, *args, **kwargs)
            depth = queue.metrics.gauge("queue.depth").value
            if depth > rec.maxima["queue.depth"]:
                rec.maxima["queue.depth"] = depth
            return envelope
        return wrapper
    rec.patch(node.MessageQueue, "submit", enqueue)

    def handle(original):
        def wrapper(handler, request):
            span = rec.begin(
                "handler.handle",
                kind=_short_kind(request.kind.value),
                parent=rec.handoff.get(id(request)),
            )
            try:
                return original(handler, request)
            finally:
                rec.end(span)
        return wrapper
    rec.patch(request_handler.RequestHandler, "handle", handle)

    for method in ("get_with_proof", "get_many_with_proof", "scan_with_proof"):
        rec.timed(ledger.SpitzLedger, method, "ledger.prove")
    rec.timed(ledger.SpitzLedger, "append_block", "ledger.append")
    rec.timed(pos_tree.PosTree, "apply", "pos_tree.apply")

    def encode(original):
        def wrapper(node_tuple):
            span = rec.begin("siri.encode")
            try:
                data = original(node_tuple)
            finally:
                rec.end(span)
            rec.samples["siri.node_bytes"].append(len(data))
            return data
        return wrapper
    for module in (pos_tree, siri):
        rec.patch(module, "encode_node", encode)
        rec.timed(module, "decode_node", "siri.decode")

    rec.timed(ChunkStore, "put", "chunks.put")
    rec.timed(wal.WriteAheadLog, "append", "wal.append")
    rec.timed(wal.WalIO, "fsync", "wal.fsync")
    rec.timed(ClientVerifier, "verify", "verifier.verify")
    rec.timed(database, "build_search_proof", "search.prove")

    # Wire layers: the server encodes, the client decodes; whichever
    # side this process is, the other wrapper simply never fires.
    rec.timed(http_server, "encode_response", "codec.encode")

    def decode(original):
        def wrapper(frame):
            round_trip = rec.top()
            if round_trip is not None and isinstance(frame, dict):
                round_trip[ATTRS] = {"server_request": frame.get("request_id")}
            span = rec.begin("codec.decode")
            try:
                return original(frame)
            finally:
                rec.end(span)
        return wrapper
    rec.patch(http_client, "decode_response", decode)
    rec.timed(http_client.HttpTransport, "submit", "http.round_trip")

    def route(original):
        def wrapper(handler, context, body):
            span = rec.begin("http.request")
            try:
                return original(handler, context, body)
            finally:
                span[ATTRS] = {"request": context.request_id}
                rec.end(span)
        return wrapper
    # The HTTP server binds its routes onto the socket server when it
    # is built, so the wrapper replaces that binding.
    for server in http_servers:
        rec.patch(server._httpd, "handle_request_route", route)

    for db in databases:
        manager = db.txn_manager
        rec.patch(manager, "commit_lock", lambda lock: _TimedLock(lock, rec))


def dump(spans: List[list], rid_of: Dict[int, int], path: Path) -> None:
    """Write every span as one JSON object per line."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps({
                "id": span[ID],
                "parent": span[PARENT],
                "request": rid_of.get(span[ID]),
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "kind": span[KIND],
                "attrs": span[ATTRS],
            }) + "\n")


def _short_kind(value: str) -> str:
    return {"multi_get": "mget"}.get(value, value)


def graft(client_spans: List[list], server_spans: List[list]) -> List[list]:
    """Hang each server ``http.request`` tree under its client round trip."""
    round_trips = {
        span[ATTRS]["server_request"]: span
        for span in client_spans
        if span[NAME] == "http.round_trip" and span[ATTRS]
    }
    for span in server_spans:
        if span[NAME] == "http.request" and span[ATTRS]:
            parent = round_trips.get(span[ATTRS]["request"])
            if parent is not None:
                span[PARENT] = parent[ID]
                span[KIND] = parent[KIND]
    return client_spans + server_spans


class Ladder:
    """Per-layer self time, wait time and share, from one span set."""

    def __init__(self, spans: List[list]):
        by_id = {span[ID]: span for span in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        self.root_of: Dict[int, int] = {}
        for span in spans:
            self._resolve_root(span, by_id)
        self.op_roots = [
            span for span in spans
            if span[NAME] == "op" and span[PARENT] is None
        ]
        root_ids = {span[ID] for span in self.op_roots}
        self.self_time: Dict[int, float] = {}
        self.in_ops: List[list] = []
        self._by_name: Dict[str, List[list]] = defaultdict(list)
        for span in spans:
            if self.root_of.get(span[ID]) not in root_ids:
                continue
            self.in_ops.append(span)
            self._by_name[span[NAME]].append(span)
            self.self_time[span[ID]] = max(
                0.0, span[END] - span[START] - child_time[span[ID]]
            )
        self.by_id = by_id

    def _resolve_root(self, span: list, by_id: Dict[int, list]) -> int:
        path = []
        current = span
        while True:
            known = self.root_of.get(current[ID])
            if known is not None:
                root = known
                break
            path.append(current[ID])
            parent = by_id.get(current[PARENT]) if current[PARENT] else None
            if parent is None:
                root = current[ID]
                break
            current = parent
        for span_id in path:
            self.root_of[span_id] = root
        return root

    def named(self, name: str, kind: Optional[str] = None) -> List[list]:
        spans = self._by_name.get(name, [])
        if kind is None:
            return spans
        return [span for span in spans if span[KIND] == kind]

    def mean_us(self, name: str, kind: Optional[str] = None) -> float:
        spans = self.named(name, kind)
        if not spans:
            return 0.0
        return sum(s[END] - s[START] for s in spans) / len(spans) * 1e6

    def mean_self_us(self, name: str) -> float:
        spans = self.named(name)
        if not spans:
            return 0.0
        return sum(self.self_time[s[ID]] for s in spans) / len(spans) * 1e6

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        count = 0
        for span in self.named(name):
            parent = self.by_id.get(span[PARENT])
            while parent is not None:
                if parent[NAME] == ancestor:
                    count += 1
                    break
                parent = self.by_id.get(parent[PARENT])
        return count

    def layers(self) -> Dict[str, float]:
        ops = len(self.op_roots)
        total = sum(s[END] - s[START] for s in self.op_roots)
        calls: Dict[str, int] = defaultdict(int)
        busy: Dict[str, float] = defaultdict(float)
        wait: Dict[str, float] = defaultdict(float)
        for span in self.in_ops:
            layer = LAYER_OF[span[NAME]]
            calls[layer] += 1
            if span[NAME] in WAIT_SPANS:
                wait[layer] += self.self_time[span[ID]]
            else:
                busy[layer] += self.self_time[span[ID]]
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"layer.{layer}.calls_per_op"] = calls[layer] / max(ops, 1)
            metrics[f"layer.{layer}.self_us"] = busy[layer] / max(ops, 1) * 1e6
            if layer in WAIT_LAYERS:
                metrics[f"layer.{layer}.wait_us"] = (
                    wait[layer] / max(ops, 1) * 1e6
                )
            metrics[f"layer.{layer}.share"] = (
                (busy[layer] + wait[layer]) / total if total else 0.0
            )
        metrics["trace.unattributed_share"] = (
            busy["benchmark"] / total if total else 0.0
        )
        return metrics

    def request_ids(self) -> Dict[int, int]:
        return dict(self.root_of)
