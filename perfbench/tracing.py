"""In-memory spans around the program's layers, for the traced run.

The traced run wraps public functions of each layer with a span
recorder, from outside the program: the class attribute is replaced by
a wrapper that notes start, end and the enclosing span on the calling
thread.  Spans carry the request id ``<connection>/<sequence>`` set by
the caller (client) or derived from the session id (server).  They stay
in memory and are written out when the benchmark ends.

Layer names and the functions they time are listed in
:func:`install_client_layers` and :func:`install_server_layers`.  This
module is the only part of the benchmark that imports layer classes;
inputs and callers use the public client/server API only.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class _ThreadSpans:
    __slots__ = ("spans", "stack", "rid")

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, rid, start, end, parent]
        self.stack: List[int] = []
        self.rid = ""


class SpanLog:
    """Spans of one process, kept per thread; parents are per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._local = threading.local()
        self._patches: List[Tuple[type, str, object]] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def set_request(self, rid: str) -> None:
        self._state().rid = rid

    def _open(self, name: str) -> Tuple[_ThreadSpans, list]:
        state = self._state()
        stack = state.stack
        record = [name, state.rid, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(state.spans))
        state.spans.append(record)
        record[2] = perf_counter()
        return state, record

    def wrap(self, fn: Callable, name: str, rid_of: Callable = None) -> Callable:
        """*fn* recording a span *name* per call (rid from *rid_of*)."""
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rid_of is not None:
                log.set_request(rid_of(args, kwargs))
            state, record = log._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                state.stack.pop()

        return traced

    def timed(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` under a span; return (result, seconds)."""
        state, record = self._open(name)
        try:
            result = fn(*args)
        finally:
            record[3] = perf_counter()
            state.stack.pop()
        return result, record[3] - record[2]

    def patch(self, owner: type, attr: str, name: str, rid_of: Callable = None) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`unpatch`."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, rid_of))
        else:
            new = self.wrap(raw, name, rid_of)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def clear(self) -> None:
        """Drop recorded spans (call only while no span is open)."""
        with self._lock:
            for state in self._threads:
                state.spans.clear()

    def records(self) -> List[list]:
        """All spans as ``[name, rid, start, end, parent]``, parents global."""
        out: List[list] = []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            base = len(out)
            for name, rid, start, end, parent in state.spans:
                out.append([name, rid, start, end, parent + base if parent >= 0 else -1])
        return out


def session_rid() -> Callable:
    """rid_of for ``handle_wire_vectored(self, body, headers, session_id)``."""
    seq: Dict[object, int] = {}

    def rid_of(args, kwargs) -> str:
        session = kwargs.get("session_id", args[3] if len(args) > 3 else None)
        n = seq.get(session, 0) + 1
        seq[session] = n
        return f"{session}/{n}"

    return rid_of


def install_client_layers(log: SpanLog) -> None:
    from repro.core.client import BSoapClient
    from repro.resilience.reconnect import ReconnectingTCPTransport
    from repro.server.diffdeser import DifferentialDeserializer
    from repro.soap.fault import SOAPFault
    from repro.transport.http import HTTPTransport

    log.patch(BSoapClient, "send", "client.send")
    log.patch(HTTPTransport, "send_message", "client.transport_send")
    log.patch(HTTPTransport, "send_delta_frame", "client.transport_send")
    log.patch(ReconnectingTCPTransport, "connect", "client.connect")
    log.patch(ReconnectingTCPTransport, "recv_http_response", "client.recv")
    log.patch(SOAPFault, "from_xml", "client.fault_check")
    log.patch(DifferentialDeserializer, "deserialize", "client.deserialize")


def install_server_layers(log: SpanLog) -> None:
    from repro.core.client import BSoapClient
    from repro.schema.skipscan import SeekTable
    from repro.server.diffdeser import DifferentialDeserializer
    from repro.server.parser import SOAPRequestParser
    from repro.server.service import SOAPService
    from repro.wire.server import DeltaSession

    log.patch(SOAPService, "handle_wire_vectored", "server.handle_wire", session_rid())
    log.patch(DeltaSession, "apply", "server.delta_apply")
    log.patch(DifferentialDeserializer, "deserialize", "server.deserialize")
    log.patch(SOAPRequestParser, "parse", "server.full_parse")
    log.patch(SeekTable, "compile", "server.seektable_compile")
    log.patch(SeekTable, "apply", "server.skipscan_apply")
    log.patch(BSoapClient, "send", "server.respond")


def summarize(records: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, inclusive seconds, self seconds.

    Inclusive time sums only the outermost span of a name on each
    path, so a layer that calls itself is not counted twice.  Self
    time is a span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(records)
    for name, _rid, start, end, parent in records:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, _rid, start, end, parent) in enumerate(records):
        row = out.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["count"] += 1
        row["self_s"] += duration - covered[i]
        outermost = True
        while parent >= 0:
            if records[parent][0] == name:
                outermost = False
                break
            parent = records[parent][4]
        if outermost:
            row["inclusive_s"] += duration
    return out
