"""The three workloads: their callers, per-call oracle and regime census.

Each workload is a set of closed-loop callers, one thread each: a caller
sends its next request only after the previous reply arrived.  A caller
times ``RPCChannel.call`` (for ``first-contact`` also the channel's open
and close), checks the reply against the values it sent, and notes
which path the call took in a :class:`Tally`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from inputs import FlipStream, width_doubles
from repro import ReproError, RPCChannel
from service import CLIENT_POLICY, checksum, expand, request

HOST = "127.0.0.1"
#: The responder writes in 32 KiB chunks; fetch-bulk replies span two.
CHUNK_BYTES = 32 * 1024


@dataclass
class Tally:
    """What a caller saw: outcomes, latencies and the path of each call."""

    ok: int = 0
    wrong: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    match: Counter = field(default_factory=Counter)
    deser: Counter = field(default_factory=Counter)
    delta: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    retries: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    min_response_bytes: Optional[int] = None

    @property
    def attempted(self) -> int:
        return self.ok + self.wrong + self.failed

    @property
    def answered(self) -> int:
        """Calls the server handled (a wrong answer was still handled)."""
        return self.ok + self.wrong

    def note(self, channel: RPCChannel, latency: float, correct: bool) -> None:
        report = channel.last_send_report
        body = channel.last_response_body
        self.latencies.append(latency)
        if correct:
            self.ok += 1
        else:
            self.wrong += 1
        self.match[report.match_kind.value] += 1
        self.deser[channel.last_deser_report.kind.value] += 1
        self.delta += report.delta
        self.plan_hits += report.rewrite.plan_hits
        self.plan_misses += report.rewrite.plan_misses
        self.retries += report.retries
        self.request_bytes += report.bytes_sent
        self.response_bytes += len(body)
        if self.min_response_bytes is None or len(body) < self.min_response_bytes:
            self.min_response_bytes = len(body)

    def merge(self, other: "Tally") -> None:
        for name in ("ok", "wrong", "failed", "delta", "plan_hits", "plan_misses",
                     "retries", "request_bytes", "response_bytes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies.extend(other.latencies)
        self.match.update(other.match)
        self.deser.update(other.deser)
        if other.min_response_bytes is not None:
            self.min_response_bytes = min(
                other.min_response_bytes, self.min_response_bytes or other.min_response_bytes
            )


class Caller:
    """One closed-loop caller on its own connection (or connections)."""

    def __init__(self, index: int, port: int, seed: int, log=None) -> None:
        self.index = index
        self.port = port
        self.rng = np.random.default_rng([seed, index])
        self.log = log
        self.seq = 0

    def _timed(self, fn: Callable, *args):
        self.seq += 1
        if self.log is None:
            t0 = perf_counter()
            result = fn(*args)
            return result, perf_counter() - t0
        self.log.set_request(f"c{self.index}/{self.seq}")
        return self.log.timed("client.call", fn, *args)

    def call(self, tally: Tally) -> None:
        """Make one call and note it; a raised ``ReproError`` is a failure."""
        try:
            self._call(tally)
        except ReproError:
            tally.failed += 1

    def _call(self, tally: Tally) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SteadyCaller(Caller):
    """16Ki max-stuffed doubles, 1% flipped per call, one long channel."""

    SIZE = 16384
    FLIPS = SIZE // 100

    def __init__(self, index: int, port: int, seed: int, log=None) -> None:
        super().__init__(index, port, seed, log)
        self.stream = FlipStream(self.rng, self.SIZE, self.FLIPS)
        self.channel = RPCChannel(HOST, port, policy=CLIENT_POLICY)

    def _call(self, tally: Tally) -> None:
        values = self.stream.step()
        message = request("checksum", values)
        response, latency = self._timed(self.channel.call, message)
        correct = response.values["return"] == checksum(values)
        tally.note(self.channel, latency, correct)

    def close(self) -> None:
        self.channel.close()


class FirstContactCaller(Caller):
    """A fresh channel per call carrying 1Ki fresh doubles."""

    SIZE = 1024

    def _open_call_close(self, message):
        with RPCChannel(HOST, self.port, policy=CLIENT_POLICY) as channel:
            return channel, channel.call(message)

    def _call(self, tally: Tally) -> None:
        values = width_doubles(self.rng, self.SIZE)
        message = request("checksum", values)
        (channel, response), latency = self._timed(self._open_call_close, message)
        correct = response.values["return"] == checksum(values)
        tally.note(channel, latency, correct)


class FetchCaller(Caller):
    """24 doubles, one flipped per call; the reply tiles them 64 times."""

    SIZE = 24

    def __init__(self, index: int, port: int, seed: int, log=None) -> None:
        super().__init__(index, port, seed, log)
        self.stream = FlipStream(self.rng, self.SIZE, 1)
        self.channel = RPCChannel(HOST, port, policy=CLIENT_POLICY)

    def _call(self, tally: Tally) -> None:
        values = self.stream.step()
        message = request("expand", values)
        response, latency = self._timed(self.channel.call, message)
        result = response.values["return"]
        correct = bool(np.array_equal(result, expand(values)))
        tally.note(self.channel, latency, correct)

    def close(self) -> None:
        self.channel.close()


@dataclass(frozen=True)
class Workload:
    name: str
    caller: type
    callers: int
    warmup_calls: int
    #: ``census(tally, server) -> list of problems``; *server* holds the
    #: window's /metrics deltas and the child's deserialization counts.
    census: Callable[[Tally, Dict[str, float]], List[str]]


def _at_least(problems: List[str], what: str, part: float, calls: int, floor: float) -> None:
    share = part / calls if calls else 0.0
    if share < floor:
        problems.append(f"{what} share {share:.3f} < {floor}")


def _steady_census(t: Tally, server: Dict[str, float]) -> List[str]:
    problems: List[str] = []
    _at_least(problems, "perfect-structural", t.match["perfect-structural"], t.answered, 0.99)
    _at_least(problems, "delta-frame", t.delta, t.answered, 0.99)
    _at_least(problems, "skip-scan hit", server["skipscan_hits"], t.answered, 0.99)
    return problems


def _first_contact_census(t: Tally, server: Dict[str, float]) -> List[str]:
    problems: List[str] = []
    _at_least(problems, "first-time", t.match["first-time"], t.answered, 1.0)
    if server["full_parses"] != t.answered:
        problems.append(f"server made {server['full_parses']:.0f} full parses for {t.answered} calls")
    return problems


def _fetch_census(t: Tally, server: Dict[str, float]) -> List[str]:
    problems: List[str] = []
    _at_least(problems, "differential response-parse", t.deser["differential"], t.answered, 0.99)
    if (t.min_response_bytes or 0) <= CHUNK_BYTES:
        problems.append(f"smallest response {t.min_response_bytes} B fits one {CHUNK_BYTES} B chunk")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady-update", SteadyCaller, callers=2, warmup_calls=10, census=_steady_census),
        Workload("first-contact", FirstContactCaller, callers=2, warmup_calls=4,
                 census=_first_contact_census),
        Workload("fetch-bulk", FetchCaller, callers=2, warmup_calls=10, census=_fetch_census),
    )
}
