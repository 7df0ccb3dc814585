"""Lockstep skip-scan oracle: 200 calls across all four match levels.

For every wire a differential client emits — content resend, stuffed
structural rewrite, shifting partial rewrite, first-time send — a
skip-scan deserializer and a fresh full parse of the same bytes must
decode the same message, field for field.  4 levels x 50 calls = the
200-call acceptance budget, reusing the randomized schema/mutation
sequences from ``test_oracle_wire`` (``--rng-seed`` reseeds the whole
corpus).

The response-side lockstep drives the same contract through a live
server's responder and the client :class:`RPCChannel`, whose response
deserializer runs skip-scan.

The mid-session skeleton-drift drill injects corrupted wires into a
hot session — at the deserializer and again through a live
:class:`SOAPService` — and proves the fallback full parse answers
authoritatively without poisoning the template: every subsequent clean
call still decodes oracle-equal and the fast lane re-arms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import doubles_of_width
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.errors import XMLError
from repro.schema import DOUBLE, INT, MIO_TYPE, ArrayType, TypeRegistry
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import HTTPSoapServer, SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from tests.test_oracle_wire import (
    CALLS_PER_LEVEL,
    LEVELS,
    _level_policy,
    _sequence,
)
from tests.test_skipscan_property import _assert_decoded_equal

SEQ_LEN = {"partial-structural": 6}


def _registry() -> TypeRegistry:
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


def _expected_kind(level: str, call_index: int) -> DeserKind:
    if call_index == 0 or level == "first-time":
        return DeserKind.FULL
    if level == "content":
        return DeserKind.CONTENT_MATCH
    if level == "partial-structural":
        # Unstuffed growing widths change the wire length every call:
        # skip-scan must refuse (length drift) and full-parse.
        return DeserKind.FULL
    return DeserKind.DIFFERENTIAL


@pytest.mark.parametrize("level", LEVELS)
def test_skipscan_lockstep_oracle(level, rng_seed):
    rng = np.random.default_rng(rng_seed + 31 * LEVELS.index(level))
    seq_len = SEQ_LEN.get(level, 5)
    checked = 0
    skipscan_hits = 0
    while checked < CALLS_PER_LEVEL:
        sink = CollectSink()
        client = BSoapClient(sink, _level_policy(level))
        deser = DifferentialDeserializer(_registry(), skipscan=True)
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            client.send(message)
            wire = sink.last
            decoded, report = deser.deserialize(wire)
            reference = SOAPRequestParser(_registry()).parse(wire).message
            _assert_decoded_equal(decoded, reference)
            assert report.kind is _expected_kind(level, i), (
                f"call {i} at {level}: {report.kind}"
            )
            skipscan_hits += bool(report.skipscan)
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
    if level == "perfect-structural":
        # Every differential call must have gone through the seek
        # table, or the oracle is not exercising the new engine.
        stats = deser.skipscan_stats
        assert skipscan_hits > 0
        assert stats.get("hit", 0) + stats.get("hit-vector", 0) > 0


def test_mid_session_skeleton_drift_drill(rng_seed):
    """Corrupt skeleton bytes mid-sequence: the deserializer answers
    with the authoritative full-parse error, keeps the pre-drift
    template intact, and resumes skip-scanning on clean traffic."""
    rng = np.random.default_rng(rng_seed + 7)
    sink = CollectSink()
    client = BSoapClient(sink, _level_policy("perfect-structural"))
    deser = DifferentialDeserializer(_registry(), skipscan=True)
    messages = _sequence("perfect-structural", rng, 8)
    for i, message in enumerate(messages):
        client.send(message)
        wire = sink.last
        if i in (3, 5):
            # Flip one open-tag byte — skeleton drift by construction.
            pos = wire.index(b"<item>")
            bad = wire[:pos] + b"<jtem>" + wire[pos + 6 :]
            with pytest.raises(XMLError):
                deser.deserialize(bad)
            with pytest.raises(XMLError):
                SOAPRequestParser(_registry()).parse(bad)
        decoded, report = deser.deserialize(wire)
        reference = SOAPRequestParser(_registry()).parse(wire).message
        _assert_decoded_equal(decoded, reference)
        if i > 0:
            # The drift never cost the session its template: clean
            # wires still ride the differential path.
            assert report.kind is DeserKind.DIFFERENTIAL
            assert report.skipscan
    assert deser.skipscan_stats.get("skeleton-drift") == 2


def test_mid_session_drift_through_live_service(rng_seed):
    """The same drill through ``SOAPService.handle``: corrupt wires
    fault (never crash), clean traffic keeps skip-scanning, and the
    session's responses stay correct afterwards."""
    rng = np.random.default_rng(rng_seed + 13)
    sink = CollectSink()
    client = BSoapClient(sink, _level_policy("perfect-structural"))
    service = SOAPService("urn:oracle", registry=_registry())
    seen = []
    messages = _sequence("perfect-structural", rng, 8)

    @service.operation(messages[0].operation, result_type=INT, result_name="n")
    def handler(**params):
        seen.append(sorted(params))
        return len(params)

    for i, message in enumerate(messages):
        client.send(message)
        wire = sink.last
        if i == 4:
            pos = wire.index(b"<item>")
            bad = wire[:pos] + b"<jtem>" + wire[pos + 6 :]
            fault = service.handle(bad, "drill")
            assert b"Fault" in fault
        response = service.handle(wire, "drill")
        assert b"Fault" not in response
    stats = service.deserializer.skipscan_stats
    assert stats.get("skeleton-drift", 0) >= 1
    assert stats.get("hit", 0) + stats.get("hit-vector", 0) >= 5
    assert len(seen) == len(messages)


# ----------------------------------------------------------------------
# response side: a live server's responder -> the client RPCChannel
# ----------------------------------------------------------------------
RESPONSE_CALLS = 200
EXPAND_SIZE = 16
EXPAND_TILE = 8
#: Share of the array's positions re-drawn per call (same width).
DIRTY_FRACTIONS = (0.0, 1 / EXPAND_SIZE, 0.25, 0.5, 1.0)
WIDTHS = (3, 8, 12, 17)


def test_response_skipscan_lockstep_oracle(rng_seed):
    """200 ``expand`` replies through ``RPCChannel``: every decoded
    reply equals a fresh full parse of the same body bytes, a length
    change falls back to a full parse, and every same-length change
    rides the client's skip-scan lane."""
    rng = np.random.default_rng(rng_seed + 97)
    service = SOAPService("urn:oracle", TypeRegistry())

    @service.operation("expand", result_type=ArrayType(DOUBLE))
    def expand(a):
        return np.tile(np.asarray(a, dtype=np.float64), EXPAND_TILE)

    def draw(n, width):
        return doubles_of_width(n, width, seed=int(rng.integers(1 << 31)))

    width = int(rng.choice(WIDTHS))
    values = draw(EXPAND_SIZE, width)
    kinds = {kind: 0 for kind in DeserKind}
    previous = None
    with HTTPSoapServer(service) as server:
        with RPCChannel("127.0.0.1", server.port) as channel:
            for call in range(RESPONSE_CALLS):
                if call and call % 25 == 0:
                    # Every value changes width: the reply length drifts.
                    width = int(rng.choice([w for w in WIDTHS if w != width]))
                    values = draw(EXPAND_SIZE, width)
                else:
                    fraction = DIRTY_FRACTIONS[call % len(DIRTY_FRACTIONS)]
                    dirty = rng.choice(
                        EXPAND_SIZE,
                        size=int(round(fraction * EXPAND_SIZE)),
                        replace=False,
                    )
                    values = values.copy()
                    values[dirty] = draw(dirty.size, width)
                message = SOAPMessage(
                    "expand",
                    "urn:oracle",
                    [Parameter("a", ArrayType(DOUBLE), values)],
                )
                response = channel.call(message)
                body = channel.last_response_body
                reference = SOAPRequestParser(TypeRegistry()).parse(body).message
                assert response.operation == reference.operation
                assert list(response.values) == [p.name for p in reference.params]
                assert np.array_equal(response.result(), reference.params[0].value)
                assert np.array_equal(
                    response.result(), np.tile(values, EXPAND_TILE)
                )
                report = channel.last_deser_report
                if previous is None or len(body) != len(previous):
                    expected = DeserKind.FULL
                elif body == previous:
                    expected = DeserKind.CONTENT_MATCH
                else:
                    expected = DeserKind.DIFFERENTIAL
                    assert report.skipscan, f"call {call}"
                assert report.kind is expected, f"call {call}: {report.kind}"
                kinds[report.kind] += 1
                previous = body
    stats = channel.deserializer.skipscan_stats
    assert stats.get("length-drift", 0) == kinds[DeserKind.FULL] - 1
    assert kinds[DeserKind.DIFFERENTIAL] > RESPONSE_CALLS // 2
    assert kinds[DeserKind.CONTENT_MATCH] > 0
