"""Unit tests for the request/response RPC channel."""

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import SOAPFaultError
from repro.resilience import (
    FaultInjectingTransport,
    FaultSpec,
    ReconnectingTCPTransport,
    RetryPolicy,
)
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server.diffdeser import DeserKind
from repro.server.service import HTTPSoapServer, SOAPService
from repro.soap.message import Parameter, SOAPMessage


@pytest.fixture(scope="module")
def server():
    svc = SOAPService("urn:calc", TypeRegistry())

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    @svc.operation("boom", result_type=INT)
    def boom():
        raise RuntimeError("nope")

    with HTTPSoapServer(svc) as httpd:
        yield httpd


def _msg(values):
    return SOAPMessage(
        "total", "urn:calc", [Parameter("a", ArrayType(DOUBLE), values)]
    )


class TestRPCChannel:
    def test_call_round_trip(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            response = channel.call(_msg([1.0, 2.0, 3.5]))
            assert response.ok
            assert response.operation == "totalResponse"
            assert response.result() == 6.5
            assert channel.calls == 1

    def test_differential_across_calls(self, server):
        policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        with RPCChannel("127.0.0.1", server.port, policy=policy) as channel:
            channel.call(_msg([1.0, 2.0]))
            assert channel.last_send_report.match_kind is MatchKind.FIRST_TIME
            response = channel.call(_msg([1.0, 5.0]))
            assert response.result() == 6.0
            assert (
                channel.last_send_report.match_kind is MatchKind.PERFECT_STRUCTURAL
            )
            assert channel.last_send_report.rewrite.values_rewritten == 1

    def test_fault_raised(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            with pytest.raises(SOAPFaultError, match="nope"):
                channel.call(SOAPMessage("boom", "urn:calc", []))
            assert channel.faults == 1

    def test_content_length_mode(self, server):
        with RPCChannel(
            "127.0.0.1", server.port, http_mode="content-length"
        ) as channel:
            response = channel.call(_msg([4.0]))
            assert response.result() == 4.0

    def test_response_differential_deserialization(self, server):
        """Fixed-schema responses hit the channel's diff-deser path."""
        from repro.server.diffdeser import DeserKind

        with RPCChannel("127.0.0.1", server.port) as channel:
            channel.call(_msg([1.0, 2.0]))
            assert channel.last_deser_report.kind is DeserKind.FULL
            response = channel.call(_msg([1.0, 9.0]))
            assert response.result() == 10.0
            # The server reuses its response template; only the result
            # value differs → the channel re-parses just that span.
            assert channel.last_deser_report.kind in (
                DeserKind.DIFFERENTIAL,
                DeserKind.FULL,  # tolerated if widths shifted the skeleton
            )

    def test_sequential_mixed_operations(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            assert channel.call(_msg([1.0])).result() == 1.0
            with pytest.raises(SOAPFaultError):
                channel.call(SOAPMessage("boom", "urn:calc", []))
            # Channel stays usable after a fault.
            assert channel.call(_msg([2.0])).result() == 2.0


# ----------------------------------------------------------------------
# A 200 body's well-formedness is proven by the response deserializer
# ----------------------------------------------------------------------
_DOUBLES = ArrayType(DOUBLE)
_TILE = 4


@pytest.fixture(scope="module")
def stuffed_server():
    """``tile`` answers MAX-stuffed arrays, so every response field
    carries whitespace pad after its closing tag; a negative first
    value makes it raise (a Server fault)."""
    svc = SOAPService(
        "urn:calc",
        TypeRegistry(),
        response_policy=DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
    )

    @svc.operation("tile", result_type=_DOUBLES)
    def tile(a):
        if a[0] < 0:
            raise ValueError("negative lead value")
        return np.tile(np.asarray(a, dtype=np.float64), _TILE)

    with HTTPSoapServer(svc) as httpd:
        yield httpd


def _tile_msg(values):
    return SOAPMessage("tile", "urn:calc", [Parameter("a", _DOUBLES, values)])


class TestResponseWellFormedness:
    """The fault probe reads only the envelope prefix, so a corrupted
    differential reply must be caught by the channel's skip-scan
    response deserializer (and its full-parse fallback)."""

    def _warm(self, server, fit):
        channel = RPCChannel(
            "127.0.0.1",
            server.port,
            raw_transport=fit,
            retry=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        values = np.array([1.25, 2.5, 3.75, 5.0])
        for i in range(6):
            values[i % 4] = 1.25 + 0.5 * i
            response = channel.call(_tile_msg(values))
            assert np.array_equal(response.result(), np.tile(values, _TILE))
        assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
        return channel, values

    @staticmethod
    def _corrupt_next_reply(channel, fit, pos, old, new):
        """Script the next reply to arrive with byte *pos* turned from
        *old* into *new* (offsets taken from the last reply)."""
        assert channel.last_response_body[pos : pos + 1] == old
        fit.script[fit.send_index] = FaultSpec(
            "corrupt-response", corrupt_at=pos, xor_mask=ord(old) ^ ord(new)
        )

    @pytest.mark.parametrize(
        "where, old, new, event",
        [
            ("close-tag", b"m", b"x", "fallback-tag-drift"),  # </itex>
            ("pad", b" ", b"<", "fallback-pad-drift"),
            ("value", b"5", b"Z", "fallback-value-parse"),
        ],
    )
    def test_corrupt_differential_reply_is_retried(
        self, stuffed_server, where, old, new, event
    ):
        fit = FaultInjectingTransport(
            ReconnectingTCPTransport("127.0.0.1", stuffed_server.port)
        )
        channel, values = self._warm(stuffed_server, fit)
        with channel:
            # The last item of the array: its value (2.75) ends in '5',
            # its closing tag is followed by stuffing pad.
            close = channel.last_response_body.rindex(b"</item>")
            pos = {
                "close-tag": close + len(b"</ite"),
                "pad": close + len(b"</item>"),
                "value": close - 1,
            }[where]
            # Resend the same values: the clean reply would be a content
            # match, so the one corrupted byte is the only difference.
            self._corrupt_next_reply(channel, fit, pos, old, new)
            response = channel.call(_tile_msg(values))
            assert fit.injected[-1][1] == "corrupt-response"
            assert channel.last_send_report.retries == 1
            assert np.array_equal(response.result(), np.tile(values, _TILE))
            assert channel.deserializer.skipscan_stats.get(event) == 1

    def test_stray_text_in_pad_is_checked_by_the_full_parse(self, stuffed_server):
        # Plain character data between array items is well-formed mixed
        # content: skip-scan refuses the pad, and the authoritative full
        # parse decodes the same values (no error, no retry).
        fit = FaultInjectingTransport(
            ReconnectingTCPTransport("127.0.0.1", stuffed_server.port)
        )
        channel, values = self._warm(stuffed_server, fit)
        with channel:
            pos = channel.last_response_body.rindex(b"</item>") + len(b"</item>")
            self._corrupt_next_reply(channel, fit, pos, b" ", b"x")
            response = channel.call(_tile_msg(values))
            assert channel.last_send_report.retries == 0
            assert channel.last_deser_report.kind is DeserKind.FULL
            assert channel.deserializer.skipscan_stats["fallback-pad-drift"] == 1
            assert np.array_equal(response.result(), np.tile(values, _TILE))

    def test_fault_mid_stream_keeps_the_response_template(self, stuffed_server):
        fit = FaultInjectingTransport(
            ReconnectingTCPTransport("127.0.0.1", stuffed_server.port)
        )
        channel, values = self._warm(stuffed_server, fit)
        with channel:
            bad = values.copy()
            bad[0] = -bad[0]
            with pytest.raises(SOAPFaultError, match="negative lead value"):
                channel.call(_tile_msg(bad))
            assert channel.faults == 1
            values[1] = 9.25
            response = channel.call(_tile_msg(values))
            assert np.array_equal(response.result(), np.tile(values, _TILE))
            assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
            assert channel.last_deser_report.skipscan
