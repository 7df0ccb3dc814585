"""The benchmark's own SOAP service: two operations and their oracle.

``checksum(a)`` returns the sum of the array; ``expand(a)`` returns the
array tiled :data:`TILE` times.  The client checks every response
against the same function applied to the values it sent, so a wrong
answer can only come from the program carrying the values.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import DeltaPolicy, DiffPolicy, Parameter, SOAPMessage, StuffingPolicy, StuffMode
from repro.schema import ArrayType, DOUBLE, TypeRegistry
from repro.server import SOAPService

NAMESPACE = "urn:perfbench"
#: Copies of the request array in an ``expand`` response.
TILE = 64
DOUBLES = ArrayType(DOUBLE)

#: Every caller's policy: max-stuffed fields (a resend never shifts)
#: and an offer of binary delta frames.
CLIENT_POLICY = DiffPolicy(
    stuffing=StuffingPolicy(StuffMode.MAX),
    delta=DeltaPolicy(offer=True),
)


def checksum(a):
    return float(np.sum(a))


def expand(a):
    return np.tile(np.asarray(a, dtype=np.float64), TILE)


def request(operation: str, values: np.ndarray) -> SOAPMessage:
    return SOAPMessage(operation, NAMESPACE, [Parameter("a", DOUBLES, values)])


def build_service(wrap: Optional[Callable[[Callable], Callable]] = None) -> SOAPService:
    """The service with both operations; *wrap* decorates each handler."""
    wrap = wrap or (lambda fn: fn)
    service = SOAPService(NAMESPACE, TypeRegistry())
    service.operation("checksum", result_type=DOUBLE)(wrap(checksum))
    service.operation("expand", result_type=DOUBLES)(wrap(expand))
    return service
