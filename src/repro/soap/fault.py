"""SOAP 1.1 Faults."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import SOAPError, SOAPFaultError
from repro.soap.constants import SOAP_ENV_PREFIX, STANDARD_NSDECLS
from repro.xmlkit.scanner import (
    Characters,
    EndElement,
    Event,
    StartElement,
    XMLScanner,
)
from repro.xmlkit.writer import XMLWriter

__all__ = ["SOAPFault"]


def _local(name: str) -> str:
    return name.rsplit(":", 1)[-1]


@dataclass(frozen=True, slots=True)
class SOAPFault:
    """A SOAP 1.1 ``Fault`` element's standard fields."""

    faultcode: str
    faultstring: str
    detail: str = ""

    @classmethod
    def client(cls, message: str, detail: str = "") -> "SOAPFault":
        return cls(f"{SOAP_ENV_PREFIX}:Client", message, detail)

    @classmethod
    def server(cls, message: str, detail: str = "") -> "SOAPFault":
        return cls(f"{SOAP_ENV_PREFIX}:Server", message, detail)

    def to_xml(self) -> bytes:
        """Serialize a complete fault envelope."""
        writer = XMLWriter()
        writer.prolog()
        writer.start(f"{SOAP_ENV_PREFIX}:Envelope", nsdecls=STANDARD_NSDECLS)
        writer.start(f"{SOAP_ENV_PREFIX}:Body")
        writer.start(f"{SOAP_ENV_PREFIX}:Fault")
        writer.element("faultcode", self.faultcode)
        writer.element("faultstring", self.faultstring)
        if self.detail:
            writer.element("detail", self.detail)
        writer.close()
        return writer.getvalue()

    @classmethod
    def from_xml(cls, data: bytes) -> Optional["SOAPFault"]:
        """Extract the fault from an envelope, or ``None`` if not a fault.

        SOAP 1.1 carries a Fault as a body entry (§4.4), returned in
        place of the RPC response (§7.1), so only the first direct
        child of ``Envelope/Body`` can be one.  The scan is lazy and
        stops at that child's start tag: telling a reply is not a
        fault costs the envelope prefix, however large the body, and a
        ``Header`` block or response field that happens to be named
        ``Fault`` is not mistaken for one.  Proving the rest of a
        non-fault body well formed is left to its deserializer.  A
        Fault is scanned to the end of the document, so a malformed
        fault envelope still raises.
        """
        events = XMLScanner(data)
        depth = 0
        in_body = False
        for event in events:
            if isinstance(event, StartElement):
                depth += 1
                if depth == 2:
                    in_body = _local(event.name) == "Body"
                elif depth == 3 and in_body:
                    if _local(event.name) != "Fault":
                        return None
                    return cls._read_fault(events)
            elif isinstance(event, EndElement):
                depth -= 1
                if depth == 1 and in_body:
                    return None  # an empty Body
        return None

    @classmethod
    def _read_fault(cls, events: Iterator[Event]) -> "SOAPFault":
        """Collect the fields of the Fault just opened; drain the rest."""
        fields = {"faultcode": "", "faultstring": "", "detail": ""}
        current: Optional[str] = None
        depth = 1  # inside the Fault element
        for event in events:
            if depth == 0:
                continue  # past the Fault: the scan still checks syntax
            if isinstance(event, StartElement):
                depth += 1
                local = _local(event.name)
                if local in fields:
                    current = local
            elif isinstance(event, Characters):
                if current is not None:
                    fields[current] += event.text
            elif isinstance(event, EndElement):
                depth -= 1
                if _local(event.name) in fields:
                    current = None
        if not fields["faultcode"]:
            raise SOAPError("Fault element missing faultcode")
        return cls(fields["faultcode"], fields["faultstring"], fields["detail"])

    def raise_(self) -> None:
        """Raise this fault as a :class:`SOAPFaultError`."""
        raise SOAPFaultError(self.faultcode, self.faultstring, self.detail)
