"""Schema-guided SOAP request parsing (the full-deserialization baseline).

The parser builds a light element tree from the scanner's event
stream, then decodes the RPC body into typed values: NumPy arrays for
numeric array parameters, column dicts for struct arrays, Python
scalars otherwise.

Crucially for differential deserialization, it also records the **raw
byte span of every leaf value** (including any whitespace stuffing
inside the span's tail) in document order, plus enough layout to
update any leaf in place later — the server-side mirror of the DUT
table.

A parameter whose ``SOAP-ENC:arrayType`` names a numeric or boolean
primitive is read through the scanner's item-run step
(:meth:`~repro.xmlkit.scanner.XMLScanner.take_leaf_run`): values,
spans and field regions come out as whole columns, doubles through
the bulk kernel :func:`~repro.lexical.floats.parse_double_spans`.  A
run the step refuses is read item by item from the events, which stay
the only source of parse errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import LexicalError, ReproError, ResourceLimitError, SOAPError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.lexical.floats import parse_double_spans
from repro.schema.composite import StructType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, XSDType, primitive_by_name
from repro.soap.encoding import parse_array_type_attr
from repro.xmlkit.scanner import (
    Characters,
    EndElement,
    LeafRun,
    StartElement,
    XMLScanner,
)

__all__ = ["SOAPRequestParser", "DecodedMessage", "DecodedParam", "ParseResult"]


def _leaf_from_text(xsd_type: XSDType, text: str):
    """Decode a leaf from *scanner-decoded* text.

    The scanner has already resolved entity references, so string
    leaves are taken verbatim (re-running ``STRING.parse`` would
    double-unescape); numeric/boolean leaves go through their lexical
    parser on the ASCII bytes.
    """
    if xsd_type.np_dtype is None:  # string
        return text
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise SOAPError(
            f"non-ASCII text in {xsd_type.name!r} leaf: {text[:40]!r}"
        ) from None
    return xsd_type.parse(raw)


def _run_converter(element: XSDType):
    """Value converter for :meth:`XMLScanner.take_leaf_run`.

    Doubles go through the bulk kernel; other numeric and boolean
    items through their lexical parser.  A value that does not parse
    refuses the run (``None``) so the event path raises the
    authoritative error, at the point in the document where the
    reference parse does.  Only the errors a malformed value can raise
    are caught — :class:`LexicalError`, plus the ``ValueError`` of
    ``int()``'s digit limit — so a defect in a kernel still surfaces.
    """

    def convert(data: bytes, starts: np.ndarray, ends: np.ndarray):
        if element is DOUBLE:
            try:
                return parse_double_spans(data, starts, ends)
            except LexicalError:
                return None
        parse = element.parse
        try:
            return [parse(data[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]
        except (LexicalError, ValueError):
            return None

    return convert


def _array_decl(attrs: Dict[str, str]) -> Optional[str]:
    """The value of the first ``*:arrayType`` attribute, if any."""
    for key, value in attrs.items():
        if key.rsplit(":", 1)[-1] == "arrayType":
            return value
    return None


@dataclass(slots=True)
class _Node:
    """One parsed element: name, attrs, children, text + raw text span."""

    name: str
    attrs: Dict[str, str]
    children: List["_Node"]
    text: str
    span: Optional[Tuple[int, int]]  # raw byte span of the text content
    #: The items of a primitive array read by the item-run step (then
    #: ``children`` is empty).
    run: Optional[LeafRun] = None

    @property
    def local(self) -> str:
        return self.name.rsplit(":", 1)[-1]


@dataclass(slots=True)
class DecodedParam:
    """One decoded parameter."""

    name: str
    kind: str  # "array" | "struct_array" | "scalar"
    value: object
    element_type: Optional[Union[XSDType, StructType]] = None


@dataclass(slots=True)
class DecodedMessage:
    """The logical content of a parsed RPC request."""

    operation: str
    params: List[DecodedParam] = field(default_factory=list)

    def param(self, name: str) -> DecodedParam:
        for p in self.params:
            if p.name == name:
                return p
        raise SOAPError(f"decoded message has no parameter {name!r}")

    def value(self, name: str):
        return self.param(name).value


@dataclass(slots=True)
class _ParamLayout:
    """Leaf → storage mapping for in-place differential updates."""

    param: DecodedParam
    leaf_base: int
    leaf_count: int
    arity: int
    leaf_types: Tuple[XSDType, ...]
    field_names: Tuple[str, ...]  # empty for primitive arrays/scalars


#: A decoded parameter, its layout, and the value spans of the leaves
#: read from child nodes (empty for an item run, which carries its own).
_Decoded = Tuple[DecodedParam, _ParamLayout, List[Tuple[int, int]]]


class ParseResult:
    """Full-parse output: message + leaf spans + in-place setters."""

    def __init__(
        self,
        message: DecodedMessage,
        spans: np.ndarray,
        layouts: List[_ParamLayout],
        regions: Optional[np.ndarray] = None,
    ) -> None:
        self.message = message
        #: (k, 2) int64 array of raw value-text spans, document order.
        self.spans = spans
        #: (k, 2) int64 array of *field-region* spans: value + closing
        #: tag + trailing whitespace pad.  All bytes that may legally
        #: change when only this leaf's value changes fall inside its
        #: region — what differential deserialization diffs against.
        self.regions = regions if regions is not None else spans
        self._layouts = layouts
        self._bases = np.asarray([l.leaf_base for l in layouts], dtype=np.int64)

    @property
    def leaf_count(self) -> int:
        return int(self.spans.shape[0])

    @property
    def layouts(self) -> List[_ParamLayout]:
        """Per-parameter leaf→storage layouts (document order).

        Read-only for consumers like the skip-scan
        :class:`~repro.schema.skipscan.SeekTable`, which compiles its
        vectorized commit arrays from ``leaf_base`` / ``leaf_count`` /
        ``param`` here.
        """
        return self._layouts

    def _layout_for(self, j: int) -> _ParamLayout:
        pos = int(np.searchsorted(self._bases, j, side="right")) - 1
        return self._layouts[pos]

    def set_leaf(self, j: int, raw: bytes) -> None:
        """Re-parse one leaf from raw bytes and store it in place."""
        layout = self._layout_for(j)
        fpos = (j - layout.leaf_base) % layout.arity
        self.store_leaf(j, layout.leaf_types[fpos].parse(raw))

    def store_leaf(self, j: int, value: object) -> None:
        """Store an already-parsed leaf value in place.

        The skip-scan commit phase: the value was produced by the same
        lexical parser :meth:`set_leaf` would have used, just earlier
        (two-phase parse-then-commit, so a mid-batch parse failure
        never leaves the decode half-updated).
        """
        layout = self._layout_for(j)
        local = j - layout.leaf_base
        item = local // layout.arity
        fpos = local % layout.arity
        param = layout.param
        if param.kind == "array":
            param.value[item] = value  # type: ignore[index]
        elif param.kind == "struct_array":
            param.value[layout.field_names[fpos]][item] = value  # type: ignore[index]
        else:
            param.value = value


class _Frame:
    """Mutable per-element state during the iterative tree build."""

    __slots__ = ("start", "children", "text_parts", "span", "run")

    def __init__(self, start: StartElement) -> None:
        self.start = start
        self.children: List[_Node] = []
        self.text_parts: List[str] = []
        self.span: Optional[Tuple[int, int]] = None
        self.run: Optional[LeafRun] = None


class SOAPRequestParser:
    """Parses SOAP 1.1 RPC requests against a type registry.

    *limits* (default :data:`~repro.hardening.DEFAULT_LIMITS`) bounds
    body size, nesting depth, element/attribute counts, and token
    lengths; crossing any of them raises
    :class:`~repro.errors.ResourceLimitError` (a
    :class:`~repro.errors.SOAPError`, so services answer with a
    Client fault).
    """

    def __init__(
        self,
        registry: Optional[TypeRegistry] = None,
        limits: Optional[ResourceLimits] = None,
    ) -> None:
        self.registry = registry or TypeRegistry()
        self.limits = limits if limits is not None else DEFAULT_LIMITS

    # ------------------------------------------------------------------
    # tree building
    # ------------------------------------------------------------------
    def _build_tree(self, data: bytes, item_runs: bool = True) -> _Node:
        """Build the element tree with an explicit stack.

        Iterative on purpose: nesting depth is attacker-controlled, so
        the build must never recurse (a 10k-deep document would
        otherwise die with ``RecursionError`` instead of faulting).
        The scanner enforces ``limits`` incrementally and is read
        lazily; after the root closes it is drained, so trailing
        content raises exactly as in a complete scan.  With
        *item_runs*, a parameter holding a primitive array is offered
        to the scanner's item-run step first.
        """
        if len(data) > self.limits.max_body_bytes:
            raise ResourceLimitError(
                f"body of {len(data)} bytes exceeds "
                f"max_body_bytes={self.limits.max_body_bytes}",
                "max_body_bytes",
            )
        scanner = XMLScanner(data, keep_whitespace=True, limits=self.limits)
        for ev in scanner:
            if isinstance(ev, StartElement):
                break
        else:
            raise SOAPError("no root element")

        stack: List[_Frame] = [_Frame(ev)]
        # The frame whose last text run ends where the next event starts.
        open_text: Optional[_Frame] = None
        for ev in scanner:
            if open_text is not None:
                open_text.span = (open_text.span[0], ev.offset)  # type: ignore[index]
                open_text = None
            frame = stack[-1]
            if isinstance(ev, EndElement):
                span = frame.span
                if span is None and not frame.children:
                    # Empty leaf: zero-length span at the close tag.
                    off = ev.offset if ev.offset >= 0 else 0
                    span = (off, off)
                node = _Node(
                    frame.start.name,
                    dict(frame.start.attrs),
                    frame.children,
                    "".join(frame.text_parts),
                    span,
                    frame.run,
                )
                stack.pop()
                if not stack:
                    for _ in scanner:
                        pass
                    return node
                stack[-1].children.append(node)
            elif isinstance(ev, Characters):
                frame.text_parts.append(ev.text)
                frame.span = (frame.span[0] if frame.span else ev.offset, ev.offset)
                open_text = frame
            elif isinstance(ev, StartElement):
                child = _Frame(ev)
                stack.append(child)
                if item_runs and not ev.self_closing and self._is_param(stack):
                    element = self._run_element(ev.attrs)
                    if element is not None:
                        child.run = scanner.take_leaf_run(_run_converter(element))
        raise SOAPError("unterminated element tree")

    @staticmethod
    def _is_param(stack: List[_Frame]) -> bool:
        """True when the top of *stack* is an RPC parameter element.

        That is a child of the operation element, which is the first
        child of the first ``Body`` under the root — exactly the nodes
        :meth:`parse` hands to :meth:`_decode_param`.
        """
        if len(stack) != 4:
            return False
        root, body = stack[0], stack[1]
        if body.start.name.rsplit(":", 1)[-1] != "Body" or body.children:
            return False
        return not any(c.local == "Body" for c in root.children)

    def _run_element(self, attrs: Dict[str, str]) -> Optional[XSDType]:
        """The numeric/boolean item type an ``arrayType`` declares.

        ``None`` when there is no declaration, it does not parse, or it
        names a string or struct type; :meth:`_decode_param` then
        decodes (or rejects) the parameter from its child nodes.
        """
        decl = _array_decl(attrs)
        if decl is None:
            return None
        try:
            element = self._resolve_type(parse_array_type_attr(decl)[0])
        except ReproError:
            return None  # _decode_param raises it at its turn
        if isinstance(element, XSDType) and element.np_dtype is not None:
            return element
        return None

    # ------------------------------------------------------------------
    # typed decoding
    # ------------------------------------------------------------------
    def parse(self, data: bytes) -> ParseResult:
        """Full parse: decode the message and record all leaf spans."""
        return self._parse(data, item_runs=True)

    def _parse(self, data: bytes, item_runs: bool) -> ParseResult:
        """:meth:`parse`; ``item_runs=False`` reads every array item
        from the scanner events (the reference the item-run step must
        equal)."""
        root = self._build_tree(data, item_runs)
        if root.local != "Envelope":
            raise SOAPError(f"root element is {root.name!r}, expected Envelope")
        body = self._child_by_local(root, "Body")
        if body is None or not body.children:
            raise SOAPError("missing or empty SOAP Body")
        op_node = body.children[0]
        message = DecodedMessage(operation=op_node.local)

        span_parts: List[np.ndarray] = []
        region_parts: List[np.ndarray] = []
        # Spans read from child nodes since the last item run: one
        # NumPy conversion per stretch, not per parameter.
        pending: List[Tuple[int, int]] = []

        def flush() -> None:
            if pending:
                part = np.asarray(pending, dtype=np.int64)
                span_parts.append(part)
                region_parts.append(self._field_regions(data, part))
                pending.clear()

        layouts: List[_ParamLayout] = []
        leaf_base = 0
        for pnode in op_node.children:
            param, layout, spans = self._decode_param(pnode, leaf_base)
            message.params.append(param)
            layouts.append(layout)
            leaf_base += layout.leaf_count
            if pnode.run is None:
                pending.extend(spans)
            else:
                flush()
                span_parts.append(pnode.run.spans)
                region_parts.append(pnode.run.regions)
        flush()
        if len(span_parts) == 1:
            span_arr, regions = span_parts[0], region_parts[0]
        elif span_parts:
            span_arr = np.concatenate(span_parts)
            regions = np.concatenate(region_parts)
        else:
            span_arr = regions = np.empty((0, 2), dtype=np.int64)
        return ParseResult(message, span_arr, layouts, regions)

    @staticmethod
    def _field_regions(data: bytes, spans: np.ndarray) -> np.ndarray:
        """Extend each value span to its full field region.

        The region runs from the value start through the closing tag
        and any whitespace stuffing, up to the next markup byte —
        mirroring the sender-side DUT field layout.
        """
        if spans.shape[0] == 0:
            return spans
        regions = spans.copy()
        n = len(data)
        ws = b" \t\r\n"
        for j in range(spans.shape[0]):
            end = int(spans[j, 1])
            # Skip the closing tag that immediately follows the value.
            gt = data.find(b">", end)
            if gt < 0:  # pragma: no cover - malformed, keep text span
                continue
            pos = gt + 1
            while pos < n and data[pos] in ws:
                pos += 1
            regions[j, 1] = pos
        return regions

    @staticmethod
    def _child_by_local(node: _Node, local: str) -> Optional[_Node]:
        for child in node.children:
            if child.local == local:
                return child
        return None

    def _resolve_type(self, prefixed: str) -> Union[XSDType, StructType]:
        local = prefixed.rsplit(":", 1)[-1]
        resolved = self.registry.lookup(local) if local in self.registry else None
        if resolved is None:
            resolved = primitive_by_name(local)
        if isinstance(resolved, (XSDType, StructType)):
            return resolved
        raise SOAPError(f"type {prefixed!r} is not usable as an element type")

    def _decode_param(self, node: _Node, leaf_base: int) -> _Decoded:
        attrs = node.attrs
        array_decl = _array_decl(attrs)

        if array_decl is not None:
            type_name, declared = parse_array_type_attr(array_decl)
            element = self._resolve_type(type_name)
            if isinstance(element, StructType):
                return self._decode_struct_array(node, element, declared, leaf_base)
            return self._decode_primitive_array(node, element, declared, leaf_base)

        xsi = None
        for key, value in attrs.items():
            if key.rsplit(":", 1)[-1] == "type":
                xsi = value
                break
        if xsi is not None and xsi.rsplit(":", 1)[-1] in self.registry:
            maybe = self.registry.lookup(xsi.rsplit(":", 1)[-1])
            if isinstance(maybe, StructType):
                return self._decode_scalar_struct(node, maybe, leaf_base)
        element = self._resolve_type(xsi) if xsi else primitive_by_name("string")
        if isinstance(element, StructType):
            return self._decode_scalar_struct(node, element, leaf_base)
        value = _leaf_from_text(element, node.text)
        param = DecodedParam(node.local, "scalar", value, element)
        span = node.span or (0, 0)
        layout = _ParamLayout(param, leaf_base, 1, 1, (element,), ())
        return param, layout, [span]

    def _decode_primitive_array(
        self, node: _Node, element: XSDType, declared: Optional[int], leaf_base: int
    ) -> _Decoded:
        run = node.run
        count = len(run.spans) if run is not None else len(node.children)
        if declared is not None and declared != count:
            raise SOAPError(f"arrayType declared {declared} items, found {count}")
        spans: List[Tuple[int, int]] = []
        if run is not None:
            values = run.values
        else:
            values = [_leaf_from_text(element, item.text) for item in node.children]
            spans = [item.span or (0, 0) for item in node.children]
        if element.np_dtype is not None:
            container: object = np.asarray(values, dtype=element.np_dtype)
        else:
            container = values
        param = DecodedParam(node.local, "array", container, element)
        layout = _ParamLayout(param, leaf_base, count, 1, (element,), ())
        return param, layout, spans

    def _decode_struct_array(
        self, node: _Node, struct: StructType, declared: Optional[int], leaf_base: int
    ) -> _Decoded:
        items = node.children
        if declared is not None and declared != len(items):
            raise SOAPError(
                f"arrayType declared {declared} items, found {len(items)}"
            )
        arity = struct.arity
        fields = struct.fields
        cols: Dict[str, List[object]] = {f.name: [] for f in fields}
        spans: List[Tuple[int, int]] = []
        for item in items:
            if len(item.children) != arity:
                raise SOAPError(
                    f"struct item has {len(item.children)} fields, expected {arity}"
                )
            for f, child in zip(fields, item.children):
                if child.local != f.name:
                    raise SOAPError(
                        f"struct field {child.local!r} does not match schema "
                        f"field {f.name!r}"
                    )
                cols[f.name].append(_leaf_from_text(f.xsd_type, child.text))
                spans.append(child.span or (0, 0))
        columns: Dict[str, object] = {}
        for f in fields:
            if f.xsd_type.np_dtype is not None:
                columns[f.name] = np.asarray(cols[f.name], dtype=f.xsd_type.np_dtype)
            else:
                columns[f.name] = cols[f.name]
        param = DecodedParam(node.local, "struct_array", columns, struct)
        layout = _ParamLayout(
            param,
            leaf_base,
            len(items) * arity,
            arity,
            tuple(f.xsd_type for f in fields),
            tuple(f.name for f in fields),
        )
        return param, layout, spans

    def _decode_scalar_struct(
        self, node: _Node, struct: StructType, leaf_base: int
    ) -> _Decoded:
        arity = struct.arity
        if len(node.children) != arity:
            raise SOAPError("scalar struct field count mismatch")
        columns: Dict[str, object] = {}
        spans: List[Tuple[int, int]] = []
        for f, child in zip(struct.fields, node.children):
            if child.local != f.name:
                raise SOAPError(f"unexpected struct field {child.local!r}")
            value = _leaf_from_text(f.xsd_type, child.text)
            columns[f.name] = (
                np.asarray([value], dtype=f.xsd_type.np_dtype)
                if f.xsd_type.np_dtype is not None
                else [value]
            )
            spans.append(child.span or (0, 0))
        param = DecodedParam(node.local, "struct_array", columns, struct)
        layout = _ParamLayout(
            param,
            leaf_base,
            arity,
            arity,
            tuple(f.xsd_type for f in struct.fields),
            tuple(f.name for f in struct.fields),
        )
        return param, layout, spans
