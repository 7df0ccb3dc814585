"""Oracle tests for the fast first-time decode.

The full parse reads a primitive array's items through the scanner's
item-run step (``XMLScanner.take_leaf_run``) and ``SeekTable.compile``
proves close tags in NumPy.  Each has a reference reached through a
private seam — ``SOAPRequestParser._parse(data, item_runs=False)``
reads every item from the scanner events, and
``SeekTable._compile(..., vectorized=False)`` checks every leaf in the
per-leaf loop — and must agree with it exactly:

* parse: bit-identical values with the same dtype, equal spans,
  regions and layouts — or the same error class and message;
* compile: equal tables — or the same ``SkipScanFallback`` reason and
  detail.

Inputs cover widths, stuffing, float formats, the non-finite and
signed-zero/subnormal doubles, empty and ``T[]`` arrays, int/long/
boolean arrays, and a byte mutation at every point where the item-run
step must refuse.  A ``slow``-marked variant widens the budget.
"""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat, format_double
from repro.schema import DOUBLE, INT, STRING, ArrayType, MIO_TYPE, TypeRegistry
from repro.schema.skipscan import SeekTable, SkipScanFallback, _prove_common_close_tag
from repro.server.parser import SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.scanner import StartElement, XMLScanner

ROOT = Path(__file__).parent

HEAD = (
    b'<?xml version="1.0" encoding="UTF-8"?>'
    b'<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"'
    b' xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"'
    b' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
    b' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
    b'<SOAP-ENV:Body><ns:op xmlns:ns="urn:lane">'
)
TAIL = b"</ns:op></SOAP-ENV:Body></SOAP-ENV:Envelope>"

#: Item names: short, prefixed, punctuated, and one longer than every
#: other token in ``HEAD`` (for the ``max_token_bytes`` boundary).
LONG_NAME = "item_" + "x" * 60
ITEM_NAMES = ["item", "i", "ns:item", "x.y-z", LONG_NAME]

#: Every way an item run must be refused (see ``take_leaf_run``).
MUTATIONS = [
    "name-swap",
    "charref",
    "amp",
    "comment",
    "cdata",
    "pi",
    "self-closing",
    "end-tag-space",
    "attribute",
    "utf8",
    "invalid-utf8",
    "mixed-pad",
    "nul",
    "random-byte",
]

PAD = st.text(alphabet=" \t\r\n", max_size=6).map(str.encode)


def _registry() -> TypeRegistry:
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


# ----------------------------------------------------------------------
# document strategy
# ----------------------------------------------------------------------
@st.composite
def double_lexical(draw, noisy: bool) -> bytes:
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from([b"INF", b"-INF", b"NaN", b"-0", b"-0.0"]))
    if kind == 1 and noisy:  # charset tokens, mostly malformed
        return draw(st.text(alphabet="+-.0123456789eE ", max_size=6)).encode()
    value = draw(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, 1e308]),
        )
    )
    fmt = draw(st.sampled_from(list(FloatFormat)))
    text = format_double(value, fmt)
    if draw(st.integers(0, 7)) == 0:  # whitespace collapsed inside a value
        text = draw(PAD) + text + draw(PAD)
    return text


def int_lexical(draw, noisy: bool) -> bytes:
    bound = 2**64 if noisy else 2**63 - 1  # past int64: OverflowError
    text = str(draw(st.integers(-bound, bound))).encode()
    if draw(st.integers(0, 9)) == 0:
        text = b"+" + text.lstrip(b"-")
    return text


@st.composite
def array_param(draw, name: str, clean: bool) -> bytes:
    xsd = draw(st.sampled_from(["double", "double", "int", "long", "boolean"]))
    count = draw(st.integers(0, 24))
    noisy = not clean and draw(st.integers(0, 3)) == 0  # malformed values
    if xsd == "double":
        values = [draw(double_lexical(noisy)) for _ in range(count)]
    elif xsd == "boolean":
        forms = [b"true", b"false", b"1", b"0", b" true "] + [b"yes"] * noisy
        values = [draw(st.sampled_from(forms)) for _ in range(count)]
    else:
        values = [int_lexical(draw, noisy) for _ in range(count)]
    item = draw(st.sampled_from(ITEM_NAMES)).encode()
    declared = draw(st.sampled_from(["exact", "exact", "open"] + ["lie"] * (not clean)))
    size = {"exact": str(count), "open": "", "lie": str(count + 1)}[declared]
    items = [
        [b"<" + item + b">", v, b"</" + item + b">", draw(PAD)] for v in values
    ]
    lead = draw(PAD)
    if items and not clean and draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(items) - 1))
        _mutate(draw, draw(st.sampled_from(MUTATIONS)), items[at], item)
    body = lead + b"".join(b"".join(parts) for parts in items)
    if items and not clean and draw(st.integers(0, 9)) == 0:
        pos = draw(st.integers(0, len(body) - 1))
        body = body[:pos] + bytes([draw(st.integers(0, 255))]) + body[pos + 1 :]
    return (
        b'<%s xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:%s[%s]">'
        % (name.encode(), xsd.encode(), size.encode())
        + body
        + b"</%s>" % name.encode()
    )


def _mutate(draw, kind: str, parts: list, item: bytes) -> None:
    """Apply one refusal-point mutation to one item, in place."""
    open_tag, value, close_tag, pad = parts
    if kind == "name-swap":
        parts[0], parts[2] = b"<other>", b"</other>"
    elif kind == "charref":
        if len(value) > 1:  # the same value once the reference expands
            parts[1] = value[:1] + b"&#%d;" % value[1] + value[2:]
        else:
            parts[1] = b"&#49;"
    elif kind == "amp":
        parts[1] = value + b"&amp;"
    elif kind == "comment":
        parts[3] = pad + b"<!-- c -->"
    elif kind == "cdata":
        parts[1] = b"<![CDATA[" + value + b"]]>"
    elif kind == "pi":
        parts[3] = b"<?pi data?>" + pad
    elif kind == "self-closing":
        parts[0], parts[1], parts[2] = b"<" + item + b"/>", b"", b""
    elif kind == "end-tag-space":
        parts[2] = b"</" + item + b" >"
    elif kind == "attribute":
        parts[0] = b"<" + item + b' a="1">'
    elif kind == "utf8":
        parts[1] = value + "é".encode("utf-8")
    elif kind == "invalid-utf8":
        parts[1] = value + b"\xff"
    elif kind == "mixed-pad":
        parts[3] = pad + b"x"
    elif kind == "nul":
        parts[1] = value + b"\x00"
    else:  # random-byte inside this item
        blob = bytearray(b"".join(parts))
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        parts[:] = [bytes(blob), b"", b"", b""]


@st.composite
def documents(draw, max_params: int = 3, clean: bool = False) -> bytes:
    params = []
    for i in range(draw(st.integers(1, max_params))):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            value = draw(st.integers(-9, 9))
            params.append(b'<s%d xsi:type="xsd:int">%d</s%d>' % (i, value, i))
        elif choice == 1:
            params.append(
                b'<t%d xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:string[2]">'
                b"<item>a&amp;b</item><item>c</item></t%d>" % (i, i)
            )
        else:
            params.append(draw(array_param("p%d" % i, clean)))
    return HEAD + b"".join(params) + TAIL


def _element_count(doc: bytes):
    try:
        return sum(isinstance(e, StartElement) for e in XMLScanner(doc))
    except Exception:
        return None


@st.composite
def parser_limits(draw, doc: bytes, which: str):
    """*which* limit set right at / one unit inside the run's need."""
    if which == "elements":
        count = _element_count(doc)
        if count is not None:
            delta = draw(st.integers(-1, 0))
            return DEFAULT_LIMITS.replace(max_xml_elements=count + delta)
    if which == "depth":  # items sit at depth 5
        return DEFAULT_LIMITS.replace(max_xml_depth=draw(st.integers(4, 5)))
    if which == "token":
        return DEFAULT_LIMITS.replace(
            max_token_bytes=len(LONG_NAME) + draw(st.integers(-1, 0))
        )
    return DEFAULT_LIMITS


@st.composite
def cases(draw):
    which = draw(st.sampled_from(["default", "default", "elements", "depth", "token"]))
    # One parameter under a tight limit, so a later parameter cannot
    # raise the same limit error and mask a run that ignored it.
    doc = draw(documents(3 if which == "default" else 1))
    return doc, draw(parser_limits(doc, which))


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:
        return "err", (type(exc), str(exc))


def _same_value(a, b) -> None:
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit-identical: NaN, -0.0
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _same_value(a[key], b[key])
    elif isinstance(a, float):
        assert math.copysign(1, a) == math.copysign(1, b)
        assert a == b or (a != a and b != b)
    else:
        assert type(a) is type(b) and a == b


def assert_same_parse(fast, ref) -> None:
    """Two :class:`ParseResult` objects are observationally identical."""
    assert fast.message.operation == ref.message.operation
    assert len(fast.message.params) == len(ref.message.params)
    for p, q in zip(fast.message.params, ref.message.params):
        assert (p.name, p.kind, p.element_type) == (q.name, q.kind, q.element_type)
        _same_value(p.value, q.value)
    for arr in ("spans", "regions"):
        a, b = getattr(fast, arr), getattr(ref, arr)
        assert a.dtype == b.dtype and np.array_equal(a, b), arr
    assert len(fast.layouts) == len(ref.layouts)
    for la, lb in zip(fast.layouts, ref.layouts):
        for field in ("leaf_base", "leaf_count", "arity", "leaf_types", "field_names"):
            assert getattr(la, field) == getattr(lb, field), field


def check_parse(doc: bytes, limits=DEFAULT_LIMITS) -> str:
    parser = SOAPRequestParser(_registry(), limits)
    fast = _outcome(lambda: parser._parse(doc, item_runs=True))
    ref = _outcome(lambda: parser._parse(doc, item_runs=False))
    assert fast[0] == ref[0], (fast, ref)
    if fast[0] == "err":
        assert fast[1] == ref[1]
    else:
        assert_same_parse(fast[1], ref[1])
    return fast[0]


def _table_fields(table: SeekTable) -> dict:
    return {
        "starts": table.starts,
        "ends": table.ends,
        "tag_ids": table.tag_ids,
        "tag_lens": table.tag_lens,
        "vec_key": table._vec_key,
        "vec_param_of": table._vec_param_of,
        "vec_item_of": table._vec_item_of,
    }


def check_compile(doc: bytes, result) -> str:
    fast = _outcome(lambda: SeekTable._compile(doc, result, None, vectorized=True))
    ref = _outcome(lambda: SeekTable._compile(doc, result, None, vectorized=False))
    assert fast[0] == ref[0], (fast, ref)
    if fast[0] == "err":
        assert fast[1][0] is SkipScanFallback
        assert fast[1] == ref[1]
        return "err"
    a, b = fast[1], ref[1]
    for name, value in _table_fields(a).items():
        other = _table_fields(b)[name]
        if value is None:
            assert other is None, name
        else:
            assert value.dtype == other.dtype and np.array_equal(value, other), name
    assert a.leaf_types == b.leaf_types
    assert a._vec_len == b._vec_len
    assert len(a._vec_containers) == len(b._vec_containers)
    assert all(c is d for c, d in zip(a._vec_containers, b._vec_containers))
    keys = _keys(doc, b)
    assert _keys(doc, a) == keys
    for key in keys:  # same id per close tag in both tries
        assert a.trie.match_at(key + b">", 0) == b.trie.match_at(key + b">", 0)
    return "ok"


def _keys(doc: bytes, table: SeekTable):
    """The close-tag keys the table registered, read back from *doc*."""
    vends = table.result.spans[:, 1].tolist()
    return {doc[v : v + n] for v, n in zip(vends, table.tag_lens.tolist())}


# ----------------------------------------------------------------------
# parse oracle
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_item_run_parse_matches_event_parse(case):
    doc, limits = case
    check_parse(doc, limits)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(cases())
def test_item_run_parse_matches_event_parse_wide(case):
    doc, limits = case
    check_parse(doc, limits)


@pytest.mark.parametrize("mode", list(StuffMode))
@pytest.mark.parametrize("fmt", list(FloatFormat))
def test_serializer_wires_take_the_item_run(mode, fmt):
    """Real client wires: the run step engages and agrees."""
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [rng.normal(0, 1e3, 200), [np.inf, -np.inf, np.nan, -0.0, 5e-324, 0.0]]
    )
    message = SOAPMessage(
        "op",
        "urn:lane",
        [
            Parameter("a", ArrayType(DOUBLE), values),
            Parameter("b", ArrayType(INT), rng.integers(-5000, 5000, 50)),
            Parameter("c", ArrayType(STRING), ["x", "y&z"]),
            Parameter("n", INT, 3),
        ],
    )
    sink = CollectSink()
    policy = DiffPolicy(float_format=fmt, stuffing=StuffingPolicy(mode))
    BSoapClient(sink, policy).send(message)
    wire = sink.last
    assert check_parse(wire) == "ok"
    root = SOAPRequestParser()._build_tree(wire)
    params = root.children[0].children[0].children
    assert [p.run is not None for p in params] == [True, True, False, False]
    result = SOAPRequestParser().parse(wire)
    assert result.message.value("a").tobytes() == values.tobytes()
    assert check_compile(wire, result) == "ok"


def _doc(items: bytes, decl: str = "xsd:double[2]") -> bytes:
    return (
        HEAD
        + b'<a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="%s">' % decl.encode()
        + items
        + b"</a>"
        + TAIL
    )


CLEAN = b"<item>1.5</item>  <item>-2e3</item>\n"


@pytest.mark.parametrize(
    "items",
    [
        b"<item>1.5</item><other>2</other>",
        b"<item>1&#46;5</item><item>2</item>",
        b"<item>1.5&amp;</item><item>2</item>",
        b"<item>1.5</item><!-- c --><item>2</item>",
        b"<item><![CDATA[1.5]]></item><item>2</item>",
        b"<item>1.5</item><?pi x?><item>2</item>",
        b"<item/><item>2</item>",
        b"<item>1.5</item ><item>2</item>",
        b'<item a="1">1.5</item><item>2</item>',
        "<item>1.5é</item><item>2</item>".encode("utf-8"),
        b"<item>1.5</item>x<item>2</item>",
        b"<item>1.5</item><item>2</item>trailing",
        b"<item>1.5</item><item>oops</item>",
        b"<item>1.5</item><item></item>",
        b"<item>1.5</item><item>2</item><item>",
    ],
)
def test_each_refusal_point_falls_back_to_events(items):
    doc = _doc(items)
    check_parse(doc)
    try:
        root = SOAPRequestParser()._build_tree(doc)
    except Exception:
        return  # malformed XML: the events raised, as they must
    assert root.children[0].children[0].children[0].run is None


def test_int_past_the_digit_limit_refuses_the_run():
    """``int()`` raises ``ValueError`` past its digit limit: the run is
    refused and the event path raises that same error."""
    doc = _doc(b"<item>1</item><item>" + b"9" * 5000 + b"</item>", "xsd:int[2]")
    assert check_parse(doc) == "err"
    with pytest.raises(ValueError):
        SOAPRequestParser().parse(doc)


def test_clean_run_is_taken_and_inf_nan_take_the_scalar_path():
    doc = _doc(b"  <item>INF</item> <item>NaN</item>\t<item>-0</item>", "xsd:double[3]")
    assert check_parse(doc) == "ok"
    param = SOAPRequestParser()._build_tree(doc).children[0].children[0].children[0]
    assert param.run is not None
    value = SOAPRequestParser().parse(doc).message.value("a")
    assert np.isposinf(value[0]) and np.isnan(value[1])
    assert math.copysign(1, value[2]) < 0


@pytest.mark.parametrize(
    "decl, items",
    [
        ("xsd:double[]", CLEAN),
        ("xsd:double[0]", b""),
        ("xsd:double[0]", b"   "),
        ("xsd:double[3]", CLEAN),
        ("xsd:int[2]", b"<item>1</item><item>99999999999999999999</item>"),
        ("xsd:long[2]", b"<item>+7</item><item>-0</item>"),
        ("xsd:boolean[3]", b"<item>true</item><item>0</item><item> 1 </item>"),
        ("xsd:boolean[1]", b"<item>maybe</item>"),
        ("xsd:string[2]", CLEAN),
        ("MIO[2]", CLEAN),
        ("xsd:nosuch[2]", CLEAN),
        ("garbage", CLEAN),
    ],
)
def test_declarations_and_item_types(decl, items):
    check_parse(_doc(items, decl))


@pytest.mark.parametrize(
    "trailer, outcome",
    [
        (b"  \n", "ok"),
        (b"<!-- c -->", "ok"),
        (b"<?pi x?>", "ok"),
        (b"<x/>", "err"),
        (b"junk", "err"),
        (b"</y>", "err"),
    ],
)
def test_content_after_the_root_is_still_scanned(trailer, outcome):
    assert check_parse(_doc(CLEAN) + trailer) == outcome


def test_run_outside_a_parameter_is_not_taken():
    # An arrayType on the operation element, in a Header, or in a
    # second Body never reaches _decode_param's run handling.
    decl = b'SOAP-ENC:arrayType="xsd:double[1]"'
    arr = b'<a xsi:type="SOAP-ENC:Array" ' + decl + b"><item>1</item></a>"
    docs = [
        HEAD.replace(b"<ns:op ", b"<ns:op " + decl + b" ") + arr + TAIL,
        HEAD[: HEAD.index(b"<SOAP-ENV:Body>")]
        + b"<SOAP-ENV:Header>" + arr + b"</SOAP-ENV:Header>"
        + HEAD[HEAD.index(b"<SOAP-ENV:Body>") :] + arr + TAIL,
        HEAD + arr + b"</ns:op></SOAP-ENV:Body><SOAP-ENV:Body><ns:op>" + arr + TAIL,
        HEAD + b"<wrap>" + arr + b"</wrap>" + TAIL,
    ]
    for doc in docs:
        check_parse(doc)


# ----------------------------------------------------------------------
# compile oracle
# ----------------------------------------------------------------------
def _corpus_templates():
    paths = sorted((ROOT / "malformed").glob("skipscan_*")) + sorted(
        (ROOT / "golden").glob("*.xml")
    )
    return [pytest.param(p, id=p.name) for p in paths]


@pytest.mark.parametrize("path", _corpus_templates())
def test_compile_matches_per_leaf_on_corpus(path):
    doc = path.read_bytes()
    try:
        result = SOAPRequestParser(_registry()).parse(doc)
    except Exception:
        return  # not a template: never compiled
    check_compile(doc, result)


@st.composite
def compile_cases(draw):
    """A template, with a comment or CDATA ending some value (no close
    tag right after it), or one region end moved: onto its ``>`` (no
    close tag in the region), or into the next leaf's markup (a
    non-pad tail)."""
    doc = draw(documents(clean=True))
    if draw(st.integers(0, 4)) == 0:
        at = doc.find(b"</", len(HEAD))
        mark = draw(st.sampled_from([b"<!--c-->", b"<![CDATA[]]>"]))
        doc = doc[:at] + mark + doc[at:]
    try:
        result = SOAPRequestParser(_registry()).parse(doc)
    except Exception:
        return doc, None
    k = result.regions.shape[0]
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        gt = doc.find(b">", int(result.spans[j, 1]))
        limit = int(result.regions[j + 1, 0]) if j + 1 < k else len(doc)
        end = draw(st.sampled_from([gt, gt + 1, gt + 2, int(result.regions[j, 1]) + 1]))
        regions = result.regions.copy()
        regions[j, 1] = max(int(result.spans[j, 1]), min(end, limit))
        result.regions = regions
    return doc, result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(compile_cases())
def test_compile_matches_per_leaf_on_generated_templates(case):
    doc, result = case
    if result is not None:
        check_compile(doc, result)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(compile_cases())
def test_compile_matches_per_leaf_on_generated_templates_wide(case):
    doc, result = case
    if result is not None:
        check_compile(doc, result)


def _long_close_tag_template(shape: str, count: int = 1000) -> bytes:
    """A template with close tags padded inside the end tag (legal,
    and not a token ``max_token_bytes`` bounds): leaf 0 only
    (``scalar``), or every item of the array (``items``)."""
    if shape == "scalar":
        first = b'<s xsi:type="xsd:int">7</s' + b" " * (1 << 16) + b">"
        close = b"</i>"
    else:
        first = b""
        close = b"</i" + b" " * 256 + b">"
    items = b"".join(b"<i>%d" % v + close for v in range(count))
    array = b'<a SOAP-ENC:arrayType="xsd:int[%d]">' % count + items + b"</a>"
    return HEAD + first + array + TAIL


@pytest.mark.parametrize("shape", ["scalar", "items"])
def test_compile_proof_memory_is_bounded_by_document(shape):
    """The NumPy proof gathers only the candidates' own region bytes:
    one long close tag must not cost a tag-wide row per leaf."""
    doc = _long_close_tag_template(shape)
    result = SOAPRequestParser(_registry()).parse(doc)
    assert check_compile(doc, result) == "ok"
    vends = result.spans[:, 1]
    ends = result.regions[:, 1].astype(np.int64)
    tracemalloc.start()
    try:
        proof = _prove_common_close_tag(doc, vends, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proof is not None and bool(proof[1][0])
    assert peak < 4 * len(doc), (peak, len(doc))


def test_compile_struct_array_mixed_close_tags():
    """MIO items: three close tags, ids by first appearance."""
    message = SOAPMessage(
        "op",
        "urn:lane",
        [
            Parameter("d", ArrayType(DOUBLE), np.arange(5.0)),
            Parameter(
                "mesh",
                ArrayType(MIO_TYPE),
                {"x": np.arange(4), "y": np.arange(4), "v": np.linspace(0, 1, 4)},
            ),
        ],
    )
    sink = CollectSink()
    BSoapClient(sink).send(message)
    result = SOAPRequestParser(_registry()).parse(sink.last)
    assert check_compile(sink.last, result) == "ok"
    table = SeekTable.compile(sink.last, result)
    assert sorted(set(table.tag_ids.tolist())) == [0, 1, 2, 3]
