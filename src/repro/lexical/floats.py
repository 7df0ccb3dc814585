"""Double lexical forms — the serialization bottleneck.

Chiu et al. measured float↔ASCII conversion at ~90% of SOAP call cost;
the same asymmetry holds here (formatting a Python float costs on the
order of a microsecond, while copying its already-serialized bytes is
tens of nanoseconds).  Differential serialization's win comes from
skipping calls into this module.

Two formats are supported:

``FloatFormat.SHORTEST``
    Python ``repr`` — the shortest string that round-trips exactly.
    Lengths vary from 1 (``0``... actually ``0.0``) to 24 characters,
    which is what makes shifting/stuffing interesting.
``FloatFormat.G17``
    ``%.17g`` — fixed 17 significant digits, also round-trip exact,
    at most 24 characters.
``FloatFormat.FIXED``
    ``%24.16e`` — every finite double occupies **exactly** 24
    characters (17 significant digits, round-trip exact; shorter
    forms are left-padded with spaces, legal under XSD's
    ``whiteSpace=collapse``).  Constant widths mean a resend can
    never shift a closing tag, which is what enables the
    rewrite-plan *splice* path (``repro.core.plan``) to write whole
    dirty runs with strided NumPy assignments.

Special values use the XML Schema lexical forms ``INF``, ``-INF`` and
``NaN``.

Batch converters accept ``cached=True`` to route repeated values
through the conversion memo in :mod:`repro.lexical.cache` —
byte-identical output, one dict probe instead of a fresh conversion
on a hit.

The parse direction has one bulk kernel, :func:`parse_double_rows`:
a charset proof plus a single NumPy string→float64 cast over a matrix
of values.  Both receivers use it — the first-time parse
(:func:`parse_double_spans`, via the scanner's item-run step) and
skip-scan's vectorized lane — so they agree with :func:`parse_double`
bit for bit by the same argument.
"""

from __future__ import annotations

import enum
import math
from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import LexicalError
from repro.lexical.cache import (
    DOUBLE_FIXED_WIDTH,
    format_double_fixed,
    memo_format_batch,
)

__all__ = [
    "DOUBLE_MAX_WIDTH",
    "DOUBLE_MIN_WIDTH",
    "DOUBLE_FIXED_WIDTH",
    "FloatFormat",
    "format_double",
    "parse_double",
    "format_double_array",
    "parse_double_rows",
    "parse_double_spans",
]

#: Maximum characters any finite double can need in either format
#: (e.g. ``-2.2250738585072014e-308`` — paper §4.4: 24 characters).
DOUBLE_MAX_WIDTH = 24

#: Smallest possible serialized double (paper §4.3: one character,
#: e.g. ``0`` in the paper's C encoder; Python's shortest form for
#: ``5.0`` is ``5.0`` but integral-valued floats can be emitted as a
#: bare digit by the minimal encoder used in the width studies).
DOUBLE_MIN_WIDTH = 1

_ALLOWED = frozenset(b"+-.0123456789eE")

#: Bytes :func:`parse_double_rows` accepts: exactly ``_ALLOWED`` plus
#: the space pad (leading in the FIXED ``%24.16e`` form, trailing where
#: a row is wider than its value).  Tabs/CR/LF are deliberately
#: excluded — ``parse_double`` strips them but NumPy's string→float
#: conversion is not guaranteed to agree, so those values take the
#: scalar path.
_BULK_LUT = np.zeros(256, dtype=bool)
for _b in b"+-.0123456789eE ":
    _BULK_LUT[_b] = True
del _b

#: Widest value :func:`parse_double_spans` converts in bulk.  Wider
#: values (legal: whitespace inside a value is collapsed) go through
#: :func:`parse_double` one by one, so an attacker cannot inflate the
#: ``(m, width)`` matrix with one long value.
_BULK_MAX_WIDTH = 64


class FloatFormat(enum.Enum):
    """Selectable double→ASCII conversion policy."""

    SHORTEST = "shortest"
    G17 = "g17"
    #: Minimal form: like SHORTEST but integral values drop ``.0``
    #: (``5.0`` → ``5``).  This matches the paper's C encoder, whose
    #: smallest double costs a single character, and is the default.
    MINIMAL = "minimal"
    #: Constant-width ``%24.16e``: every finite double is exactly 24
    #: characters, enabling splice-run rewrite plans (no closing-tag
    #: shift can ever occur for doubles).
    FIXED = "fixed"


def format_double(value: float, fmt: FloatFormat = FloatFormat.MINIMAL) -> bytes:
    """Serialize one double to its lexical form."""
    if value != value:  # NaN
        return b"NaN"
    if value == math.inf:
        return b"INF"
    if value == -math.inf:
        return b"-INF"
    if fmt is FloatFormat.G17:
        return b"%.17g" % value
    if fmt is FloatFormat.FIXED:
        return format_double_fixed(value)
    text = repr(value)
    if fmt is FloatFormat.MINIMAL:
        if text.endswith(".0"):
            text = text[:-2]
        elif ".0e" in text:  # e.g. 1.0e+100 never produced by repr, but be safe
            text = text.replace(".0e", "e")
    return text.encode("ascii")


def parse_double(data: bytes) -> float:
    """Parse a double lexical form (XSD whiteSpace=collapse)."""
    text = data.strip(b" \t\r\n")
    if not text:
        raise LexicalError("empty double lexical form")
    if text == b"INF":
        return math.inf
    if text == b"-INF":
        return -math.inf
    if text == b"NaN":
        return math.nan
    if any(b not in _ALLOWED for b in text):
        raise LexicalError(f"invalid double lexical form {data!r}")
    try:
        return float(text)
    except ValueError as exc:
        raise LexicalError(f"invalid double lexical form {data!r}") from exc


def parse_double_rows(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Convert each row of a space-padded ``(m, w)`` uint8 matrix.

    Returns ``(values, proven)``.  ``proven[i]`` is true when every
    byte of row *i* is in the bulk charset; only those rows are
    converted, and for them ``values[i]`` is bit-identical to
    ``parse_double(row)`` (NumPy and ``float`` agree on every token of
    this alphabet).  Unproven rows — ``INF``, ``NaN``, tabs, garbage —
    hold ``0.0`` and are the caller's to parse one by one.

    Raises :class:`ValueError` when NumPy refuses a proven row (an
    all-pad row, ``1e``, ``+``): ``parse_double`` rejects those too,
    and the caller lets it produce the authoritative error.
    """
    m, width = mat.shape
    if width == 0:
        return np.zeros(m, dtype=np.float64), np.zeros(m, dtype=bool)
    in_charset = _BULK_LUT[mat]
    if bool(in_charset.all()):  # the common case: one flat reduction
        proven = np.ones(m, dtype=bool)
    else:
        proven = in_charset.all(axis=1)
        filler = np.full(width, 0x20, dtype=np.uint8)
        filler[0] = 0x30  # "0": a row NumPy converts without complaint
        mat = np.where(proven[:, None], mat, filler)
    values = (
        np.ascontiguousarray(mat, dtype=np.uint8)
        .view(f"S{width}")
        .ravel()
        .astype(np.float64)
    )
    return values, proven


def parse_double_spans(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Parse the double at every ``data[starts[i]:ends[i]]`` at once.

    Bit-identical to ``[parse_double(data[s:e]) ...]`` as a float64
    array, and raises the same :class:`LexicalError` for the first
    value that is not a double.  Values are gathered into one
    space-padded matrix (no per-value ``bytes`` objects) and converted
    by :func:`parse_double_rows`; values outside its charset, wider
    than ``_BULK_MAX_WIDTH`` or too close to the end of *data* for the
    gather window take the scalar path.
    """
    m = int(starts.shape[0])
    out = np.zeros(m, dtype=np.float64)
    proven = np.zeros(m, dtype=bool)
    lens = ends - starts
    width = min(int(lens.max()), _BULK_MAX_WIDTH) if m else 0
    if width > 0 and len(data) >= width:
        buf = np.frombuffer(data, dtype=np.uint8)
        fits = (lens <= width) & (starts <= len(data) - width)
        mat = sliding_window_view(buf, width)[np.where(fits, starts, 0)]
        mat[np.arange(width)[None, :] >= lens[:, None]] = 0x20
        mat[~fits] = 0  # outside the charset: unproven, scalar path
        try:
            out, proven = parse_double_rows(mat)
        except ValueError:
            pass  # a malformed value: the scalar path names it
        proven &= fits
    for i in np.flatnonzero(~proven).tolist():
        out[i] = parse_double(data[int(starts[i]) : int(ends[i])])
    return out


def _format_minimal_one(v: float) -> bytes:
    text = repr(v)
    if text.endswith(".0"):
        text = text[:-2]
    return text.encode("ascii")


def _format_shortest_one(v: float) -> bytes:
    return repr(v).encode("ascii")


def _format_g17_one(v: float) -> bytes:
    return b"%.17g" % v


#: Per-format finite-value converters for the memoized batch path.
_FORMAT_ONE = {
    FloatFormat.MINIMAL: _format_minimal_one,
    FloatFormat.SHORTEST: _format_shortest_one,
    FloatFormat.G17: _format_g17_one,
    FloatFormat.FIXED: format_double_fixed,
}


def format_double_array(
    values: Sequence[float] | np.ndarray,
    fmt: FloatFormat = FloatFormat.MINIMAL,
    cached: bool = False,
) -> List[bytes]:
    """Batch conversion of doubles to lexical forms.

    The hot loop runs over unboxed Python floats (``ndarray.tolist``)
    — the fastest pure-Python formulation; this *is* the measured
    conversion cost that differential serialization avoids.  With
    ``cached=True`` repeated finite values resolve through the
    conversion memo (:mod:`repro.lexical.cache`) instead of being
    re-converted; output bytes are identical either way.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "f":
            raise LexicalError(f"expected float array, got dtype {values.dtype}")
        finite = bool(np.isfinite(values).all())
        values = values.tolist()
    else:
        values = list(values)
        finite = all(v == v and abs(v) != math.inf for v in values)

    if not finite:
        return [format_double(v, fmt) for v in values]

    if cached:
        return memo_format_batch(values, fmt.value, _FORMAT_ONE[fmt])

    if fmt is FloatFormat.G17:
        return [b"%.17g" % v for v in values]

    if fmt is FloatFormat.FIXED:
        return [b"%24.16e" % v for v in values]

    if fmt is FloatFormat.MINIMAL:
        out: List[bytes] = []
        append = out.append
        for v in values:
            text = repr(v)
            if text.endswith(".0"):
                text = text[:-2]
            append(text.encode("ascii"))
        return out

    # SHORTEST
    return [repr(v).encode("ascii") for v in values]
