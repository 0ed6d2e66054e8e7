"""The writers behind every JSON and CSV output of the command-line front end.

Numbers print at any length (long ints are split for CPython's digit
limit), floats with 12 significant digits and Fractions as quoted
"num/den" strings, so identical documents are byte-identical text.  A
JSON document is one generator of text pieces, and _stream, the one
holder of text, hands the pieces of JSON and CSV alike on in slices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _int_str(v: int) -> str:
    """str(v) at any length.

    CPython refuses to convert an int with more digits than its limit
    (4300 by default, never below 640), so a long one is split in two
    by a power of ten.  Parsing keeps the limit.
    """
    if v.bit_length() <= 2000:  # at most 603 digits
        return str(v)
    if v < 0:
        return "-" + _int_str(-v)
    k = v.bit_length() * 3 // 20  # about half of v's digits
    hi, lo = divmod(v, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _fmt_ratio(num: int, den: int) -> str:
    """num/den as JSON and CSV print a fraction in lowest terms: num alone when den is 1."""
    return f"{_int_str(num)}/{_int_str(den)}" if den != 1 else _int_str(num)


# The most characters the writers hand on at once, so no text is copied
# at its full size (a text stream encodes each str written to it whole).
_SLICE = 1 << 16


def _flush(texts: list, write) -> None:
    """Hand the strs of texts, joined, to write in pieces of at most
    _SLICE characters, and empty texts."""
    text = "".join(texts)
    texts.clear()
    for i in range(0, len(text), _SLICE):
        write(text[i:i + _SLICE])


def _stream(texts, write) -> None:
    """Hand the strs of texts, in order, to write in pieces of at most _SLICE
    characters, holding about _SLICE characters of them at a time."""
    held, size = [], 0
    for text in texts:
        held.append(text)
        size += len(text)
        if size >= _SLICE:
            _flush(held, write)
            size = 0
    _flush(held, write)


_SLOT = object()  # a leaf of a _Rows layout, filled from each row


class _Rows:
    """A JSON list of records that share one layout, written without a dict per record.

    layout is a non-empty dict whose leaves, nested dicts aside, are all
    _SLOT; each row is the tuple of its leaf values in the layout's order.
    As the whole document or as a dict value, _Rows(layout, rows) is
    written exactly as the list of those dicts with the leaves filled in.
    rows may be any iterable, such as a generator; it is drawn once, as
    the list is written.
    """

    __slots__ = ("layout", "rows")

    def __init__(self, layout: dict, rows):
        self.layout, self.rows = layout, rows


# The text of a scalar, by its exact type
_SCALARS = {
    float: _fmt_float,
    int: _int_str,
    str: encode_basestring_ascii,
    Fraction: lambda w: f'"{_fmt_ratio(w.numerator, w.denominator)}"',
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _one_line(v) -> str | None:
    """The text of v if it is written on one line, else None."""
    enc = _SCALARS.get(type(v))
    if enc is not None:
        return enc(v)
    if isinstance(v, dict):
        return None if v else "{}"
    if isinstance(v, (list, tuple)):
        texts, total = [], 0
        for x in v:
            text = _one_line(x)
            if text is None:
                return None
            total += len(text)
            if total >= 60:
                return None
            texts.append(text)
        return "[" + ", ".join(texts) + "]"
    return None


def _pieces(v, nl):
    """The JSON text of v, in pieces; nl is a newline and the indent of v's own line."""
    text = _one_line(v)
    if text is not None:
        yield text
    elif isinstance(v, dict):
        inner, sep = nl + "  ", "{" + nl + "  "
        for k, x in v.items():
            yield sep + encode_basestring_ascii(str(k)) + ": "
            yield from _pieces(x, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(v, (list, tuple)):
        inner, sep = nl + "  ", "[" + nl + "  "
        for x in v:
            text = _one_line(x)
            if text is None:
                yield sep
                yield from _pieces(x, inner)
            else:  # one piece per one-line item
                yield sep + text
            sep = "," + inner
        yield nl + "]"
    elif isinstance(v, _Rows):
        inner = nl + "  "
        # the layout's text, cut at its slots once: text, indent, text, ..., indent, text
        texts = "".join(_pieces(v.layout, inner)).split("\0")
        fills = list(zip(texts[1::2], texts[2::2]))
        head, sep = "[" + inner + texts[0], "," + inner + texts[0]
        for row in v.rows:  # one piece per record, its leaves written with no generator
            parts = [head]
            for x, (indent, text) in zip(row, fills, strict=True):
                enc = _SCALARS.get(type(x))
                leaf = enc(x) if enc is not None else _one_line(x)
                parts.append("".join(_pieces(x, indent)) if leaf is None else leaf)
                parts.append(text)
            yield "".join(parts)
            head = sep
        yield nl + "]" if head is sep else "[]"  # [] when no row came
    elif v is _SLOT:  # a raw NUL marks it: JSON text has every control character escaped
        yield "\0" + nl + "\0"
    else:
        raise TypeError(f"cannot write a value of type {type(v).__name__} as JSON")


def _render(obj, write) -> None:
    """Write obj as JSON with insertion-ordered keys and .12g floats, then a newline.

    Scalars print as _SCALARS gives them (a Fraction as a quoted
    "num/den" string); a value of any other type raises TypeError.  A
    dict writes one key per line, indented two spaces a level, and {}
    when empty.  A list or tuple is written on one line, as [a, b, c],
    when its items' texts total under 60 characters and none of them
    spans lines; otherwise it writes one item per line.

    The text is one stream of pieces, handed to write by _stream.  A
    record of a _Rows and a one-line list item are each one piece, and a
    longer list item streams its own pieces, so nothing long is held whole.
    """
    _stream(chain(_pieces(obj, "\n"), ("\n",)), write)
