"""The JSON writer behind every JSON output of the command-line front end.

Numbers print at any length (long ints are split for CPython's digit
limit), floats with 12 significant digits and Fractions as quoted
"num/den" strings, so identical documents are byte-identical text.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
    return json.dumps(v)


def _render(obj, end: str = "") -> str:
    """JSON with insertion-ordered keys and .12g floats.

    Scalars print as _SCALARS gives them (a Fraction as a quoted
    "num/den" string), a value of any other type as json.dumps prints
    it.  A dict writes one key per line, indented two spaces a level,
    and {} when empty.  A list or tuple is written on one line, as
    [a, b, c], when its items' texts total under 60 characters and none
    of them spans lines; otherwise it writes one item per line.  The
    text, followed by end, is appended piece by piece to one list and
    joined once; the pieces of each record of a _Rows are joined as soon
    as the record is written, so a long list of records holds one string
    per record and no row of it once written.
    """
    out = []
    append = out.append
    keys = {}  # the text of each str key, with its ": "

    def write(v, nl):  # nl is a newline and the indent of v's own line
        enc = _SCALARS.get(type(v))
        if enc is not None:
            append(enc(v))
        elif isinstance(v, dict):
            if not v:
                append("{}")
                return
            inner, sep = nl + "  ", "{" + nl + "  "
            for k, x in v.items():
                key = keys.get(k)
                if key is None:
                    key = encode_basestring_ascii(str(k)) + ": "
                    if type(k) is str:
                        keys[k] = key
                append(sep)
                append(key)
                write(x, inner)
                sep = "," + inner
            append(nl + "}")
        elif isinstance(v, (list, tuple)):
            text = _one_line(v)
            if text is not None:
                append(text)
                return
            inner, sep = nl + "  ", "[" + nl + "  "
            for x in v:
                append(sep)
                write(x, inner)
                sep = "," + inner
            append(nl + "]")
        elif isinstance(v, _Rows):
            write_rows(v, nl)
        elif v is _SLOT:  # a raw NUL marks it: JSON text has every control character escaped
            append("\0")
            slots.append(nl)
        else:
            append(json.dumps(v))

    def write_rows(table, nl):
        inner = nl + "  "
        # the layout's text, cut at its slots, once; then each row fills the slots
        start = len(out)
        slots.clear()
        write(table.layout, inner)
        texts = "".join(out[start:]).split("\0")
        del out[start:]
        fills = list(zip(slots, texts[1:]))
        head, sep = "[" + inner + texts[0], "," + inner + texts[0]
        for row in table.rows:
            append(head)
            for x, (indent, text) in zip(row, fills, strict=True):
                write(x, indent)
                append(text)
            out[start:] = ("".join(out[start:]),)  # the record as one string
            start += 1
            head = sep
        append(nl + "]" if head is sep else "[]")  # [] when no row came

    slots = []  # the indents of the slots met while writing a layout
    write(obj, "\n")
    append(end)
    text = "".join(out)
    out.clear()  # write refers to itself, so out would live on until a cycle collection
    return text
