"""Deterministic JSON writing: fixed key order, floats at 17 significant digits.

Reading uses the stdlib parser; writing is hand-rolled so that every float is
rendered with ``%.17g``, which round-trips IEEE doubles bit-exactly and keeps
output byte-identical across runs.  Each container's text is joined where it
is built, so the writer holds the member texts of the containers it is inside,
never a list of every token of the document.
"""

import json
import math
from json.encoder import encode_basestring_ascii


def fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in deterministic output: %r" % x)
    if x == 0.0:
        # normalize -0.0 so byte-identity does not depend on summation quirks
        x = 0.0
    return "%.17g" % x


def safe_number(x: float):
    """Non-finite values become strings (JSON has no literals for them)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return repr(x)
    return x


def _text(obj) -> str:
    """The JSON text of obj; a container joins its members' texts where it is
    built, so no more than one container's texts are held at a time."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{%s}" % ",".join(
            encode_basestring_ascii(str(k)) + ":" + _text(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(_text(v) for v in obj)
    raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    """Serialize to a single deterministic JSON line (no trailing newline)."""
    # the recursion stays in _text, so a wrapper around dumps sees one call
    # per document
    return _text(obj)


def loads(text: str):
    return json.loads(text)
