"""Deterministic JSON writing: fixed key order, floats at 17 significant digits.

Reading uses the stdlib parser; writing is hand-rolled so that every float is
rendered with ``%.17g``, which round-trips IEEE doubles bit-exactly and keeps
output byte-identical across runs.  A value nested less than three deep (a
number, a series term, a list of numbers) is written as one piece, each
container's parts joined once.  Deeper containers are opened member by
member, and dumps appends each piece to the text as it comes, which CPython
grows in place; so writing a document holds the text and one piece, never
the member texts of a container or a second copy of the text.
"""

import json
import math
from json.encoder import encode_basestring_ascii

from .errors import ProblemFormatError

_CONTAINERS = (dict, list, tuple)


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


def _members(obj):
    return obj.values() if isinstance(obj, dict) else obj


def _deep(obj) -> bool:
    """obj holds a container that holds a container."""
    for v in _members(obj):
        if isinstance(v, _CONTAINERS):
            for w in _members(v):
                if isinstance(w, _CONTAINERS):
                    return True
    return False


def _text(obj) -> str:
    """The JSON text of obj, in one piece; a container's parts are joined
    once."""
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
        return "{" + ",".join(
            [encode_basestring_ascii(str(k)) + ":" + _text(v) for k, v in obj.items()]
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_text(v) for v in obj]) + "]"
    raise TypeError("cannot serialize %r" % type(obj))


def _pieces(obj):
    """The JSON text of a non-empty container, in order: a deep member (see
    _deep) is opened in turn, any other is one piece with what precedes it."""
    is_dict = isinstance(obj, dict)
    sep = "{" if is_dict else "["
    for k, v in obj.items() if is_dict else enumerate(obj):
        head = sep + encode_basestring_ascii(str(k)) + ":" if is_dict else sep
        if isinstance(v, _CONTAINERS) and _deep(v):
            yield head
            yield from _pieces(v)
        else:
            yield head + _text(v)
        sep = ","
    yield "}" if is_dict else "]"


def dumps(obj) -> str:
    """Serialize to a single deterministic JSON line (no trailing newline)."""
    # the recursion stays in _text and _pieces, so a wrapper around dumps
    # sees one call per document
    if not (isinstance(obj, _CONTAINERS) and _deep(obj)):
        return _text(obj)
    text = ""
    for piece in _pieces(obj):
        text += piece
    return text


def loads(text: str):
    """Parse JSON text; ProblemFormatError when it nests too deep to parse."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ProblemFormatError("JSON nested too deeply to parse") from exc
