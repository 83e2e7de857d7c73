import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_kam import Truncation, jsonio

from conftest import sampled_series


def _write_tokens(obj, parts):
    """The reference writer: every token of the text appended to one list."""
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(jsonio.fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _write_tokens(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _write_tokens(v, parts)
        parts.append("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def _token_dumps(obj):
    parts = []
    _write_tokens(obj, parts)
    return "".join(parts)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1]),
    st.text(max_size=8),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(-9, 9)), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_PAYLOADS)
def test_dumps_is_the_token_writer(payload):
    assert jsonio.dumps(payload) == _token_dumps(payload)


@pytest.mark.parametrize(
    "payload, error",
    [([1.0, {"x": float("inf")}], ValueError), ({"n": np.int64(3)}, TypeError), ([{1, 2}], TypeError)],
)
def test_dumps_refuses_what_the_token_writer_refuses(payload, error):
    with pytest.raises(error):
        _token_dumps(payload)
    with pytest.raises(error):
        jsonio.dumps(payload)


def test_dumps_peak_is_below_twice_its_output():
    """The text grows in place piece by piece, one term's text at most; one
    list of every token took about 13 times the text on this payload, and
    joining each container's member texts about 2.6 times."""
    series = sampled_series(np.random.default_rng(3), 3, 3, Truncation(8, 3, 8), 10_000)
    payload = series.to_payload()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = jsonio.dumps(payload)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert text == _token_dumps(payload)
    assert peak < 2 * len(text)
