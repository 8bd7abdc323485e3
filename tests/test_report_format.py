"""Property test: cli._fmt gives every report value the text of the
isinstance-chain formatter it replaced, kept here as the reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from ccopkit.cli import _fmt  # noqa: E402


def _fmt_reference(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt_reference(v) for v in value) + "]"
    return f'"{value}"'


_EDGES = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), -float("nan"),
          5e-324, -5e-324, 2.2250738585072009e-308, 1e-7, 1e16, 0.1 + 0.2)
_floats = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True,
                                                       allow_subnormal=True))
_scalars = st.one_of(
    _floats,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_float_elements = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 6), elements=_float_elements),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=_float_elements),
    hnp.arrays(np.float32, st.integers(0, 4)),
    hnp.arrays(np.int64, st.integers(0, 4)),
    hnp.arrays(np.bool_, st.integers(0, 4)),
    hnp.arrays(np.float64, st.integers(0, 8), elements=_float_elements).map(lambda a: a[::2]),
    hnp.arrays(np.float64, st.integers(0, 4), elements=_float_elements).map(lambda a: a.astype(">f8")),
)
_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_fmt_gives_the_text_of_the_reference(value):
    assert _fmt(value) == _fmt_reference(value)


def test_fmt_edge_values_by_hand():
    assert _fmt(-0.0) == "-0.0" and _fmt(float("nan")) == "nan" and _fmt(5e-324) == "5e-324"
    assert _fmt(np.array([-0.0, np.inf, 5e-324])) == "[-0.0, inf, 5e-324]"
    assert _fmt(np.zeros(0)) == "[]" and _fmt(np.zeros((2, 0))) == "[[], []]"
    assert _fmt(np.bool_(True)) == '"True"'  # not a bool: quoted, as always
    # numpy scalars, and the items of an array that is not 1-D float64, as the int or float they hold
    assert _fmt(np.int64(-3)) == "-3" and _fmt(np.float32(0.5)) == "0.5" and _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(np.array([1, -2])) == "[1, -2]" and _fmt(np.array([0.5], dtype=np.float32)) == "[0.5]"
    assert _fmt(True) == "true" and _fmt(None) == "none" and _fmt(7) == "7" and _fmt("a") == '"a"'
