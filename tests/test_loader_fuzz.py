"""Property test: no problem file makes the CLI fail with a traceback."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ccopkit.cli import main  # noqa: E402

_NUMBERS = ("0", "1", "2", "-1", "2.7", "0.5", "1e-8", "1e200", "-0.0")
_EXPRESSIONS = (
    "x1^2 + x2^2", "(x1-1)^2 + (x2-1)^2", "log(x1)", "x1/x2", "x1^-1", "exp(x1)*x2",
    "sin(x1) + cos(x2)", "x1 - 1", "x2",
)
_number = st.sampled_from(_NUMBERS)
_quoted = st.sampled_from(_EXPRESSIONS).map(lambda e: f'"{e}"')
_bad = st.sampled_from(("1e400", "nan", "true", '"false"', '"x3"', '"x1 +"', '"sin(x1"'))
_any = st.one_of(_number, _quoted, _bad, st.just('"' + "-" * 300 + 'x1"'))


def _list(items, min_size, max_size):
    return st.lists(items, min_size=min_size, max_size=max_size).map(lambda v: f"[{', '.join(v)}]")


@st.composite
def _files(draw):
    """A mostly well-formed file with at most one fault: a value of any
    type, a repeated key or header, or a missing key."""
    n = draw(st.sampled_from((2, 3, 1)))
    entries = [
        ("problem", "n", str(n)),
        ("problem", "s", draw(st.sampled_from("01"))),
        ("problem", "f", draw(_quoted)),
        ("problem", "h", draw(_list(_quoted, 0, 1))),
        ("problem", "g", draw(_list(_quoted, 0, 1))),
        ("regularization", "c", draw(_list(_number, n, n))),
        ("regularization", "eps", draw(_number)),
        ("regularization", "override", draw(st.sampled_from(("false", "true")))),
        ("points", "p", draw(_list(_number, n, n) | _list(_number, 2 * n, 2 * n))),
        ("tolerances", "tol_act", draw(st.sampled_from(("1e-8", "1e-6", "0.5")))),
    ]
    k = draw(st.integers(0, len(entries) - 1))
    fault = draw(st.sampled_from((None, "value", "repeat", "drop", "header")))
    if fault == "value":
        entries[k] = entries[k][:2] + (draw(_any | _list(_any, 0, 3)),)
    elif fault == "repeat":
        entries.append(entries[k])
    elif fault == "drop":
        del entries[k]
    lines, current = [], None
    for section, key, value in entries:
        if section != current or fault == "header":
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_files())
def test_any_problem_file_gives_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.prob"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", str(path), "p", "--side", "m"])
    assert code in (0, 1, 2, 3, 4)
